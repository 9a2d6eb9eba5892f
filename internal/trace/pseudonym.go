package trace

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"apisense/internal/geo"
)

func geoPoint(lat, lon float64) geo.Point { return geo.Point{Lat: lat, Lon: lon} }

// Pseudonymizer replaces user identifiers with stable pseudonyms derived
// from an HMAC-SHA256 keyed by a release-specific secret. The same user maps
// to the same pseudonym within one release, but pseudonyms are unlinkable
// across releases with different keys — the first, identity-level layer of
// the PRIVAPI publication pipeline.
type Pseudonymizer struct {
	key []byte
}

// NewPseudonymizer creates a pseudonymizer keyed by key. The key must not be
// empty.
func NewPseudonymizer(key []byte) (*Pseudonymizer, error) {
	if len(key) == 0 {
		return nil, fmt.Errorf("trace: pseudonymizer key must not be empty")
	}
	k := make([]byte, len(key))
	copy(k, key)
	return &Pseudonymizer{key: k}, nil
}

// Pseudonym returns the stable pseudonym for the given user identifier.
func (p *Pseudonymizer) Pseudonym(user string) string {
	mac := hmac.New(sha256.New, p.key)
	mac.Write([]byte(user))
	return "u-" + hex.EncodeToString(mac.Sum(nil))[:16]
}

// Apply returns a copy of the dataset with every user replaced by their
// pseudonym; d is left as it was.
func (p *Pseudonymizer) Apply(d *Dataset) *Dataset { return p.Rename(d.Clone()) }

// Rename replaces every user of d by their pseudonym, in place, and returns
// d. Each distinct user costs one HMAC, however many trajectories they
// hold, and a trajectory d holds twice is renamed once.
func (p *Pseudonymizer) Rename(d *Dataset) *Dataset {
	pseudonyms := make(map[string]string)
	names := make([]string, len(d.Trajectories))
	for i, t := range d.Trajectories {
		ps, ok := pseudonyms[t.User]
		if !ok {
			ps = p.Pseudonym(t.User)
			pseudonyms[t.User] = ps
		}
		names[i] = ps
	}
	for i, t := range d.Trajectories {
		t.User = names[i]
	}
	return d
}
