package trace

import (
	"crypto/sha256"
	"encoding/binary"
	"math"
)

// Canonical content hashing. The evaluation cache (internal/evalcache)
// addresses entries by what the data *is*, not where it came from, so the
// digest must be a pure function of the observable trajectory content:
// user identifier, record instants, positions and accuracies. Every field
// is encoded fixed-width little-endian with length prefixes, so distinct
// contents cannot collide by concatenation ("ab"+"c" vs "a"+"bc") and the
// digest is stable across processes and architectures.

// HashSize is the size in bytes of a content hash (SHA-256).
const HashSize = sha256.Size

const (
	recordBytes = 32 // encoded record: instant, lat, lon, accuracy
	hashBatch   = 64 // records encoded per hash Write
)

// ContentHash returns the canonical digest of the trajectory: the user
// identifier plus every record's instant (UnixNano), position and
// accuracy. Two trajectories have equal hashes iff their observable
// content is equal.
func (t *Trajectory) ContentHash() [HashSize]byte {
	h := sha256.New()
	var buf [hashBatch * recordBytes]byte
	le := binary.LittleEndian
	b := le.AppendUint64(buf[:0], uint64(len(t.User)))
	b = append(b, t.User...)
	b = le.AppendUint64(b, uint64(len(t.Records)))
	for _, r := range t.Records {
		if len(b)+recordBytes > len(buf) {
			h.Write(b)
			b = buf[:0]
		}
		b = le.AppendUint64(b, uint64(r.Time))
		b = le.AppendUint64(b, math.Float64bits(r.Pos.Lat))
		b = le.AppendUint64(b, math.Float64bits(r.Pos.Lon))
		b = le.AppendUint64(b, math.Float64bits(r.Accuracy))
	}
	h.Write(b)
	var out [HashSize]byte
	h.Sum(out[:0])
	return out
}

// TrajectoryHashes returns every trajectory's ContentHash, in dataset
// order. A caller that keys both the dataset and parts of it hashes once
// here and combines.
func (d *Dataset) TrajectoryHashes() [][HashSize]byte {
	out := make([][HashSize]byte, len(d.Trajectories))
	for i, t := range d.Trajectories {
		out[i] = t.ContentHash()
	}
	return out
}

// ContentHash returns the canonical digest of the whole dataset:
// CombineHashes of its TrajectoryHashes. Order participates deliberately —
// the publication engine's output (reports, release order) is defined over
// dataset order, so two datasets that differ only by ordering must not
// share a cache entry.
func (d *Dataset) ContentHash() [HashSize]byte {
	return CombineHashes(d.TrajectoryHashes()...)
}

// CombineHashes folds a sequence of content hashes into one digest, in
// order: it keys a sequence of trajectories (a dataset, or any part of
// one) without materialising a sub-dataset.
func CombineHashes(hashes ...[HashSize]byte) [HashSize]byte {
	h := sha256.New()
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(len(hashes)))
	h.Write(buf[:])
	for _, hh := range hashes {
		h.Write(hh[:])
	}
	var out [HashSize]byte
	h.Sum(out[:0])
	return out
}
