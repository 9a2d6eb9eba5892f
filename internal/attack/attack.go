// Package attack implements the adversary of the paper's §3: an analyst who
// mines a released mobility dataset for points of interest and uses them to
// re-identify users.
//
// Two attacks are provided:
//
//   - POIRecovery quantifies claim C1/C2: which fraction of the users' true
//     points of interest can still be recovered from the protected release
//     (recall), and how much of what the attacker extracts is actually a
//     true stop (precision);
//   - Linker performs POI-profile re-identification: given per-user profiles
//     learned from background knowledge (e.g. an earlier raw release), it
//     links pseudonymous protected trajectories back to users.
package attack

import (
	"fmt"
	"math"
	"sort"

	"apisense/internal/geo"
	"apisense/internal/poi"
	"apisense/internal/trace"
)

// RecoveryResult reports POI recovery quality for one protected release.
type RecoveryResult struct {
	// TruePOIs is the number of ground-truth POIs across users.
	TruePOIs int
	// ExtractedPOIs is the number of POIs the attacker extracted.
	ExtractedPOIs int
	// Recovered is the number of true POIs with an extracted POI within
	// the matching radius.
	Recovered int
	// Matched is the number of extracted POIs lying within the matching
	// radius of some true POI.
	Matched int
}

// Add returns the counts of r and o summed: the result over two disjoint
// sets of users.
func (r RecoveryResult) Add(o RecoveryResult) RecoveryResult {
	return RecoveryResult{
		TruePOIs:      r.TruePOIs + o.TruePOIs,
		ExtractedPOIs: r.ExtractedPOIs + o.ExtractedPOIs,
		Recovered:     r.Recovered + o.Recovered,
		Matched:       r.Matched + o.Matched,
	}
}

// Recall returns the fraction of true POIs recovered — the paper's
// "re-identify at least 60% of the points of interest" figure.
func (r RecoveryResult) Recall() float64 {
	if r.TruePOIs == 0 {
		return 0
	}
	return float64(r.Recovered) / float64(r.TruePOIs)
}

// Precision returns the fraction of extracted POIs that are true stops.
func (r RecoveryResult) Precision() float64 {
	if r.ExtractedPOIs == 0 {
		return 0
	}
	return float64(r.Matched) / float64(r.ExtractedPOIs)
}

// F1 returns the harmonic mean of recall and precision.
func (r RecoveryResult) F1() float64 {
	p, rec := r.Precision(), r.Recall()
	if p+rec == 0 {
		return 0
	}
	return 2 * p * rec / (p + rec)
}

// String implements fmt.Stringer.
func (r RecoveryResult) String() string {
	return fmt.Sprintf("recall=%.2f precision=%.2f f1=%.2f (%d/%d true, %d extracted)",
		r.Recall(), r.Precision(), r.F1(), r.Recovered, r.TruePOIs, r.ExtractedPOIs)
}

// POIRecovery is the POI-retrieval attack.
type POIRecovery struct {
	// Extractor mines the protected release (attacker-side tool).
	Extractor poi.Extractor
	// MergeRadius collapses per-day POIs into places (metres, default 250).
	MergeRadius float64
	// MatchRadius is the distance within which an extracted POI counts as
	// recovering a true POI (metres, default 250).
	MatchRadius float64
}

// NewPOIRecovery returns the attack with the given extractor; zero radii take
// the 250 m default.
func NewPOIRecovery(e poi.Extractor, mergeRadius, matchRadius float64) (*POIRecovery, error) {
	if e == nil {
		return nil, fmt.Errorf("attack: extractor must not be nil")
	}
	if mergeRadius < 0 || matchRadius < 0 {
		return nil, fmt.Errorf("attack: radii must be >= 0")
	}
	if mergeRadius == 0 {
		mergeRadius = 250
	}
	if matchRadius == 0 {
		matchRadius = 250
	}
	return &POIRecovery{Extractor: e, MergeRadius: mergeRadius, MatchRadius: matchRadius}, nil
}

// Run executes the attack: truth maps each user to their ground-truth POI
// locations, release is the protected dataset (keyed by the same user ids;
// use trace.Pseudonymizer consistently on both sides if pseudonymised).
func (a *POIRecovery) Run(truth map[string][]geo.Point, release *trace.Dataset) RecoveryResult {
	extracted := poi.ExtractAll(a.Extractor, release)
	var res RecoveryResult
	for user, truePOIs := range truth {
		res = res.Add(a.Match(truePOIs, extracted[user]))
	}
	return res
}

// Match is the attack on one user: it merges the stays the attacker
// extracted from the user's released trajectories, in release order, into
// places and matches them against the user's true POIs. Run sums it over
// the users with true POIs.
func (a *POIRecovery) Match(truth []geo.Point, stays []poi.POI) RecoveryResult {
	places := poi.Merge(stays, a.MergeRadius)
	res := RecoveryResult{TruePOIs: len(truth), ExtractedPOIs: len(places)}
	for _, tp := range truth {
		for _, p := range places {
			if geo.Distance(p.Center, tp) <= a.MatchRadius {
				res.Recovered++
				break
			}
		}
	}
	for _, p := range places {
		for _, tp := range truth {
			if geo.Distance(p.Center, tp) <= a.MatchRadius {
				res.Matched++
				break
			}
		}
	}
	return res
}

// Linker is the POI-profile re-identification attack. Profiles are the
// attacker's background knowledge: the places each known user frequents.
type Linker struct {
	// Extractor mines the protected release.
	Extractor poi.Extractor
	// MergeRadius collapses per-day POIs into places (metres, default 250).
	MergeRadius float64
}

// NewLinker returns a linker using the given extractor.
func NewLinker(e poi.Extractor, mergeRadius float64) (*Linker, error) {
	if e == nil {
		return nil, fmt.Errorf("attack: extractor must not be nil")
	}
	if mergeRadius < 0 {
		return nil, fmt.Errorf("attack: merge radius must be >= 0")
	}
	if mergeRadius == 0 {
		mergeRadius = 250
	}
	return &Linker{Extractor: e, MergeRadius: mergeRadius}, nil
}

// Place is one entry of a user profile: a location and its importance
// (how much evidence supports it — more dwell means more weight).
type Place struct {
	Pos    geo.Point
	Weight float64
}

// ProfileFromPoints builds an equally-weighted profile from raw locations,
// e.g. ground-truth POIs.
func ProfileFromPoints(pts []geo.Point) []Place {
	out := make([]Place, len(pts))
	for i, p := range pts {
		out[i] = Place{Pos: p, Weight: 1}
	}
	return out
}

// BuildProfiles learns per-user profiles (merged POI centroids weighted by
// supporting fixes) from a raw background dataset.
func (l *Linker) BuildProfiles(background *trace.Dataset) map[string][]Place {
	perUser := poi.ExtractAll(l.Extractor, background)
	out := make(map[string][]Place, len(perUser))
	for user, pois := range perUser {
		places := poi.Merge(pois, l.MergeRadius)
		ps := make([]Place, len(places))
		for i, p := range places {
			ps[i] = Place{Pos: p.Center, Weight: float64(p.Fixes)}
		}
		out[user] = ps
	}
	return out
}

// LinkResult reports re-identification accuracy.
type LinkResult struct {
	// Users is the number of pseudonymous identities attacked.
	Users int
	// Correct is the number linked to the right profile (top-1).
	Correct int
	// CorrectTop3 is the number whose true profile ranked in the top 3.
	CorrectTop3 int
	// Baseline is the expected accuracy of random guessing (1/candidates).
	Baseline float64
}

// Accuracy returns the top-1 linkage accuracy.
func (r LinkResult) Accuracy() float64 {
	if r.Users == 0 {
		return 0
	}
	return float64(r.Correct) / float64(r.Users)
}

// AccuracyTop3 returns the top-3 linkage accuracy.
func (r LinkResult) AccuracyTop3() float64 {
	if r.Users == 0 {
		return 0
	}
	return float64(r.CorrectTop3) / float64(r.Users)
}

// String implements fmt.Stringer.
func (r LinkResult) String() string {
	return fmt.Sprintf("top1=%.2f top3=%.2f baseline=%.3f (%d users)",
		r.Accuracy(), r.AccuracyTop3(), r.Baseline, r.Users)
}

// Run links every user of the protected release against the profiles. The
// release keys are assumed pseudonymous but stable per user; the true
// mapping (pseudonym -> user) must be supplied for scoring via trueID.
func (l *Linker) Run(profiles map[string][]Place, release *trace.Dataset, trueID func(pseudonym string) string) LinkResult {
	extracted := poi.ExtractAll(l.Extractor, release)
	candidates := make([]string, 0, len(profiles))
	for user := range profiles {
		candidates = append(candidates, user)
	}
	sort.Strings(candidates)

	var res LinkResult
	if len(candidates) > 0 {
		res.Baseline = 1 / float64(len(candidates))
	}
	for pseudo, pois := range extracted {
		places := poi.Merge(pois, l.MergeRadius)
		if len(places) == 0 {
			continue
		}
		test := make([]geo.Point, len(places))
		for i, p := range places {
			test[i] = p.Center
		}
		truth := trueID(pseudo)
		if _, ok := profiles[truth]; !ok {
			continue
		}
		res.Users++

		type scored struct {
			user  string
			score float64
		}
		ranking := make([]scored, 0, len(candidates))
		for _, cand := range candidates {
			ranking = append(ranking, scored{cand, profileDistance(profiles[cand], test)})
		}
		sort.Slice(ranking, func(i, j int) bool { return ranking[i].score < ranking[j].score })
		if ranking[0].user == truth {
			res.Correct++
		}
		for i := 0; i < len(ranking) && i < 3; i++ {
			if ranking[i].user == truth {
				res.CorrectTop3++
				break
			}
		}
	}
	return res
}

// profileDistance scores how well the test POIs explain a candidate profile:
// the weight-averaged distance from each profile place to the closest test
// place. Heavily-dwelled places (home, work) dominate. Lower is better.
func profileDistance(profile []Place, test []geo.Point) float64 {
	if len(profile) == 0 || len(test) == 0 {
		return math.Inf(1)
	}
	var sum, wsum float64
	for _, pp := range profile {
		best := math.Inf(1)
		for _, tp := range test {
			if d := geo.Distance(pp.Pos, tp); d < best {
				best = d
			}
		}
		w := pp.Weight
		if w <= 0 {
			w = 1
		}
		sum += w * best
		wsum += w
	}
	return sum / wsum
}
