package metrics

import (
	"fmt"
	"math"
	"sort"

	"apisense/internal/geo"
	"apisense/internal/trace"
)

// DistortionStats summarises the time-aligned spatial distortion between a
// raw dataset and its protected release: for every protected record, the
// distance to where the user actually was at that instant.
type DistortionStats struct {
	Mean   float64
	Median float64
	P95    float64
	Max    float64
	Points int
}

// String implements fmt.Stringer.
func (s DistortionStats) String() string {
	return fmt.Sprintf("mean=%.0fm median=%.0fm p95=%.0fm max=%.0fm (%d points)",
		s.Mean, s.Median, s.P95, s.Max, s.Points)
}

// SpatialDistortion measures how far each protected record is from the
// user's true (interpolated) position at the same instant. Raw and
// protected are matched per user; protected records outside the raw time
// span are skipped. Mechanisms that displace points in space (noise,
// cloaking) score by their noise amplitude; mechanisms that displace points
// in time (speed smoothing) score by how far along the path the release has
// shifted the user.
func SpatialDistortion(raw, protected *trace.Dataset) DistortionStats {
	tracks := newTracks(raw)
	scan := newDistortionScan(protected.NumRecords())
	for _, pt := range protected.Trajectories {
		scan.add(pt, tracks[pt.User])
	}
	return summarize(scan.dists)
}

// track is one raw trajectory as the distortion scan reads it: timestamps
// as contiguous UnixNano beside their positions, so locating an instant
// compares integers instead of calling into time.Time. Instants are
// therefore ordered as UnixNano orders them, which is the order of
// time.Time between the years 1678 and 2262.
type track struct {
	ts  []int64
	pos []geo.Point
	// ascending reports that ts is sorted, as Trajectory documents; only
	// then may a cursor stand in for the binary search.
	ascending bool
}

// newTracks lays out every raw trajectory as a track, per user and in
// dataset order.
func newTracks(raw *trace.Dataset) map[string][]track {
	n := raw.NumRecords()
	ts, pos := make([]int64, n), make([]geo.Point, n)
	tracks := make(map[string][]track)
	for _, t := range raw.Trajectories {
		k := len(t.Records)
		tk := track{ts: ts[:k:k], pos: pos[:k:k], ascending: true}
		ts, pos = ts[k:], pos[k:]
		for i, r := range t.Records {
			tk.ts[i], tk.pos[i] = r.Time.UnixNano(), r.Pos
			if i > 0 && tk.ts[i] < tk.ts[i-1] {
				tk.ascending = false
			}
		}
		tracks[t.User] = append(tracks[t.User], tk)
	}
	return tracks
}

// locate returns the first index whose timestamp is not before q, probing
// exactly as sort.Search does so that a track that is not ascending yields
// what Trajectory.At yields on it.
func (tk *track) locate(q int64) int {
	i, j := 0, len(tk.ts)
	for i < j {
		h := int(uint(i+j) >> 1)
		if tk.ts[h] < q {
			i = h + 1
		} else {
			j = h
		}
	}
	return i
}

// locateFrom is locate for an ascending track given a lower bound: every
// index before from holds a timestamp before q, and q is not after the last
// timestamp. It gallops forward from the bound, so a run of queries in time
// order costs the distance travelled rather than a full search each.
func (tk *track) locateFrom(from int, q int64) int {
	if tk.ts[from] >= q {
		return from
	}
	lo, step, last := from, 1, len(tk.ts)-1
	for {
		hi := min(lo+step, last)
		if tk.ts[hi] >= q {
			for lo+1 < hi {
				if mid := int(uint(lo+hi) >> 1); tk.ts[mid] >= q {
					hi = mid
				} else {
					lo = mid
				}
			}
			return hi
		}
		lo, step = hi, step<<1
	}
}

// at interpolates the position at the located index i, as Trajectory.At
// does.
func (tk *track) at(i int, q int64) geo.Point {
	if i == 0 {
		return tk.pos[0]
	}
	span := tk.ts[i] - tk.ts[i-1]
	if span <= 0 {
		return tk.pos[i]
	}
	frac := float64(q-tk.ts[i-1]) / float64(span)
	return geo.Lerp(tk.pos[i-1], tk.pos[i], frac)
}

// distortionScan is the time-aligned half of the scoring kernel: it
// collects, for every protected record inside the span of one of its
// user's raw trajectories (the first such trajectory in dataset order), the
// distance to where the user really was.
type distortionScan struct {
	dists []float64
	// cursors holds, per raw track of the trajectory being scanned, where
	// the previous record was located and at which instant: protected
	// records are time-ordered, so the next one is at or after it.
	cursors []cursor
}

type cursor struct {
	i int
	q int64
}

func newDistortionScan(records int) *distortionScan {
	return &distortionScan{dists: make([]float64, 0, records)}
}

// add scans one protected trajectory against its user's raw tracks.
func (s *distortionScan) add(pt *trace.Trajectory, raw []track) {
	if len(raw) == 0 {
		return
	}
	s.cursors = s.cursors[:0]
	for range raw {
		s.cursors = append(s.cursors, cursor{q: math.MinInt64})
	}
	for _, r := range pt.Records {
		q := r.Time.UnixNano()
		for j := range raw {
			tk := &raw[j]
			n := len(tk.ts)
			if n == 0 || q < tk.ts[0] || q > tk.ts[n-1] {
				continue
			}
			// An out-of-order protected record restarts the cursor.
			var i int
			if cur := &s.cursors[j]; tk.ascending && q >= cur.q {
				i = tk.locateFrom(cur.i, q)
			} else {
				i = tk.locate(q)
			}
			s.cursors[j] = cursor{i: i, q: q}
			s.dists = append(s.dists, geo.Distance(tk.at(i, q), r.Pos))
			break
		}
	}
}

// summarize orders the distances and reads the statistics off them.
func summarize(dists []float64) DistortionStats {
	if len(dists) == 0 {
		return DistortionStats{}
	}
	sortDistances(dists)
	var sum float64
	for _, d := range dists {
		sum += d
	}
	idx := func(q float64) int {
		i := int(math.Ceil(q*float64(len(dists)))) - 1
		if i < 0 {
			i = 0
		}
		if i >= len(dists) {
			i = len(dists) - 1
		}
		return i
	}
	return DistortionStats{
		Mean:   sum / float64(len(dists)),
		Median: dists[idx(0.5)],
		P95:    dists[idx(0.95)],
		Max:    dists[len(dists)-1],
		Points: len(dists),
	}
}

// radixMin is the length below which a comparison sort beats eight
// histogram passes.
const radixMin = 256

// sortDistances sorts ascending, exactly as sort.Float64s orders. Distances
// are non-negative and then their IEEE-754 bit patterns order as the
// numbers do, so they are sorted by least-significant-digit radix passes
// over the bits; a slice holding a NaN or a negative value (a release with
// a NaN coordinate) is left to sort.Float64s and its NaN-first order.
func sortDistances(a []float64) {
	const infBits = 0x7FF0000000000000
	n := len(a)
	if n < radixMin {
		sort.Float64s(a)
		return
	}
	var hist [8][256]int
	for _, v := range a {
		b := math.Float64bits(v)
		if b > infBits {
			sort.Float64s(a)
			return
		}
		for d := range hist {
			hist[d][byte(b>>(8*d))]++
		}
	}
	src, dst := a, make([]float64, n)
	for d := range hist {
		h := &hist[d]
		if h[byte(math.Float64bits(src[0])>>(8*d))] == n {
			continue // every value shares this digit
		}
		var sum int
		for i, c := range h {
			h[i], sum = sum, sum+c
		}
		for _, v := range src {
			digit := byte(math.Float64bits(v) >> (8 * d))
			dst[h[digit]] = v
			h[digit]++
		}
		src, dst = dst, src
	}
	if &src[0] != &a[0] {
		copy(a, src)
	}
}
