package metrics

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/big"

	"apisense/internal/geo"
	"apisense/internal/trace"
)

// DistortionStats summarises the time-aligned spatial distortion between a
// raw dataset and its protected release: for every protected record, the
// distance to where the user actually was at that instant.
type DistortionStats struct {
	// Mean is the correctly rounded exact sum of the distances over their
	// number: it does not depend on the order of users or records. It is
	// NaN if any distance is NaN (or +Inf and −Inf meet), and ±Inf if one
	// sign of infinity is present.
	Mean   float64
	Points int
}

// String implements fmt.Stringer.
func (s DistortionStats) String() string {
	return fmt.Sprintf("mean=%.0fm (%d points)", s.Mean, s.Points)
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
	var scan distortionScan
	for _, pt := range protected.Trajectories {
		scan.add(pt, tracks[pt.User])
	}
	return scan.stats()
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

// distortionScan is the time-aligned half of the scoring kernel: it sums,
// for every protected record inside the span of one of its user's raw
// trajectories (the first such trajectory in dataset order), the distance
// to where the user really was. It keeps running sums only, no distance.
type distortionScan struct {
	sum exactSum // the finite distances
	n   int      // every distance
	// nans counts the NaN distances; inf sums the infinite ones, and is
	// NaN once both signs occur.
	nans int
	inf  float64
	// cursors holds, per raw track of the trajectory being scanned, where
	// the previous record was located and at which instant: protected
	// records are time-ordered, so the next one is at or after it.
	cursors []cursor
}

type cursor struct {
	i int
	q int64
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
			s.push(geo.Distance(tk.at(i, q), r.Pos))
			break
		}
	}
}

// push adds one distance to the sums.
func (s *distortionScan) push(d float64) {
	s.n++
	if !s.sum.add(d) {
		if d != d {
			s.nans++
		} else {
			s.inf += d
		}
	}
}

// merge adds what o has summed to s; o is left as it was.
func (s *distortionScan) merge(o *distortionScan) {
	s.sum.merge(o.sum)
	s.n += o.n
	s.nans += o.nans
	s.inf += o.inf
}

// stats returns the summary of the distances pushed or merged so far: the
// exact sum is rounded once, half to even, so the mean depends on the set
// of distances and not on their order.
func (s *distortionScan) stats() DistortionStats {
	if s.n == 0 {
		return DistortionStats{}
	}
	var sum float64
	switch {
	case s.nans > 0:
		sum = math.NaN()
	case s.inf != 0:
		sum = s.inf
	default:
		sum = s.sum.round()
	}
	return DistortionStats{Mean: sum / float64(s.n), Points: s.n}
}

// exactSum adds float64 values without rounding: Neal's small
// superaccumulator ("Fast exact summation using small and large
// superaccumulators", arXiv:1505.05571). A finite float64 is an integer
// m < 2⁵³ times 2^(p−1074) for a bit position p in [0, 2045]; m·2^(p mod
// 32) is split into three digits below 2³² that are added to chunks p/32,
// p/32+1 and p/32+2, chunk c weighing 2^(32c−1074). A chunk gains less than
// 2³² per value, so its int64 cannot overflow before carries are
// propagated, which happens every 2³⁰ values, before merging and before
// rounding.
type exactSum struct {
	chunk [67]int64
	adds  int
}

// add adds a finite v exactly and reports true; it ignores a NaN or an
// infinity and reports false.
func (a *exactSum) add(v float64) bool {
	b := math.Float64bits(v)
	e := int(b>>52) & 0x7FF
	if e == 0x7FF {
		return false
	}
	m, p := b&(1<<52-1), 0
	if e > 0 {
		m, p = m|1<<52, e-1
	}
	c, s := p>>5, uint(p&31)
	lo, hi := m<<s, m>>(64-s) // hi is 0 when s is 0
	d0, d1, d2 := int64(lo&0xFFFFFFFF), int64(lo>>32), int64(hi)
	if b>>63 != 0 {
		d0, d1, d2 = -d0, -d1, -d2
	}
	a.chunk[c] += d0
	a.chunk[c+1] += d1
	a.chunk[c+2] += d2
	if a.adds++; a.adds == 1<<30 {
		a.carry()
		a.adds = 0
	}
	return true
}

// carry leaves every chunk but the top one in [0, 2³²), the top one
// holding the sign, without changing the sum.
func (a *exactSum) carry() {
	for c := range len(a.chunk) - 1 {
		k := a.chunk[c] >> 32
		a.chunk[c] -= k << 32
		a.chunk[c+1] += k
	}
}

// merge adds b's sum to a. Both are carried first, so every chunk of a
// ends below 2³³ and a may take 2³⁰ more values before its next carry.
func (a *exactSum) merge(b exactSum) {
	a.carry()
	b.carry()
	for c := range a.chunk {
		a.chunk[c] += b.chunk[c]
	}
	a.adds = 0
}

// round returns the sum rounded to the nearest float64, ties to even
// (±Inf past the largest finite float64). It works on a copy, so a is
// left as it was.
func (a exactSum) round() float64 {
	a.carry()
	neg := a.chunk[len(a.chunk)-1] < 0
	if neg {
		for c := range a.chunk {
			a.chunk[c] = -a.chunk[c]
		}
		a.carry()
	}
	// Big-endian digits: the top chunk is well below 2⁶³ (it weighs
	// 2^1038, and no 2⁶³ finite values sum that high).
	var buf [8 + 4*(len(exactSum{}.chunk)-1)]byte
	top := len(a.chunk) - 1
	binary.BigEndian.PutUint64(buf[:8], uint64(a.chunk[top]))
	for c := range top {
		binary.BigEndian.PutUint32(buf[len(buf)-4*(c+1):], uint32(a.chunk[c]))
	}
	var f big.Float
	f.SetInt(new(big.Int).SetBytes(buf[:]))
	f.SetMantExp(&f, -1074)
	if neg {
		f.Neg(&f)
	}
	r, _ := f.Float64()
	return r
}
