package trace

import (
	"math"
	"testing"
	"time"
)

// TestInstantMatchesTime: Instant's arithmetic agrees with time.Time's on
// the instants it holds, down to the rounding of negative times and the
// saturation of a difference wider than a Duration.
func TestInstantMatchesTime(t *testing.T) {
	instants := []Instant{
		math.MinInt64, math.MinInt64 + 1, -1e9 - 1, -1e9, -1e6 - 1, -1, 0, 1,
		999_999, 1e6, 1e9 - 1, 1e9, 1418025600123456789, math.MaxInt64 - 1, math.MaxInt64,
	}
	for _, i := range instants {
		ti := time.Unix(0, int64(i))
		if !InRange(ti) || InstantOf(ti) != i || !i.Time().Equal(ti) || i.Time().Location() != time.UTC {
			t.Errorf("%d does not round-trip through time.Time (%v)", i, i.Time())
		}
		if i.Unix() != ti.Unix() || i.UnixMilli() != ti.UnixMilli() {
			t.Errorf("%d: Unix, UnixMilli = %d, %d, want %d, %d", i, i.Unix(), i.UnixMilli(), ti.Unix(), ti.UnixMilli())
		}
		for _, j := range instants {
			if got, want := i.Sub(j), ti.Sub(time.Unix(0, int64(j))); got != want {
				t.Errorf("%d.Sub(%d) = %d, want %d", i, j, got, want)
			}
		}
	}
	for _, out := range []time.Time{
		time.Unix(0, math.MinInt64).Add(-1), time.Unix(0, math.MaxInt64).Add(1),
		time.Date(2300, 1, 1, 0, 0, 0, 0, time.UTC), {},
	} {
		if InRange(out) {
			t.Errorf("InRange(%v) = true", out)
		}
	}
}
