package trace

import (
	"math"
	"time"
)

// Instant is a point in time as nanoseconds since the Unix epoch, UTC: what
// time.Time.UnixNano returns. It holds no pointer and compares with < and
// ==, so a Record stays 32 pointer-free bytes and the hot loops (stay
// points, smoothing, distortion) compare integers. It spans 1677-09-21 to
// 2262-04-11; the I/O boundaries (ReadCSV, UnmarshalJSON and the uploads
// the Honeycomb converts) refuse a time outside it, which UnixNano would
// silently wrap onto another instant. time.Time appears only there.
type Instant int64

// The first and last instants an Instant holds.
var (
	minTime = time.Unix(0, math.MinInt64)
	maxTime = time.Unix(0, math.MaxInt64)
)

// InRange reports whether t lies in the span an Instant holds.
func InRange(t time.Time) bool { return !t.Before(minTime) && !t.After(maxTime) }

// InstantOf returns t as an Instant. t must lie in range (see InRange);
// outside it the result is whatever UnixNano wraps it to.
func InstantOf(t time.Time) Instant { return Instant(t.UnixNano()) }

// Time returns the instant as a UTC time.Time.
func (i Instant) Time() time.Time { return time.Unix(0, int64(i)).UTC() }

// Add returns i+d.
func (i Instant) Add(d time.Duration) Instant { return i + Instant(d) }

// Sub returns the duration i−j, saturating at the minimum or maximum
// Duration as time.Time.Sub does.
func (i Instant) Sub(j Instant) time.Duration {
	d := i - j
	if (d < i) != (j > 0) { // the subtraction overflowed
		if i < j {
			return math.MinInt64
		}
		return math.MaxInt64
	}
	return time.Duration(d)
}

// Unix returns the instant in whole seconds, rounded down, as
// time.Time.Unix does.
func (i Instant) Unix() int64 { return floorDiv(int64(i), 1e9) }

// UnixMilli returns the instant in whole milliseconds, rounded down, as
// time.Time.UnixMilli does.
func (i Instant) UnixMilli() int64 { return floorDiv(int64(i), 1e6) }

func floorDiv(a, b int64) int64 {
	q := a / b
	if a%b < 0 {
		q--
	}
	return q
}
