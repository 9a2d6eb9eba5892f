package mobgen

import (
	"math/rand/v2"
	"time"

	"apisense/internal/geo"
	"apisense/internal/trace"
)

// leg is one piece of a daily itinerary: either a stay (From == To) or a
// constant-speed move between two places.
type leg struct {
	start time.Time
	end   time.Time
	from  geo.Point
	to    geo.Point
}

// itinerary is a gap-free sequence of legs covering one day.
type itinerary []leg

// at returns the position at time ts (ts must fall inside the itinerary).
func (it itinerary) at(ts time.Time) (geo.Point, bool) {
	for _, l := range it {
		if ts.Before(l.start) || ts.After(l.end) {
			continue
		}
		span := l.end.Sub(l.start)
		if span <= 0 || l.from == l.to {
			return l.from, true
		}
		frac := float64(ts.Sub(l.start)) / float64(span)
		return geo.Lerp(l.from, l.to, frac), true
	}
	return geo.Point{}, false
}

// travelSpeed picks a realistic speed in m/s for a trip of the given length:
// people walk short hops and drive or ride transit for longer ones.
func travelSpeed(dist float64, rng *rand.Rand) float64 {
	switch {
	case dist < 800:
		return 1.2 + rng.Float64()*0.5 // walking
	case dist < 3000:
		return 4 + rng.Float64()*3 // bike / slow transit
	default:
		return 8 + rng.Float64()*5 // car / metro
	}
}

// jitterMinutes returns a duration of +/- m minutes.
func jitterMinutes(m float64, rng *rand.Rand) time.Duration {
	return time.Duration((rng.Float64()*2 - 1) * m * float64(time.Minute))
}

// buildItinerary lays out one day for a resident. Weekdays follow a
// home->work->(lunch)->work->(leisure)->home routine; weekends are
// home-anchored with optional leisure outings. The routine repetition is
// what makes POI-based re-identification work, mirroring real datasets.
func buildItinerary(res Resident, city *City, dayStart time.Time, rng *rand.Rand) itinerary {
	dayEnd := dayStart.Add(24 * time.Hour)
	weekday := dayStart.Weekday()
	weekend := weekday == time.Saturday || weekday == time.Sunday

	var it itinerary
	cursor := dayStart
	pos := res.Home

	stay := func(until time.Time, where geo.Point) {
		if until.After(dayEnd) {
			until = dayEnd
		}
		if until.After(cursor) {
			it = append(it, leg{start: cursor, end: until, from: where, to: where})
			cursor = until
		}
		pos = where
	}
	move := func(to geo.Point) {
		dist := geo.Distance(pos, to)
		if dist < 1 {
			pos = to
			return
		}
		speed := travelSpeed(dist, rng)
		dur := time.Duration(dist / speed * float64(time.Second))
		end := cursor.Add(dur)
		if end.After(dayEnd) {
			end = dayEnd
		}
		it = append(it, leg{start: cursor, end: end, from: pos, to: to})
		cursor = end
		pos = to
	}

	if weekend {
		// Sleep in, then zero to two leisure outings.
		stay(dayStart.Add(10*time.Hour).Add(jitterMinutes(40, rng)), res.Home)
		outings := rng.IntN(3)
		for i := 0; i < outings && cursor.Before(dayStart.Add(20*time.Hour)); i++ {
			target := res.Leisure
			if rng.Float64() < 0.4 && len(city.Leisure) > 0 {
				target = city.Leisure[rng.IntN(len(city.Leisure))].Pos
			}
			move(target)
			stay(cursor.Add(90*time.Minute).Add(jitterMinutes(30, rng)), target)
			move(res.Home)
			stay(cursor.Add(time.Hour), res.Home)
		}
		stay(dayEnd, res.Home)
		return it
	}

	// Weekday routine.
	leaveHome := dayStart.Add(8 * time.Hour).Add(jitterMinutes(25, rng))
	stay(leaveHome, res.Home)
	move(res.Work)
	lunch := dayStart.Add(12 * time.Hour).Add(jitterMinutes(15, rng))
	stay(lunch, res.Work)
	if rng.Float64() < 0.5 && len(city.Leisure) > 0 {
		// Lunch outing to the leisure site nearest the workplace.
		spot := nearestSite(city.Leisure, res.Work)
		move(spot)
		stay(cursor.Add(45*time.Minute).Add(jitterMinutes(10, rng)), spot)
		move(res.Work)
	}
	leaveWork := dayStart.Add(17 * time.Hour).Add(jitterMinutes(40, rng))
	stay(leaveWork, res.Work)
	if rng.Float64() < 0.3 {
		move(res.Leisure)
		stay(cursor.Add(100*time.Minute).Add(jitterMinutes(20, rng)), res.Leisure)
	}
	move(res.Home)
	stay(dayEnd, res.Home)
	return it
}

func nearestSite(sites []Site, to geo.Point) geo.Point {
	best := sites[0].Pos
	bestDist := geo.Distance(best, to)
	for _, s := range sites[1:] {
		if d := geo.Distance(s.Pos, to); d < bestDist {
			best, bestDist = s.Pos, d
		}
	}
	return best
}

// sampleItinerary converts a continuous itinerary into discrete GPS fixes
// with sensor noise and dropout.
func sampleItinerary(user string, it itinerary, cfg Config, rng *rand.Rand) *trace.Trajectory {
	tr := &trace.Trajectory{User: user}
	if len(it) == 0 {
		return tr
	}
	for ts := it[0].start; !ts.After(it[len(it)-1].end); ts = ts.Add(cfg.SamplePeriod) {
		if cfg.Dropout > 0 && rng.Float64() < cfg.Dropout {
			continue
		}
		pos, ok := it.at(ts)
		if !ok {
			continue
		}
		if cfg.GPSNoise > 0 {
			pos = geo.Translate(pos, rng.NormFloat64()*cfg.GPSNoise, rng.NormFloat64()*cfg.GPSNoise)
		}
		tr.Records = append(tr.Records, trace.Record{Time: trace.InstantOf(ts), Pos: pos, Accuracy: cfg.GPSNoise})
	}
	return tr
}
