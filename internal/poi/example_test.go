package poi_test

import (
	"fmt"
	"time"

	"apisense/internal/geo"
	"apisense/internal/poi"
	"apisense/internal/trace"
)

// ExampleStayPoints extracts the places where a user stopped from one day
// of movement — the analysis PRIVAPI's speed smoothing is built to defeat.
func ExampleStayPoints() {
	home := geo.Point{Lat: 45.7640, Lon: 4.8357}
	office := geo.Translate(home, 3000, 1500)
	start := time.Date(2014, 12, 8, 7, 0, 0, 0, time.UTC)

	day := &trace.Trajectory{User: "alice"}
	ts := start
	stay := func(at geo.Point, hours float64) {
		for end := ts.Add(time.Duration(hours * float64(time.Hour))); ts.Before(end); ts = ts.Add(time.Minute) {
			day.Records = append(day.Records, trace.Record{Time: trace.InstantOf(ts), Pos: at})
		}
	}
	commute := func(from, to geo.Point) {
		dur := time.Duration(geo.Distance(from, to) / 10 * float64(time.Second))
		for end := ts.Add(dur); ts.Before(end); ts = ts.Add(time.Minute) {
			frac := 1 - float64(end.Sub(ts))/float64(dur)
			day.Records = append(day.Records, trace.Record{Time: trace.InstantOf(ts), Pos: geo.Lerp(from, to, frac)})
		}
	}
	stay(home, 1.5)
	commute(home, office)
	stay(office, 8)
	commute(office, home)
	stay(home, 2)

	extractor, err := poi.NewStayPoints(poi.StayPointConfig{})
	if err != nil {
		fmt.Println(err)
		return
	}
	places := poi.Merge(extractor.Extract(day), 250)
	for _, p := range places {
		kind := "office"
		if geo.Distance(p.Center, home) < 250 {
			kind = "home"
		}
		fmt.Printf("%s: dwell %s\n", kind, p.Dwell().Round(time.Hour))
	}
	// Output:
	// home: dwell 12h0m0s
	// office: dwell 8h0m0s
}
