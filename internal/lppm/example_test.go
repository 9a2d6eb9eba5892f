package lppm_test

import (
	"fmt"
	"time"

	"apisense/internal/geo"
	"apisense/internal/lppm"
	"apisense/internal/trace"
)

// ExampleSpeedSmoothing demonstrates the paper's algorithm on a toy day:
// a long dwell followed by a trip becomes a constant-speed trace.
func ExampleSpeedSmoothing() {
	home := geo.Point{Lat: 45.7640, Lon: 4.8357}
	start := time.Date(2014, 12, 8, 0, 0, 0, 0, time.UTC)

	day := &trace.Trajectory{User: "alice"}
	// Eight hours parked at home...
	for i := 0; i < 8*60; i++ {
		day.Records = append(day.Records, trace.Record{
			Time: trace.InstantOf(start.Add(time.Duration(i) * time.Minute)), Pos: home,
		})
	}
	// ...then a 6 km trip east over one hour.
	for i := 0; i <= 60; i++ {
		day.Records = append(day.Records, trace.Record{
			Time: trace.InstantOf(start.Add(8*time.Hour + time.Duration(i)*time.Minute)),
			Pos:  geo.Translate(home, float64(i)*100, 0),
		})
	}

	smoothing, err := lppm.NewSpeedSmoothing(500, 1)
	if err != nil {
		fmt.Println(err)
		return
	}
	released, err := smoothing.Protect(nil, day)
	if err != nil {
		fmt.Println(err)
		return
	}
	gap := released[1].Time.Sub(released[0].Time)
	fmt.Printf("mechanism: %s\n", smoothing.Name())
	fmt.Printf("input: %d fixes over %s, 8h of them parked\n", day.Len(), day.Duration())
	fmt.Printf("release: %d fixes, uniform %s apart — the dwell is gone\n",
		len(released), gap.Round(time.Minute))
	// Output:
	// mechanism: smoothing(eps=500,trim=1)
	// input: 541 fixes over 9h0m0s, 8h of them parked
	// release: 10 fixes, uniform 1h0m0s apart — the dwell is gone
}

// ExampleFromSpec shows the textual mechanism specs used by the privapi
// command-line tool and task manifests.
func ExampleFromSpec() {
	for _, spec := range []string{"smoothing:eps=100", "geoind:eps=0.01", "cloaking:cell=400"} {
		m, err := lppm.FromSpec(spec)
		if err != nil {
			fmt.Println(err)
			continue
		}
		fmt.Println(m.Name())
	}
	// Output:
	// smoothing(eps=100,trim=2)
	// geoind(eps=0.01)
	// cloaking(cell=400)
}
