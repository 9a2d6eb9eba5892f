package mobgen

import (
	"testing"
	"time"

	"apisense/internal/geo"
)

// TestWeekendSkipsWork verifies the agenda model's weekday/weekend split:
// on Saturdays and Sundays, residents must not dwell at their workplace
// during office hours.
func TestWeekendSkipsWork(t *testing.T) {
	cfg := Config{Seed: 42, Users: 8, Days: 7, GPSNoise: -1} // Mon 8 Dec - Sun 14 Dec
	ds, city, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range ds.Trajectories {
		start, err := tr.Start()
		if err != nil {
			t.Fatal(err)
		}
		wd := start.UTC().Weekday()
		if wd != time.Saturday && wd != time.Sunday {
			continue
		}
		res, ok := city.Resident(tr.User)
		if !ok {
			t.Fatalf("unknown user %s", tr.User)
		}
		// Count office-hour fixes within 30 m of the workplace: a dwell
		// would produce dozens; passing through produces a handful.
		atWork := 0
		for _, r := range tr.Records {
			h := r.Time.Time().Hour()
			if h >= 10 && h < 16 && geo.Distance(r.Pos, res.Work) < 30 {
				atWork++
			}
		}
		if atWork > 10 {
			t.Errorf("%s spent %d office-hour fixes at work on %s", tr.User, atWork, wd)
		}
	}
}

// TestWeekdayMorningCommute verifies commute structure: weekday moving
// fixes exist between home departure and work arrival.
func TestWeekdayMorningCommute(t *testing.T) {
	cfg := Config{Seed: 9, Users: 5, Days: 1, GPSNoise: -1} // Monday
	ds, city, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range ds.Trajectories {
		res, _ := city.Resident(tr.User)
		if geo.Distance(res.Home, res.Work) < 500 {
			continue // commute too short to observe reliably
		}
		moving := 0
		for i := 1; i < tr.Len(); i++ {
			h := tr.Records[i].Time.Time().Hour()
			if h < 7 || h > 10 {
				continue
			}
			dt := tr.Records[i].Time.Sub(tr.Records[i-1].Time).Seconds()
			if dt <= 0 {
				continue
			}
			if geo.Distance(tr.Records[i-1].Pos, tr.Records[i].Pos)/dt > 0.7 {
				moving++
			}
		}
		if moving == 0 {
			t.Errorf("%s has no morning commute movement", tr.User)
		}
	}
}

// TestGroundTruthSitesDistinct ensures homes are unique per user (the
// attack experiments rely on homes being identifying).
func TestGroundTruthSitesDistinct(t *testing.T) {
	_, city, err := Generate(Config{Seed: 4, Users: 30, Days: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := range city.Residents {
		for j := i + 1; j < len(city.Residents); j++ {
			d := geo.Distance(city.Residents[i].Home, city.Residents[j].Home)
			if d < 1 {
				t.Fatalf("residents %d and %d share a home", i, j)
			}
		}
	}
}
