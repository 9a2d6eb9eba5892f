package mobgen

import (
	"testing"
	"time"

	"apisense/internal/geo"
)

func smallConfig() Config {
	return Config{Seed: 42, Users: 5, Days: 3}
}

func TestValidate(t *testing.T) {
	tests := []struct {
		name string
		cfg  Config
		ok   bool
	}{
		{"good", Config{Users: 1, Days: 1}, true},
		{"no users", Config{Users: 0, Days: 1}, false},
		{"no days", Config{Users: 1, Days: 0}, false},
		{"bad dropout", Config{Users: 1, Days: 1, Dropout: 1.5}, false},
		{"negative dropout", Config{Users: 1, Days: 1, Dropout: -0.1}, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.cfg.Validate()
			if (err == nil) != tt.ok {
				t.Errorf("Validate() error = %v, want ok=%v", err, tt.ok)
			}
		})
	}
}

func TestGenerateShape(t *testing.T) {
	ds, city, err := Generate(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if got := len(ds.Users()); got != 5 {
		t.Errorf("users = %d, want 5", got)
	}
	if ds.Len() != 5*3 {
		t.Errorf("trajectories = %d, want 15 (one per user per day)", ds.Len())
	}
	if err := ds.Validate(); err != nil {
		t.Errorf("dataset invalid: %v", err)
	}
	if len(city.Residents) != 5 {
		t.Errorf("residents = %d, want 5", len(city.Residents))
	}
	for _, r := range city.Residents {
		if len(r.TruePOIs()) != 3 {
			t.Errorf("resident %s has %d true POIs", r.User, len(r.TruePOIs()))
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, _, err := Generate(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := Generate(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if a.NumRecords() != b.NumRecords() {
		t.Fatalf("record counts differ: %d vs %d", a.NumRecords(), b.NumRecords())
	}
	for i := range a.Trajectories {
		ra, rb := a.Trajectories[i].Records, b.Trajectories[i].Records
		for j := range ra {
			if ra[j] != rb[j] {
				t.Fatalf("trajectory %d record %d differs: %+v vs %+v", i, j, ra[j], rb[j])
			}
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	cfg := smallConfig()
	a, _, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Seed = 43
	b, _, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	same := a.NumRecords() == b.NumRecords()
	if same {
		// Same counts can coincide; positions must not.
		pa := a.Trajectories[0].Records[0].Pos
		pb := b.Trajectories[0].Records[0].Pos
		if pa == pb {
			t.Error("different seeds produced identical first fixes")
		}
	}
}

func TestResidentsStayInCity(t *testing.T) {
	cfg := smallConfig()
	cfg.Users = 20
	ds, city, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Every fix must lie within the city radius plus slack for GPS noise.
	limit := city.Radius*1.05 + 100
	for _, tr := range ds.Trajectories {
		for _, r := range tr.Records {
			if d := geo.Distance(city.Center, r.Pos); d > limit {
				t.Fatalf("fix %v is %f m from centre (limit %f)", r.Pos, d, limit)
			}
		}
	}
}

func TestWeekdayRoutineVisitsWork(t *testing.T) {
	cfg := smallConfig()
	cfg.GPSNoise = -1 // disable noise for exact matching
	ds, city, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// 2014-12-08 is a Monday: the first trajectory of each user is a
	// weekday; the user must pass within 50 m of their workplace.
	byUser := ds.ByUser()
	for _, res := range city.Residents {
		monday := byUser[res.User][0]
		closest := 1e18
		for _, r := range monday.Records {
			if d := geo.Distance(r.Pos, res.Work); d < closest {
				closest = d
			}
		}
		if closest > 50 {
			t.Errorf("%s never approached workplace (closest %f m)", res.User, closest)
		}
	}
}

func TestNightIsAtHome(t *testing.T) {
	cfg := smallConfig()
	cfg.GPSNoise = -1
	ds, city, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range ds.Trajectories {
		res, ok := city.Resident(tr.User)
		if !ok {
			t.Fatalf("unknown user %s", tr.User)
		}
		for _, r := range tr.Records {
			h := r.Time.Time().Hour()
			if h >= 2 && h < 6 { // deep night
				if d := geo.Distance(r.Pos, res.Home); d > 30 {
					t.Fatalf("%s at %v is %f m from home at night", tr.User, r.Time, d)
				}
			}
		}
	}
}

func TestDropoutReducesRecords(t *testing.T) {
	cfg := smallConfig()
	full, _, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Dropout = 0.5
	half, _, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(half.NumRecords()) / float64(full.NumRecords())
	if ratio < 0.4 || ratio > 0.6 {
		t.Errorf("dropout 0.5 kept %.2f of records, want ~0.5", ratio)
	}
}

func TestSamplePeriodControlsDensity(t *testing.T) {
	cfg := smallConfig()
	cfg.SamplePeriod = 30 * time.Second
	fine, _, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.SamplePeriod = 2 * time.Minute
	coarse, _, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if fine.NumRecords() <= coarse.NumRecords()*3 {
		t.Errorf("30s sampling (%d records) should be ~4x denser than 2m (%d)",
			fine.NumRecords(), coarse.NumRecords())
	}
}

func TestCityResidentLookup(t *testing.T) {
	_, city, err := Generate(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := city.Resident("user-000"); !ok {
		t.Error("user-000 should exist")
	}
	if _, ok := city.Resident("nobody"); ok {
		t.Error("unknown user should not resolve")
	}
}

func TestSpeedsAreHuman(t *testing.T) {
	cfg := smallConfig()
	cfg.GPSNoise = -1
	ds, _, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range ds.Trajectories {
		for _, v := range tr.Speeds() {
			if v > 15 { // fastest generated mode is ~13 m/s
				t.Fatalf("unrealistic speed %f m/s", v)
			}
		}
	}
}
