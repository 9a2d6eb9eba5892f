package apisense

// Facade-level integration test: the complete Figure-1 story through the
// public API only — Hive over real HTTP, Honeycomb deployment, filtered
// devices executing a SenseScript task, collection, PRIVAPI release, and
// finally the attacker's view of that release.

import (
	"context"
	"net/http/httptest"
	"strings"
	"testing"

	"apisense/internal/filter"
)

const integrationScript = `
var saved = 0;
sensor.gps.onLocationChanged(function(loc) {
  saved += 1;
  dataset.save({lat: loc.lat, lon: loc.lon, speed: loc.speed});
});
`

func TestPlatformIntegration(t *testing.T) {
	// 1. Synthetic contributors.
	raw, city, err := GenerateMobility(MobilityConfig{Seed: 61, Users: 8, Days: 2})
	if err != nil {
		t.Fatal(err)
	}
	byUser := raw.ByUser()

	// 2. Hive over HTTP.
	h := NewHive()
	srv := httptest.NewServer(NewHiveServer(h))
	defer srv.Close()

	// 3. Devices with home-zone filters register.
	var devices []*Device
	for _, res := range city.Residents {
		chain := NewFilterChain(&filter.ZoneExclusion{
			Centers: []Point{res.Home}, Radius: 300,
		})
		d, err := NewDevice(DeviceConfig{
			ID: res.User + "-phone", User: res.User,
			Movement: byUser[res.User][0], Filter: chain,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := h.RegisterDevice(d.Info()); err != nil {
			t.Fatal(err)
		}
		devices = append(devices, d)
	}

	// 4. Honeycomb deploys the task.
	hc, err := NewHoneycomb("integration-lab", srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	spec, recruited, err := hc.Deploy(ctx, TaskSpec{
		Name: "integration", Script: integrationScript,
		PeriodSeconds: 120, Sensors: []string{"gps"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(recruited) != len(devices) {
		t.Fatalf("recruited %d of %d devices", len(recruited), len(devices))
	}

	// 5. Devices pull, execute and upload.
	totalDropped := 0
	for _, d := range devices {
		tasks, err := h.TasksFor(d.ID())
		if err != nil {
			t.Fatal(err)
		}
		if len(tasks) != 1 {
			t.Fatalf("device %s sees %d tasks", d.ID(), len(tasks))
		}
		res, err := d.RunTask(tasks[0])
		if err != nil {
			t.Fatal(err)
		}
		totalDropped += res.Dropped
		if err := h.SubmitUpload(res.Upload); err != nil {
			t.Fatal(err)
		}
	}
	if totalDropped == 0 {
		t.Error("home-zone filters dropped nothing; filter chain not active?")
	}

	// 6. Collect and rebuild the mobility dataset.
	if _, err := hc.Collect(ctx, spec.ID); err != nil {
		t.Fatal(err)
	}
	users, err := hc.DeviceUsers(ctx)
	if err != nil {
		t.Fatal(err)
	}
	collected := hc.BuildDataset(spec.ID, users)
	if collected.Len() != len(devices) {
		t.Fatalf("collected %d trajectories for %d devices", collected.Len(), len(devices))
	}
	// The filter already removed everything near homes.
	for _, trj := range collected.Trajectories {
		res, ok := city.Resident(trj.User)
		if !ok {
			t.Fatalf("unknown contributor %s", trj.User)
		}
		for _, rec := range trj.Records {
			if Distance(rec.Pos, res.Home) <= 300 {
				t.Fatalf("record inside %s's home zone leaked to the hive", trj.User)
			}
		}
	}

	// 7. PRIVAPI release on top.
	release, selection, err := hc.PublishPrivateContext(context.Background(), collected, PrivacyConfig{
		PseudonymKey: []byte("integration-release"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if selection.Chosen == "" {
		t.Fatal("no strategy selected")
	}
	for _, trj := range release.Trajectories {
		if strings.HasPrefix(trj.User, "user-") {
			t.Fatal("release leaks contributor ids")
		}
	}

	// 8. The attacker's view of the release: exposure must be bounded by
	// the default floor.
	wide, err := NewStayPoints(StayPointConfig{MaxDistance: 500})
	if err != nil {
		t.Fatal(err)
	}
	atk, err := NewPOIRecovery(wide, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	pseud, err := NewPseudonymizer([]byte("integration-release"))
	if err != nil {
		t.Fatal(err)
	}
	truth := make(map[string][]Point)
	for _, res := range city.Residents {
		truth[pseud.Pseudonym(res.User)] = res.TruePOIs()
	}
	exposure := atk.Run(truth, release)
	if exposure.F1() > 0.4 {
		t.Errorf("release exposure f1 = %.2f, above the floor regime: %v", exposure.F1(), exposure)
	}

	// 9. Hive bookkeeping is consistent.
	stats := h.Stats()
	if stats.Devices != len(devices) || stats.Tasks != 1 || stats.Uploads != len(devices) {
		t.Errorf("hive stats = %+v", stats)
	}
}
