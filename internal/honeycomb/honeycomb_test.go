package honeycomb

import (
	"context"
	"errors"
	"math"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"apisense/internal/core"
	"apisense/internal/device"
	"apisense/internal/geo"
	"apisense/internal/hive"
	"apisense/internal/mobgen"
	"apisense/internal/trace"
	"apisense/internal/transport"
)

const gpsTask = `
sensor.gps.onLocationChanged(function(loc) {
  dataset.save({lat: loc.lat, lon: loc.lon});
});
`

// platform spins up a Hive HTTP server with simulated devices following
// generated mobility, returning the honeycomb, devices, ground truth and
// the Hive base URL.
func platform(t *testing.T, users, days int) (*Honeycomb, []*device.Device, *mobgen.City, string) {
	t.Helper()
	ds, city, err := mobgen.Generate(mobgen.Config{
		Seed: 31, Users: users, Days: days,
	})
	if err != nil {
		t.Fatal(err)
	}
	h := hive.New()
	srv := httptest.NewServer(hive.NewServer(h))
	t.Cleanup(srv.Close)

	// One device per user, following that user's first-day movement.
	byUser := ds.ByUser()
	var devices []*device.Device
	for i, res := range city.Residents {
		move := byUser[res.User][0]
		d, err := device.New(device.Config{
			ID: res.User + "-phone", User: res.User, Movement: move,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := h.RegisterDevice(d.Info()); err != nil {
			t.Fatal(err)
		}
		devices = append(devices, d)
		_ = i
	}

	hc, err := New("lab", srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	return hc, devices, city, srv.URL
}

func TestNewValidation(t *testing.T) {
	if _, err := New("", "http://x"); err == nil {
		t.Error("empty name should fail")
	}
	if _, err := New("lab", ""); err == nil {
		t.Error("empty hive URL should fail")
	}
}

func TestEndToEndCollection(t *testing.T) {
	hc, devices, _, hiveURL := platform(t, 4, 1)
	ctx := context.Background()

	spec := transport.TaskSpec{
		Name: "gps-collect", Script: gpsTask,
		PeriodSeconds: 120, Sensors: []string{"gps"},
	}
	published, recruited, err := hc.Deploy(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if published.Author != "lab" {
		t.Errorf("author = %q", published.Author)
	}
	if len(recruited) != 4 {
		t.Fatalf("recruited %d devices, want 4", len(recruited))
	}

	// Devices execute and upload through the client path.
	cl := transport.NewClient(hiveURL)
	for _, d := range devices {
		res, err := d.RunTask(published)
		if err != nil {
			t.Fatal(err)
		}
		if err := cl.Do(ctx, "POST", "/api/uploads", res.Upload, nil); err != nil {
			t.Fatal(err)
		}
	}

	ups, err := hc.Collect(ctx, published.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(ups) != 4 {
		t.Fatalf("collected %d uploads, want 4", len(ups))
	}
	if hc.Store().Records() == 0 {
		t.Error("store is empty")
	}
	if got := hc.Store().Tasks(); len(got) != 1 || got[0] != published.ID {
		t.Errorf("store tasks = %v", got)
	}

	users, err := hc.DeviceUsers(ctx)
	if err != nil {
		t.Fatal(err)
	}
	ds := hc.BuildDataset(published.ID, users)
	if ds.Len() != 4 {
		t.Fatalf("dataset has %d trajectories, want 4", ds.Len())
	}
	for _, tr := range ds.Trajectories {
		if !strings.HasPrefix(tr.User, "user-") {
			t.Errorf("trajectory user = %q, want contributor id", tr.User)
		}
		if err := tr.Validate(); err != nil {
			t.Errorf("trajectory invalid: %v", err)
		}
		if tr.Len() < 100 {
			t.Errorf("trajectory has only %d records", tr.Len())
		}
	}
}

func TestUploadsToDataset(t *testing.T) {
	ups := []transport.Upload{
		{DeviceID: "d1", Records: []transport.UploadRecord{
			{Sensor: "gps", TimeMillis: 2000, Data: map[string]any{"lat": 45.7, "lon": 4.8}},
			{Sensor: "gps", TimeMillis: 1000, Data: map[string]any{"lat": 45.71, "lon": 4.81}},
			{Sensor: "battery", TimeMillis: 1500, Data: map[string]any{"level": 90.0}},
		}},
		{DeviceID: "d2", Records: []transport.UploadRecord{
			{Sensor: "gps", TimeMillis: 1000, Data: map[string]any{"lat": 45.9, "lon": 4.9}},
		}},
		{DeviceID: "empty", Records: nil},
		// Only the fixes at the first and last milliseconds an Instant
		// holds survive: positions off the globe and times past them are
		// skipped as non-GPS records are.
		{DeviceID: "d3", Records: []transport.UploadRecord{
			{Sensor: "gps", TimeMillis: 1000, Data: map[string]any{"lat": 500.0, "lon": 4.8}},
			{Sensor: "gps", TimeMillis: 1000, Data: map[string]any{"lat": 45.7, "lon": -200.0}},
			{Sensor: "gps", TimeMillis: 1000, Data: map[string]any{"lat": math.NaN(), "lon": 4.8}},
			{Sensor: "gps", TimeMillis: 9223372036855, Data: map[string]any{"lat": 45.7, "lon": 4.8}},
			{Sensor: "gps", TimeMillis: -9223372036855, Data: map[string]any{"lat": 45.7, "lon": 4.8}},
			{Sensor: "gps", TimeMillis: 10413792000000, Data: map[string]any{"lat": 45.7, "lon": 4.8}}, // 2300-01-01
			{Sensor: "gps", TimeMillis: 9223372036854, Data: map[string]any{"lat": 45.7, "lon": 4.8}},
			{Sensor: "gps", TimeMillis: -9223372036854, Data: map[string]any{"lat": -90.0, "lon": 180.0}},
		}},
		{DeviceID: "d4", Records: []transport.UploadRecord{
			{Sensor: "gps", TimeMillis: 1000, Data: map[string]any{"lat": 91.0, "lon": 4.8}},
		}},
	}
	ds := UploadsToDataset(ups, map[string]string{"d1": "alice"})
	if ds.Len() != 3 {
		t.Fatalf("dataset has %d trajectories, want 3", ds.Len())
	}
	d3 := ds.Trajectories[2]
	want := []trace.Record{
		{Time: trace.Instant(-9223372036854 * 1e6), Pos: geo.Point{Lat: -90, Lon: 180}},
		{Time: trace.Instant(9223372036854 * 1e6), Pos: geo.Point{Lat: 45.7, Lon: 4.8}},
	}
	if d3.User != "d3" || !reflect.DeepEqual(d3.Records, want) {
		t.Errorf("d3 = %s %v, want the two in-range valid fixes %v", d3.User, d3.Records, want)
	}
	// d1: records sorted by time, battery skipped.
	if ds.Trajectories[0].User != "alice" || ds.Trajectories[0].Len() != 2 {
		t.Errorf("first trajectory = %s/%d", ds.Trajectories[0].User, ds.Trajectories[0].Len())
	}
	if ds.Trajectories[0].Records[0].Time >= ds.Trajectories[0].Records[1].Time {
		t.Error("records not sorted")
	}
	// d2 falls back to device id.
	if ds.Trajectories[1].User != "d2" {
		t.Errorf("fallback user = %q", ds.Trajectories[1].User)
	}
}

func TestPublishPrivateIntegration(t *testing.T) {
	// Full pipeline: synthetic dataset -> PRIVAPI -> protected release.
	ds, _, err := mobgen.Generate(mobgen.Config{Seed: 33, Users: 6, Days: 3})
	if err != nil {
		t.Fatal(err)
	}
	hc, err := New("lab", "http://unused")
	if err != nil {
		t.Fatal(err)
	}
	release, sel, err := hc.PublishPrivateContext(context.Background(), ds, core.Config{PseudonymKey: []byte("r1")})
	if err != nil {
		t.Fatal(err)
	}
	if sel.Chosen == "" {
		t.Fatal("no strategy chosen")
	}
	if release.Len() == 0 {
		t.Fatal("empty release")
	}
	for _, tr := range release.Trajectories {
		if strings.HasPrefix(tr.User, "user-") {
			t.Fatal("release leaks raw user ids")
		}
	}
	// Publishing an empty dataset fails cleanly.
	if _, _, err := hc.PublishPrivateContext(context.Background(), trace.NewDataset(), core.Config{}); err == nil {
		t.Error("empty dataset should fail")
	}
}

// TestPublishPrivateSharded: the sharded hook partitions the collected
// dataset, publishes per shard and merges, with the same floor guarantee in
// every released shard.
func TestPublishPrivateSharded(t *testing.T) {
	ds, _, err := mobgen.Generate(mobgen.Config{Seed: 34, Users: 8, Days: 4})
	if err != nil {
		t.Fatal(err)
	}
	hc, err := New("lab", "http://unused")
	if err != nil {
		t.Fatal(err)
	}
	policy, err := core.ShardPolicyFromSpec("window:dur=48h")
	if err != nil {
		t.Fatal(err)
	}
	release, sel, err := hc.PublishPrivateShardedContext(context.Background(), ds,
		core.Config{PseudonymKey: []byte("sharded")}, policy)
	if err != nil {
		t.Fatal(err)
	}
	if len(sel.Shards) < 2 {
		t.Fatalf("%d shards, want >= 2 on a 4-day collection", len(sel.Shards))
	}
	if release.Len() != sel.Released || release.Len() == 0 {
		t.Fatalf("release has %d trajectories, report says %d", release.Len(), sel.Released)
	}
	if sel.WorstExposure > sel.Floor {
		t.Errorf("worst shard exposure %.3f above floor %.3f", sel.WorstExposure, sel.Floor)
	}
	for _, tr := range release.Trajectories {
		if strings.HasPrefix(tr.User, "user-") {
			t.Fatal("sharded release leaks raw user ids")
		}
	}
	// Invalid config surfaces cleanly.
	if _, _, err := hc.PublishPrivateShardedContext(context.Background(), ds,
		core.Config{MaxPOIExposure: 3}, policy); err == nil {
		t.Error("invalid config should fail")
	}
}

func TestPublishPrivateContextCancelled(t *testing.T) {
	ds, _, err := mobgen.Generate(mobgen.Config{Seed: 33, Users: 6, Days: 3})
	if err != nil {
		t.Fatal(err)
	}
	hc, err := New("lab", "http://unused")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := hc.PublishPrivateContext(ctx, ds, core.Config{}); !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

func TestStoreIdempotentCollect(t *testing.T) {
	s := NewStore()
	ups := []transport.Upload{{TaskID: "t", DeviceID: "d", Records: []transport.UploadRecord{{Sensor: "gps"}}}}
	s.AddUploads("t", ups)
	s.AddUploads("t", ups) // re-collect: replaces, not duplicates
	if got := len(s.Uploads("t")); got != 1 {
		t.Errorf("stored %d uploads, want 1", got)
	}
	if s.Records() != 1 {
		t.Errorf("records = %d, want 1", s.Records())
	}
}
