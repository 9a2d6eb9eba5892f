package device

import (
	"errors"
	"strings"
	"testing"
	"time"

	"apisense/internal/filter"
	"apisense/internal/geo"
	"apisense/internal/trace"
	"apisense/internal/transport"
)

var (
	lyon = geo.Point{Lat: 45.7640, Lon: 4.8357}
	t0   = time.Date(2014, 12, 8, 9, 0, 0, 0, time.UTC)
)

// movement builds a one-hour eastbound walk at 1.5 m/s, one point a minute.
func movement() *trace.Trajectory {
	tr := &trace.Trajectory{User: "alice"}
	for i := 0; i <= 60; i++ {
		tr.Records = append(tr.Records, trace.Record{
			Time: trace.InstantOf(t0.Add(time.Duration(i) * time.Minute)),
			Pos:  geo.Translate(lyon, 90*float64(i), 0),
		})
	}
	return tr
}

const gpsTask = `
sensor.gps.onLocationChanged(function(loc) {
  dataset.save({lat: loc.lat, lon: loc.lon, speed: loc.speed});
});
`

func newDevice(t *testing.T, cfg Config) *Device {
	t.Helper()
	if cfg.ID == "" {
		cfg.ID = "dev-1"
	}
	if cfg.User == "" {
		cfg.User = "alice"
	}
	if cfg.Movement == nil {
		cfg.Movement = movement()
	}
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func spec(scriptSrc string, period int) transport.TaskSpec {
	return transport.TaskSpec{
		ID: "t-1", Name: "test-task", Author: "lab",
		Script: scriptSrc, PeriodSeconds: period, Sensors: []string{"gps"},
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{User: "u", Movement: movement()}); err == nil {
		t.Error("missing ID should fail")
	}
	if _, err := New(Config{ID: "d", Movement: movement()}); err == nil {
		t.Error("missing User should fail")
	}
	if _, err := New(Config{ID: "d", User: "u"}); err == nil {
		t.Error("missing Movement should fail")
	}
	short := &trace.Trajectory{User: "u", Records: movement().Records[:1]}
	if _, err := New(Config{ID: "d", User: "u", Movement: short}); err == nil {
		t.Error("single-record movement should fail")
	}
}

func TestRunTaskCollectsGPS(t *testing.T) {
	d := newDevice(t, Config{})
	res, err := d.RunTask(spec(gpsTask, 60))
	if err != nil {
		t.Fatal(err)
	}
	// One fix a minute over one hour: 61 ticks.
	if res.Ticks != 61 {
		t.Errorf("ticks = %d, want 61", res.Ticks)
	}
	if len(res.Upload.Records) != 61 {
		t.Fatalf("records = %d, want 61", len(res.Upload.Records))
	}
	first := res.Upload.Records[0]
	if first.Sensor != "gps" {
		t.Errorf("sensor = %q", first.Sensor)
	}
	if lat, ok := first.Data["lat"].(float64); !ok || lat == 0 {
		t.Errorf("lat = %v", first.Data["lat"])
	}
	// Speed is ~1.5 m/s after the first tick.
	v, ok := res.Upload.Records[5].Data["speed"].(float64)
	if !ok || v < 1.2 || v > 1.8 {
		t.Errorf("speed = %v, want ~1.5", v)
	}
}

func TestRunTaskValidatesSpec(t *testing.T) {
	d := newDevice(t, Config{})
	bad := spec(gpsTask, 0)
	if _, err := d.RunTask(bad); err == nil {
		t.Error("zero period should fail")
	}
}

func TestRunTaskSensorOptOut(t *testing.T) {
	d := newDevice(t, Config{SharedSensors: []string{"battery"}})
	_, err := d.RunTask(spec(gpsTask, 60))
	if !errors.Is(err, ErrSensorsNotShared) {
		t.Errorf("err = %v, want ErrSensorsNotShared", err)
	}
}

func TestRunTaskScriptErrorSurfaces(t *testing.T) {
	d := newDevice(t, Config{})
	if _, err := d.RunTask(spec("this is not a script", 60)); err == nil {
		t.Error("syntax error should surface")
	}
	bad := `sensor.gps.onLocationChanged(function(loc) { boom(); });`
	if _, err := d.RunTask(spec(bad, 60)); err == nil {
		t.Error("handler runtime error should surface")
	}
}

func TestMaxRecordsCap(t *testing.T) {
	d := newDevice(t, Config{})
	s := spec(gpsTask, 60)
	s.MaxRecords = 10
	res, err := d.RunTask(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Upload.Records) != 10 {
		t.Errorf("records = %d, want 10 (capped)", len(res.Upload.Records))
	}
}

func TestFilterChainApplied(t *testing.T) {
	// Zone exclusion around the start point: early fixes dropped.
	chain := filter.NewChain(&filter.ZoneExclusion{
		Centers: []geo.Point{lyon},
		Radius:  1000,
	})
	d := newDevice(t, Config{Filter: chain})
	res, err := d.RunTask(spec(gpsTask, 60))
	if err != nil {
		t.Fatal(err)
	}
	// 90 m/min: fixes within 1000 m of start = t0..t11 (12 fixes) dropped.
	if res.Dropped < 10 {
		t.Errorf("dropped = %d, want >= 10", res.Dropped)
	}
	if len(res.Upload.Records)+res.Dropped != res.Ticks {
		t.Errorf("records+dropped = %d, want %d ticks",
			len(res.Upload.Records)+res.Dropped, res.Ticks)
	}
	for _, r := range res.Upload.Records {
		pos := geo.Point{Lat: r.Data["lat"].(float64), Lon: r.Data["lon"].(float64)}
		if geo.Distance(pos, lyon) <= 1000 {
			t.Fatalf("record inside excluded zone leaked: %v", pos)
		}
	}
}

func TestBatteryDrainsAndKillsRun(t *testing.T) {
	b := NewBattery(1) // nearly dead
	b.DrainPerFix = 0.1
	d := newDevice(t, Config{Battery: b})
	res, err := d.RunTask(spec(gpsTask, 60))
	if err != nil {
		t.Fatal(err)
	}
	if !d.Battery().Dead() {
		t.Errorf("battery = %v, want dead", d.Battery().Level())
	}
	if res.Ticks >= 61 {
		t.Errorf("run should stop early, got %d ticks", res.Ticks)
	}
	foundLog := false
	for _, l := range res.Upload.Logs {
		if strings.Contains(l, "battery exhausted") {
			foundLog = true
		}
	}
	if !foundLog {
		t.Error("battery exhaustion not logged")
	}
}

func TestBatteryModel(t *testing.T) {
	b := NewBattery(150)
	if b.Level() != 100 {
		t.Errorf("level clamped to %v, want 100", b.Level())
	}
	b.Drain(30)
	if b.Level() != 70 {
		t.Errorf("level = %v, want 70", b.Level())
	}
	b.Drain(-5) // ignored
	if b.Level() != 70 {
		t.Errorf("negative drain changed level to %v", b.Level())
	}
	b.Drain(1000)
	if !b.Dead() || b.Level() != 0 {
		t.Errorf("level = %v, want 0/dead", b.Level())
	}
	if NewBattery(-5).Level() != 0 {
		t.Error("negative init not clamped")
	}
}

func TestScheduleEveryTimer(t *testing.T) {
	src := `
var n = 0;
schedule.every(300, function() {
  n += 1;
  dataset.save({sensor: 'battery', level: sensor.battery.level(), tick: n});
});
`
	d := newDevice(t, Config{})
	s := spec(src, 60)
	s.Sensors = []string{"battery"}
	res, err := d.RunTask(s)
	if err != nil {
		t.Fatal(err)
	}
	// One hour, 5-minute timer, first firing after one period: ~11.
	if n := len(res.Upload.Records); n < 10 || n > 12 {
		t.Errorf("timer fired %d times, want ~11", n)
	}
	if res.Upload.Records[0].Sensor != "battery" {
		t.Errorf("sensor = %q", res.Upload.Records[0].Sensor)
	}
	if lvl := res.Upload.Records[0].Data["level"].(float64); lvl <= 0 || lvl > 100 {
		t.Errorf("level = %v", lvl)
	}
}

func TestNetworkSignalDeterministicAndBounded(t *testing.T) {
	src := `
sensor.gps.onLocationChanged(function(loc) {
  dataset.save({sensor: 'network', lat: loc.lat, lon: loc.lon, signal: sensor.network.signal()});
});
`
	run := func() []transport.UploadRecord {
		d := newDevice(t, Config{})
		s := spec(src, 60)
		s.Sensors = []string{"gps", "network"}
		res, err := d.RunTask(s)
		if err != nil {
			t.Fatal(err)
		}
		return res.Upload.Records
	}
	a := run()
	b := run()
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("runs differ in size: %d vs %d", len(a), len(b))
	}
	varied := false
	for i := range a {
		sa := a[i].Data["signal"].(float64)
		sb := b[i].Data["signal"].(float64)
		if sa != sb {
			t.Fatal("network signal not deterministic")
		}
		if sa < 0 || sa > 1 {
			t.Fatalf("signal %v out of [0,1]", sa)
		}
		if i > 0 && a[i].Data["signal"] != a[0].Data["signal"] {
			varied = true
		}
	}
	if !varied {
		t.Error("signal constant along the path; should vary spatially")
	}
}

func TestInfoAndAccessors(t *testing.T) {
	d := newDevice(t, Config{})
	info := d.Info()
	if info.ID != "dev-1" || info.User != "alice" {
		t.Errorf("info = %+v", info)
	}
	if info.Battery != 100 {
		t.Errorf("battery = %v", info.Battery)
	}
	if len(info.Sensors) != len(AllSensors) {
		t.Errorf("sensors = %v", info.Sensors)
	}
	if info.Lat == 0 || info.Lon == 0 {
		t.Error("registration position missing")
	}
	if d.ID() != "dev-1" || d.User() != "alice" {
		t.Error("accessors wrong")
	}
}

func TestSampleAt(t *testing.T) {
	d := newDevice(t, Config{})
	rec, ok := d.SampleAt(t0.Add(30 * time.Minute))
	if !ok {
		t.Fatal("sample failed")
	}
	if rec.Sensor != "gps" || rec.Data["lat"] == nil {
		t.Errorf("sample = %+v", rec)
	}
	if _, ok := d.SampleAt(t0.Add(-time.Hour)); ok {
		t.Error("sampling before movement should fail")
	}
	dead := newDevice(t, Config{ID: "dev-2", Battery: NewBattery(0)})
	if _, ok := dead.SampleAt(t0.Add(time.Minute)); ok {
		t.Error("dead device sampled")
	}
}

func TestLogBuiltin(t *testing.T) {
	d := newDevice(t, Config{})
	src := `log('starting', 42); sensor.gps.onLocationChanged(function(l){});`
	res, err := d.RunTask(spec(src, 60))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Upload.Logs) == 0 || res.Upload.Logs[0] != "starting 42" {
		t.Errorf("logs = %v", res.Upload.Logs)
	}
}
