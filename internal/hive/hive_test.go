package hive

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"testing"

	"apisense/internal/transport"
)

func deviceInfo(id, user string, lat, lon float64, sensors ...string) transport.DeviceInfo {
	if sensors == nil {
		sensors = []string{"gps", "battery"}
	}
	return transport.DeviceInfo{ID: id, User: user, Sensors: sensors, Battery: 90, Lat: lat, Lon: lon}
}

func taskSpec(name string, sensors ...string) transport.TaskSpec {
	if sensors == nil {
		sensors = []string{"gps"}
	}
	return transport.TaskSpec{
		Name: name, Author: "lab", Script: "var x = 1;",
		PeriodSeconds: 60, Sensors: sensors,
	}
}

func TestRegisterAndListDevices(t *testing.T) {
	h := New()
	if err := h.RegisterDevice(deviceInfo("d2", "bob", 45.7, 4.8)); err != nil {
		t.Fatal(err)
	}
	if err := h.RegisterDevice(deviceInfo("d1", "alice", 45.7, 4.8)); err != nil {
		t.Fatal(err)
	}
	if err := h.RegisterDevice(transport.DeviceInfo{ID: "", User: "x"}); err == nil {
		t.Error("empty id should fail")
	}
	devs := h.Devices()
	if len(devs) != 2 || devs[0].ID != "d1" || devs[1].ID != "d2" {
		t.Errorf("devices = %+v", devs)
	}
	// Re-register updates.
	upd := deviceInfo("d1", "alice", 45.7, 4.8)
	upd.Battery = 10
	if err := h.RegisterDevice(upd); err != nil {
		t.Fatal(err)
	}
	if h.Devices()[0].Battery != 10 {
		t.Error("re-registration did not update battery")
	}
}

func TestUnregister(t *testing.T) {
	h := New()
	if err := h.RegisterDevice(deviceInfo("d1", "alice", 45.7, 4.8)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := h.PublishTask(taskSpec("t")); err != nil {
		t.Fatal(err)
	}
	if err := h.UnregisterDevice("d1"); err != nil {
		t.Fatal(err)
	}
	if err := h.UnregisterDevice("d1"); !errors.Is(err, ErrUnknownDevice) {
		t.Errorf("err = %v, want ErrUnknownDevice", err)
	}
	if len(h.Devices()) != 0 {
		t.Error("device still listed")
	}
}

func TestPublishRecruitsBySensors(t *testing.T) {
	h := New()
	must(t, h.RegisterDevice(deviceInfo("d1", "alice", 45.7, 4.8, "gps")))
	must(t, h.RegisterDevice(deviceInfo("d2", "bob", 45.7, 4.8, "battery")))
	must(t, h.RegisterDevice(deviceInfo("d3", "carol", 45.7, 4.8, "gps", "battery")))

	spec, recruited, err := h.PublishTask(taskSpec("gps-task", "gps"))
	if err != nil {
		t.Fatal(err)
	}
	if spec.ID == "" {
		t.Error("no task id assigned")
	}
	if len(recruited) != 2 || recruited[0] != "d1" || recruited[1] != "d3" {
		t.Errorf("recruited = %v, want [d1 d3]", recruited)
	}
	// d2 has no assignment.
	tasks, err := h.TasksFor("d2")
	if err != nil {
		t.Fatal(err)
	}
	if len(tasks) != 0 {
		t.Errorf("d2 has %d tasks, want 0", len(tasks))
	}
	tasks, err = h.TasksFor("d1")
	if err != nil {
		t.Fatal(err)
	}
	if len(tasks) != 1 || tasks[0].ID != spec.ID {
		t.Errorf("d1 tasks = %+v", tasks)
	}
}

func TestPublishRecruitsByRegion(t *testing.T) {
	h := New()
	must(t, h.RegisterDevice(deviceInfo("near", "alice", 45.7640, 4.8357)))
	must(t, h.RegisterDevice(deviceInfo("far", "bob", 48.8566, 2.3522))) // Paris

	spec := taskSpec("local")
	spec.Region = &transport.Region{Lat: 45.7640, Lon: 4.8357, Radius: 10000}
	_, recruited, err := h.PublishTask(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(recruited) != 1 || recruited[0] != "near" {
		t.Errorf("recruited = %v, want [near]", recruited)
	}
}

func TestPublishValidationAndNoDevices(t *testing.T) {
	h := New()
	if _, _, err := h.PublishTask(transport.TaskSpec{}); err == nil {
		t.Error("invalid spec should fail")
	}
	if _, _, err := h.PublishTask(taskSpec("t")); !errors.Is(err, ErrNoQualifyingDevices) {
		t.Errorf("err = %v, want ErrNoQualifyingDevices", err)
	}
}

func TestUploadFlow(t *testing.T) {
	h := New()
	must(t, h.RegisterDevice(deviceInfo("d1", "alice", 45.7, 4.8)))
	must(t, h.RegisterDevice(deviceInfo("d9", "eve", 45.7, 4.8)))
	spec, _, err := h.PublishTask(taskSpec("t"))
	if err != nil {
		t.Fatal(err)
	}

	up := transport.Upload{TaskID: spec.ID, DeviceID: "d1", Records: []transport.UploadRecord{
		{Sensor: "gps", TimeMillis: 1418031000000, Data: map[string]any{"lat": 45.7, "lon": 4.8}},
	}}
	if err := h.SubmitUpload(up); err != nil {
		t.Fatal(err)
	}
	// Unknown task / device / unassigned device.
	if err := h.SubmitUpload(transport.Upload{TaskID: "task-9999", DeviceID: "d1"}); !errors.Is(err, ErrUnknownTask) {
		t.Errorf("err = %v, want ErrUnknownTask", err)
	}
	if err := h.SubmitUpload(transport.Upload{TaskID: spec.ID, DeviceID: "ghost"}); !errors.Is(err, ErrUnknownDevice) {
		t.Errorf("err = %v, want ErrUnknownDevice", err)
	}
	h2 := New()
	must(t, h2.RegisterDevice(deviceInfo("solo", "x", 45.7, 4.8)))
	spec2, _, err := h2.PublishTask(taskSpec("t2"))
	if err != nil {
		t.Fatal(err)
	}
	must(t, h2.RegisterDevice(deviceInfo("late", "y", 45.7, 4.8)))
	if err := h2.SubmitUpload(transport.Upload{TaskID: spec2.ID, DeviceID: "late"}); !errors.Is(err, ErrNotAssigned) {
		t.Errorf("err = %v, want ErrNotAssigned", err)
	}

	ups, err := h.Uploads(spec.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(ups) != 1 || len(ups[0].Records) != 1 {
		t.Errorf("uploads = %+v", ups)
	}
	if _, err := h.Uploads("task-404"); !errors.Is(err, ErrUnknownTask) {
		t.Errorf("err = %v, want ErrUnknownTask", err)
	}

	stats := h.Stats()
	if stats.Devices != 2 || stats.Tasks != 1 || stats.Uploads != 1 || stats.Records != 1 {
		t.Errorf("stats = %+v", stats)
	}
}

// TestUploadsAreCopiesAndRestartStable: Uploads hands out uploads that
// share nothing with the Hive — mutating one changes no stored state — and
// a memory-only Hive serves what a Hive recovered from the same history
// serves: Data numbers are float64 on both, not whatever Go type the
// submitter used.
func TestUploadsAreCopiesAndRestartStable(t *testing.T) {
	feed := func(h *Hive) string {
		must(t, h.RegisterDevice(deviceInfo("d1", "alice", 45.7, 4.8)))
		spec, _, err := h.PublishTask(taskSpec("aliasing"))
		if err != nil {
			t.Fatal(err)
		}
		must(t, h.SubmitUpload(transport.Upload{TaskID: spec.ID, DeviceID: "d1", Logs: []string{"boot"},
			Records: []transport.UploadRecord{{Sensor: "gps", TimeMillis: 1, Data: map[string]any{"n": 1, "tags": []any{"a"}}}}}))
		return spec.ID
	}
	dir := filepath.Join(t.TempDir(), "store")
	h, s, err := recoverDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	feed(h)
	must(t, s.Close())
	h, s, err = recoverDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	mem := New()
	task := feed(mem)
	got, err := mem.Uploads(task)
	if err != nil {
		t.Fatal(err)
	}
	got[0].Records[0].Data["n"] = 99
	got[0].Records[0].Data["tags"].([]any)[0] = "z"
	got[0].Records[0].Sensor = "mutated"
	got[0].Logs[0] = "mutated"
	again, err := mem.Uploads(task)
	if err != nil {
		t.Fatal(err)
	}
	recovered, err := h.Uploads(task)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again, recovered) {
		t.Errorf("memory-only Hive serves %+v after a caller mutated its result, a recovered one %+v", again, recovered)
	}
	if n, ok := again[0].Records[0].Data["n"].(float64); !ok || n != 1 {
		t.Errorf(`Data["n"] = %#v, want float64(1)`, again[0].Records[0].Data["n"])
	}
}

// TestStatsCountersMatchWalk: the upload and record counts Stats keeps per
// task equal a walk over every held upload after admissions, after a
// failed group commit rolled some back, and after a restart.
// (TestLegacyStoreFixtures checks them after adopting earlier stores.)
func TestStatsCountersMatchWalk(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	h, s, err := recoverDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	must(t, h.RegisterDevice(deviceInfo("d1", "alice", 45.7, 4.8)))
	var tasks []string
	for i := 0; i < 3; i++ {
		spec, _, err := h.PublishTask(taskSpec(fmt.Sprintf("t%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		tasks = append(tasks, spec.ID)
	}
	batch := func(n int) []transport.Upload {
		var ups []transport.Upload
		for i := 0; i < n; i++ {
			ups = append(ups, transport.Upload{TaskID: tasks[i%len(tasks)], DeviceID: "d1",
				Records: make([]transport.UploadRecord, i%4)})
		}
		return ups
	}
	for _, err := range h.SubmitBatch(batch(10)) {
		must(t, err)
	}
	checkCounters(t, h)
	before := h.Stats()

	must(t, s.Close()) // every further group commit fails and rolls back
	for _, err := range h.SubmitBatch(batch(7)) {
		if !errors.Is(err, ErrJournalIO) {
			t.Fatalf("commit on a closed store: err = %v, want %s", err, ErrJournalIO)
		}
	}
	checkCounters(t, h)
	if got := h.Stats(); got != before {
		t.Errorf("after the rollback Stats = %+v, want %+v", got, before)
	}

	h2, s2, err := recoverDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	checkCounters(t, h2)
	if got := h2.Stats(); got != before {
		t.Errorf("after the restart Stats = %+v, want %+v", got, before)
	}
}

func must(t testing.TB, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

// TestUploadCap: the per-task upload cap bounds memory against a runaway
// fleet — further submissions fail with ErrUploadLimit, other tasks are
// unaffected, and lifting the cap re-opens ingestion.
func TestUploadCap(t *testing.T) {
	h := New()
	h.SetMaxUploadsPerTask(2)
	must(t, h.RegisterDevice(deviceInfo("d1", "alice", 45.7, 4.8)))
	spec, _, err := h.PublishTask(taskSpec("capped"))
	if err != nil {
		t.Fatal(err)
	}
	other, _, err := h.PublishTask(taskSpec("other"))
	if err != nil {
		t.Fatal(err)
	}
	up := func(task string) transport.Upload {
		return transport.Upload{TaskID: task, DeviceID: "d1", Records: []transport.UploadRecord{{Sensor: "gps"}}}
	}
	must(t, h.SubmitUpload(up(spec.ID)))
	must(t, h.SubmitUpload(up(spec.ID)))
	if err := h.SubmitUpload(up(spec.ID)); !errors.Is(err, ErrUploadLimit) {
		t.Fatalf("third upload err = %v, want ErrUploadLimit", err)
	}
	ups, err := h.Uploads(spec.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(ups) != 2 {
		t.Errorf("capped task holds %d uploads, want 2", len(ups))
	}
	// The cap is per task, not global.
	must(t, h.SubmitUpload(up(other.ID)))
	// Lifting the cap re-opens ingestion.
	h.SetMaxUploadsPerTask(0)
	must(t, h.SubmitUpload(up(spec.ID)))
	if ups, _ := h.Uploads(spec.ID); len(ups) != 3 {
		t.Errorf("uncapped task holds %d uploads, want 3", len(ups))
	}
}

// TestUploadCapHTTP: the HTTP layer reports a full task as 429.
func TestUploadCapHTTP(t *testing.T) {
	h := New()
	h.SetMaxUploadsPerTask(1)
	must(t, h.RegisterDevice(deviceInfo("d1", "alice", 45.7, 4.8)))
	spec, _, err := h.PublishTask(taskSpec("capped"))
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewServer(h))
	defer srv.Close()
	cl := transport.NewClient(srv.URL)
	up := transport.Upload{TaskID: spec.ID, DeviceID: "d1", Records: []transport.UploadRecord{{Sensor: "gps"}}}
	if err := cl.Do(context.Background(), http.MethodPost, "/api/uploads", up, nil); err != nil {
		t.Fatal(err)
	}
	err = cl.Do(context.Background(), http.MethodPost, "/api/uploads", up, nil)
	var status *transport.ErrStatus
	if !errors.As(err, &status) || status.Code != http.StatusTooManyRequests {
		t.Errorf("second upload err = %v, want HTTP 429", err)
	}
}

// ---- HTTP API ----

func TestHTTPEndToEnd(t *testing.T) {
	srv := httptest.NewServer(NewServer(New()))
	defer srv.Close()
	client := transport.NewClient(srv.URL)
	ctx := context.Background()

	// Register two devices.
	for _, d := range []transport.DeviceInfo{
		deviceInfo("d1", "alice", 45.7640, 4.8357),
		deviceInfo("d2", "bob", 45.7700, 4.8400),
	} {
		if err := client.Do(ctx, http.MethodPost, "/api/devices", d, nil); err != nil {
			t.Fatal(err)
		}
	}
	var devs []transport.DeviceInfo
	if err := client.Do(ctx, http.MethodGet, "/api/devices", nil, &devs); err != nil {
		t.Fatal(err)
	}
	if len(devs) != 2 {
		t.Fatalf("devices = %d, want 2", len(devs))
	}

	// Publish a task.
	var pub PublishResponse
	if err := client.Do(ctx, http.MethodPost, "/api/tasks", taskSpec("http-task"), &pub); err != nil {
		t.Fatal(err)
	}
	if pub.Task.ID == "" || len(pub.Recruited) != 2 {
		t.Fatalf("publish = %+v", pub)
	}

	// Device pulls its tasks.
	var tasks []transport.TaskSpec
	if err := client.Do(ctx, http.MethodGet, "/api/devices/d1/tasks", nil, &tasks); err != nil {
		t.Fatal(err)
	}
	if len(tasks) != 1 || tasks[0].Script == "" {
		t.Fatalf("tasks = %+v", tasks)
	}

	// Submit an upload and read it back.
	up := transport.Upload{TaskID: pub.Task.ID, DeviceID: "d1", Records: []transport.UploadRecord{
		{Sensor: "gps", TimeMillis: 1418031000000, Data: map[string]any{"lat": 45.76, "lon": 4.83}},
	}}
	if err := client.Do(ctx, http.MethodPost, "/api/uploads", up, nil); err != nil {
		t.Fatal(err)
	}
	var ups []transport.Upload
	if err := client.Do(ctx, http.MethodGet, "/api/tasks/"+pub.Task.ID+"/uploads", nil, &ups); err != nil {
		t.Fatal(err)
	}
	if len(ups) != 1 || ups[0].Records[0].Data["lat"].(float64) != 45.76 {
		t.Fatalf("uploads = %+v", ups)
	}

	// Stats.
	var stats Stats
	if err := client.Do(ctx, http.MethodGet, "/api/stats", nil, &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Devices != 2 || stats.Records != 1 {
		t.Errorf("stats = %+v", stats)
	}

	// Unregister.
	if err := client.Do(ctx, http.MethodDelete, "/api/devices/d2", nil, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHTTPErrors(t *testing.T) {
	srv := httptest.NewServer(NewServer(New()))
	defer srv.Close()
	client := transport.NewClient(srv.URL)
	ctx := context.Background()

	var statusErr *transport.ErrStatus

	// 404 for unknown task.
	err := client.Do(ctx, http.MethodGet, "/api/tasks/task-0001", nil, nil)
	if !errors.As(err, &statusErr) || statusErr.Code != http.StatusNotFound {
		t.Errorf("unknown task err = %v, want 404", err)
	}
	// 404 for unknown device tasks.
	err = client.Do(ctx, http.MethodGet, "/api/devices/ghost/tasks", nil, nil)
	if !errors.As(err, &statusErr) || statusErr.Code != http.StatusNotFound {
		t.Errorf("unknown device err = %v, want 404", err)
	}
	// 400 for malformed body.
	resp, err := http.Post(srv.URL+"/api/devices", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed register status = %d, want 400", resp.StatusCode)
	}
	// 409 when no device qualifies.
	err = client.Do(ctx, http.MethodPost, "/api/tasks", taskSpec("t"), nil)
	if !errors.As(err, &statusErr) || statusErr.Code != http.StatusConflict {
		t.Errorf("no-device publish err = %v, want 409", err)
	}
}

func TestConcurrentRegistrationAndUpload(t *testing.T) {
	h := New()
	must(t, h.RegisterDevice(deviceInfo("seed", "s", 45.7, 4.8)))
	spec, _, err := h.PublishTask(taskSpec("t"))
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error)
	for i := 0; i < 8; i++ {
		go func(n int) {
			var firstErr error
			for j := 0; j < 50; j++ {
				id := string(rune('a'+n)) + "-dev"
				if err := h.RegisterDevice(deviceInfo(id, "u", 45.7, 4.8)); err != nil && firstErr == nil {
					firstErr = err
				}
				if err := h.SubmitUpload(transport.Upload{TaskID: spec.ID, DeviceID: "seed"}); err != nil && firstErr == nil {
					firstErr = err
				}
				_ = h.Devices()
				_ = h.Stats()
			}
			done <- firstErr
		}(i)
	}
	for i := 0; i < 8; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if got := h.Stats().Uploads; got != 8*50 {
		t.Errorf("uploads = %d, want 400", got)
	}
}
