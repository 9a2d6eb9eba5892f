// Package device simulates the APISENSE mobile runtime: the component that
// receives crowd-sensing task scripts from the Hive, executes them against
// the phone's sensors, applies the user's local privacy filters, and
// uploads the resulting dataset (§2 of the paper).
//
// The simulation is driven by a ground-truth movement trajectory (from
// internal/mobgen or a recorded trace): the device "moves" along it in
// virtual time, producing GPS fixes, battery readings and a synthetic
// network-quality signal, exactly the sensor surface the published APISENSE
// task examples use.
package device

import (
	"errors"
	"fmt"
	"math"
	"time"

	"apisense/internal/filter"
	"apisense/internal/geo"
	"apisense/internal/script"
	"apisense/internal/trace"
	"apisense/internal/transport"
)

// Config assembles a simulated device.
type Config struct {
	// ID is the device identifier (required).
	ID string
	// User is the owning contributor (required).
	User string
	// Movement is the ground-truth trajectory the device follows
	// (required, at least two records).
	Movement *trace.Trajectory
	// Filter is the user's device-side privacy chain (nil means no
	// filtering).
	Filter *filter.Chain
	// Battery is the battery model (nil means a fresh 100% battery).
	Battery *Battery
	// SharedSensors lists the sensors the user shares with the platform.
	// Nil means all simulated sensors (gps, battery, network).
	SharedSensors []string
}

// Device is one simulated phone.
type Device struct {
	id      string
	user    string
	move    *trace.Trajectory
	chain   *filter.Chain
	battery *Battery
	sensors []string
}

// AllSensors is the sensor surface the simulator implements.
var AllSensors = []string{"gps", "battery", "network"}

// New builds a device.
func New(cfg Config) (*Device, error) {
	if cfg.ID == "" || cfg.User == "" {
		return nil, fmt.Errorf("device: ID and User are required")
	}
	if cfg.Movement == nil || cfg.Movement.Len() < 2 {
		return nil, fmt.Errorf("device: Movement with at least two records is required")
	}
	d := &Device{
		id:      cfg.ID,
		user:    cfg.User,
		move:    cfg.Movement,
		chain:   cfg.Filter,
		battery: cfg.Battery,
		sensors: cfg.SharedSensors,
	}
	if d.battery == nil {
		d.battery = NewBattery(100)
	}
	if d.sensors == nil {
		d.sensors = append([]string(nil), AllSensors...)
	}
	if d.chain == nil {
		d.chain = filter.NewChain()
	}
	return d, nil
}

// ID returns the device identifier.
func (d *Device) ID() string { return d.id }

// User returns the owning contributor.
func (d *Device) User() string { return d.user }

// Battery returns the battery model.
func (d *Device) Battery() *Battery { return d.battery }

// Info returns the registration record sent to the Hive.
func (d *Device) Info() transport.DeviceInfo {
	pos := d.move.Records[0].Pos
	return transport.DeviceInfo{
		ID:      d.id,
		User:    d.user,
		Sensors: append([]string(nil), d.sensors...),
		Battery: d.battery.Level(),
		Lat:     pos.Lat,
		Lon:     pos.Lon,
	}
}

// PositionAt returns the ground-truth position at ts.
func (d *Device) PositionAt(ts time.Time) (geo.Point, bool) {
	if !trace.InRange(ts) {
		return geo.Point{}, false
	}
	return d.move.At(trace.InstantOf(ts))
}

// SampleAt produces one filtered GPS record at ts, draining the battery.
// ok is false when the device cannot sample (off trajectory, dead battery,
// or the filter dropped the record).
func (d *Device) SampleAt(ts time.Time) (filter.Record, bool) {
	if d.battery.Dead() {
		return filter.Record{}, false
	}
	pos, inRange := d.PositionAt(ts)
	if !inRange {
		return filter.Record{}, false
	}
	d.battery.Drain(d.battery.DrainPerFix)
	rec := filter.Record{
		Sensor: "gps",
		Time:   ts,
		Data: map[string]any{
			"lat": pos.Lat,
			"lon": pos.Lon,
		},
	}
	return d.chain.Apply(rec)
}

// networkSignal is a deterministic, spatially-smooth synthetic signal
// quality in [0,1], standing in for the operator coverage maps used by the
// network-quality applications the paper's introduction motivates.
func networkSignal(pos geo.Point) float64 {
	pr := geo.NewProjection(geo.Point{Lat: 45.7640, Lon: 4.8357})
	xy := pr.Forward(pos)
	v := 0.5 + 0.25*math.Sin(xy.X/900) + 0.25*math.Cos(xy.Y/700)
	if v < 0 {
		v = 0
	}
	if v > 1 {
		v = 1
	}
	return v
}

// RunResult is the outcome of executing one task on one device.
type RunResult struct {
	// Upload is the filtered dataset produced by the task.
	Upload transport.Upload
	// Ticks is the number of sampling iterations executed.
	Ticks int
	// Dropped counts records suppressed by the privacy filter chain.
	Dropped int
}

// RunTask executes a task script over the device's whole movement window in
// virtual time. The script's sensor handlers fire once per sampling period;
// records it saves pass through the privacy chain before entering the
// upload.
func (d *Device) RunTask(spec transport.TaskSpec) (*RunResult, error) {
	if err := spec.Validate(); err != nil {
		return nil, fmt.Errorf("device %s: %w", d.id, err)
	}
	if !d.hasSensors(spec.Sensors) {
		return nil, fmt.Errorf("device %s: %w", d.id, ErrSensorsNotShared)
	}

	res := &RunResult{Upload: transport.Upload{TaskID: spec.ID, DeviceID: d.id}}
	interp := script.NewInterp()
	rt := &runtime{dev: d, spec: spec, res: res, interp: interp}
	rt.bind()
	if err := interp.RunSource(spec.Script); err != nil {
		return nil, fmt.Errorf("device %s: task %q: %w", d.id, spec.Name, err)
	}

	period := time.Duration(spec.PeriodSeconds) * time.Second
	start := d.move.Records[0].Time.Time()
	end := d.move.Records[d.move.Len()-1].Time.Time()
	prevPos, _ := d.PositionAt(start)
	prevTime := start
	for ts := start; !ts.After(end); ts = ts.Add(period) {
		if d.battery.Dead() {
			rt.log(fmt.Sprintf("battery exhausted at %s", ts.Format(time.RFC3339)))
			break
		}
		if spec.MaxRecords > 0 && len(res.Upload.Records) >= spec.MaxRecords {
			break
		}
		pos, ok := d.PositionAt(ts)
		if !ok {
			continue
		}
		res.Ticks++
		d.battery.Drain(d.battery.DrainPerFix + d.battery.IdlePerHour*period.Hours())

		speed := 0.0
		if dt := ts.Sub(prevTime).Seconds(); dt > 0 {
			speed = geo.Distance(prevPos, pos) / dt
		}
		rt.now = ts
		rt.pos = pos
		if err := rt.fireLocation(pos, speed); err != nil {
			return nil, fmt.Errorf("device %s: task %q handler: %w", d.id, spec.Name, err)
		}
		if err := rt.fireTimers(ts); err != nil {
			return nil, fmt.Errorf("device %s: task %q timer: %w", d.id, spec.Name, err)
		}
		prevPos, prevTime = pos, ts
	}
	return res, nil
}

// ErrSensorsNotShared marks tasks requesting sensors the user opted out of.
var ErrSensorsNotShared = errors.New("device: required sensors not shared")

func (d *Device) hasSensors(required []string) bool {
	have := make(map[string]bool, len(d.sensors))
	for _, s := range d.sensors {
		have[s] = true
	}
	for _, s := range required {
		if !have[s] {
			return false
		}
	}
	return true
}

// runtime wires the script host API for one task execution.
type runtime struct {
	dev    *Device
	spec   transport.TaskSpec
	res    *RunResult
	interp *script.Interp

	now time.Time
	pos geo.Point

	locationHandlers []script.Value
	timers           []*timer
}

type timer struct {
	period time.Duration
	next   time.Time
	fn     script.Value
}

func (rt *runtime) log(msg string) {
	rt.res.Upload.Logs = append(rt.res.Upload.Logs, msg)
}

// bind installs the sensor/dataset/device host objects.
func (rt *runtime) bind() {
	gps := script.NewObject().Set("onLocationChanged", script.BuiltinValue(func(args []script.Value) (script.Value, error) {
		if len(args) != 1 || args[0].Type() != script.TypeFunction {
			return script.Null, errors.New("sensor.gps.onLocationChanged expects a handler function")
		}
		rt.locationHandlers = append(rt.locationHandlers, args[0])
		return script.Null, nil
	}))
	battery := script.NewObject().Set("level", script.BuiltinValue(func([]script.Value) (script.Value, error) {
		return script.Number(rt.dev.battery.Level()), nil
	}))
	network := script.NewObject().Set("signal", script.BuiltinValue(func([]script.Value) (script.Value, error) {
		return script.Number(networkSignal(rt.pos)), nil
	}))
	sensor := script.NewObject().
		Set("gps", script.ObjectValue(gps)).
		Set("battery", script.ObjectValue(battery)).
		Set("network", script.ObjectValue(network))
	rt.interp.Define("sensor", script.ObjectValue(sensor))

	dataset := script.NewObject().Set("save", script.BuiltinValue(func(args []script.Value) (script.Value, error) {
		if len(args) != 1 || args[0].Type() != script.TypeObject {
			return script.Null, errors.New("dataset.save expects an object")
		}
		rt.save(args[0])
		return script.Null, nil
	}))
	rt.interp.Define("dataset", script.ObjectValue(dataset))

	devObj := script.NewObject().
		Set("id", script.String(rt.dev.id)).
		Set("battery", script.BuiltinValue(func([]script.Value) (script.Value, error) {
			return script.Number(rt.dev.battery.Level()), nil
		}))
	rt.interp.Define("device", script.ObjectValue(devObj))

	timeObj := script.NewObject().Set("now", script.BuiltinValue(func([]script.Value) (script.Value, error) {
		return script.Number(float64(rt.now.UnixMilli())), nil
	}))
	rt.interp.Define("time", script.ObjectValue(timeObj))

	schedule := script.NewObject().Set("every", script.BuiltinValue(func(args []script.Value) (script.Value, error) {
		if len(args) != 2 || args[0].Type() != script.TypeNumber || args[1].Type() != script.TypeFunction {
			return script.Null, errors.New("schedule.every expects (seconds, handler)")
		}
		period := time.Duration(args[0].Num() * float64(time.Second))
		if period <= 0 {
			return script.Null, errors.New("schedule.every period must be positive")
		}
		rt.timers = append(rt.timers, &timer{period: period, fn: args[1]})
		return script.Null, nil
	}))
	rt.interp.Define("schedule", script.ObjectValue(schedule))

	rt.interp.Define("log", script.BuiltinValue(func(args []script.Value) (script.Value, error) {
		parts := make([]string, len(args))
		for i, a := range args {
			parts[i] = a.String()
		}
		rt.log(joinSpace(parts))
		return script.Null, nil
	}))
}

func joinSpace(parts []string) string {
	out := ""
	for i, p := range parts {
		if i > 0 {
			out += " "
		}
		out += p
	}
	return out
}

// save pushes one script object through the privacy chain into the upload.
func (rt *runtime) save(v script.Value) {
	data, ok := v.ToGo().(map[string]any)
	if !ok {
		return
	}
	sensorName := "task"
	if s, ok := data["sensor"].(string); ok && s != "" {
		sensorName = s
	} else if _, hasLat := data["lat"]; hasLat {
		sensorName = "gps"
	}
	rec := filter.Record{Sensor: sensorName, Time: rt.now, Data: data}
	filtered, keep := rt.dev.chain.Apply(rec)
	if !keep {
		rt.res.Dropped++
		return
	}
	rt.dev.battery.Drain(rt.dev.battery.DrainPerSave)
	rt.res.Upload.Records = append(rt.res.Upload.Records, transport.UploadRecord{
		Sensor:     filtered.Sensor,
		TimeMillis: filtered.Time.UnixMilli(),
		Data:       filtered.Data,
	})
}

func (rt *runtime) fireLocation(pos geo.Point, speed float64) error {
	if len(rt.locationHandlers) == 0 {
		return nil
	}
	loc := script.NewObject().
		Set("lat", script.Number(pos.Lat)).
		Set("lon", script.Number(pos.Lon)).
		Set("speed", script.Number(speed)).
		Set("time", script.Number(float64(rt.now.UnixMilli())))
	arg := []script.Value{script.ObjectValue(loc)}
	for _, h := range rt.locationHandlers {
		if _, err := rt.interp.CallFunction(h, arg); err != nil {
			return err
		}
	}
	return nil
}

func (rt *runtime) fireTimers(ts time.Time) error {
	// Timers fire in registration order, deterministically.
	for _, t := range rt.timers {
		if t.next.IsZero() {
			t.next = ts.Add(t.period)
			continue
		}
		for !t.next.After(ts) {
			if _, err := rt.interp.CallFunction(t.fn, nil); err != nil {
				return err
			}
			t.next = t.next.Add(t.period)
		}
	}
	return nil
}
