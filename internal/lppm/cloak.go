package lppm

import (
	"fmt"
	"math"
	"time"

	"apisense/internal/geo"
	"apisense/internal/trace"
)

// Cloaking snaps every fix to the centre of a fixed square grid cell
// (spatial cloaking / coordinate rounding). The grid is anchored at a fixed
// origin so that all users and all releases share cell boundaries.
type Cloaking struct {
	// CellSize is the grid cell edge in metres.
	CellSize float64
	// Origin anchors the grid. The zero value anchors at (0, 0).
	Origin geo.Point

	proj *geo.Projection
}

var _ Mechanism = (*Cloaking)(nil)

// NewCloaking returns a spatial cloaking mechanism with the given cell size
// in metres, anchored at origin.
func NewCloaking(cellSize float64, origin geo.Point) (*Cloaking, error) {
	if cellSize <= 0 || math.IsNaN(cellSize) || math.IsInf(cellSize, 0) {
		return nil, fmt.Errorf("lppm: cloaking cell size must be positive and finite, got %v", cellSize)
	}
	return &Cloaking{CellSize: cellSize, Origin: origin, proj: geo.NewProjection(origin)}, nil
}

// Name implements Mechanism.
func (c *Cloaking) Name() string { return fmt.Sprintf("cloaking(cell=%g)", c.CellSize) }

// Protect implements Mechanism.
func (c *Cloaking) Protect(dst []trace.Record, t *trace.Trajectory) ([]trace.Record, error) {
	for _, rec := range t.Records {
		xy := c.proj.Forward(rec.Pos)
		xy.X = (math.Floor(xy.X/c.CellSize) + 0.5) * c.CellSize
		xy.Y = (math.Floor(xy.Y/c.CellSize) + 0.5) * c.CellSize
		rec.Pos = c.proj.Inverse(xy)
		dst = append(dst, rec)
	}
	return dst, nil
}

// Downsample keeps one record out of every Factor, reducing temporal
// resolution. It is the data-minimisation baseline: it thins the data
// without displacing it.
type Downsample struct {
	// Factor keeps every Factor-th record (Factor >= 1).
	Factor int
}

var _ Mechanism = (*Downsample)(nil)

// NewDownsample returns a temporal downsampling mechanism.
func NewDownsample(factor int) (*Downsample, error) {
	if factor < 1 {
		return nil, fmt.Errorf("lppm: downsample factor must be >= 1, got %d", factor)
	}
	return &Downsample{Factor: factor}, nil
}

// Name implements Mechanism.
func (d *Downsample) Name() string { return fmt.Sprintf("downsample(k=%d)", d.Factor) }

// Protect implements Mechanism.
func (d *Downsample) Protect(dst []trace.Record, t *trace.Trajectory) ([]trace.Record, error) {
	for i := 0; i < len(t.Records); i += d.Factor {
		dst = append(dst, t.Records[i])
	}
	return dst, nil
}

// Compose chains mechanisms: the output of one is the input of the next.
type Compose struct {
	Mechanisms []Mechanism
}

var _ Mechanism = (*Compose)(nil)

// NewCompose returns the chained mechanism. At least one stage is required.
func NewCompose(ms ...Mechanism) (*Compose, error) {
	if len(ms) == 0 {
		return nil, fmt.Errorf("lppm: compose needs at least one mechanism")
	}
	return &Compose{Mechanisms: ms}, nil
}

// Name implements Mechanism.
func (c *Compose) Name() string {
	name := "compose("
	for i, m := range c.Mechanisms {
		if i > 0 {
			name += "+"
		}
		name += m.Name()
	}
	return name + ")"
}

// Protect implements Mechanism. Stages before the last alternate between
// two scratch buffers; the last one appends to dst. A stage that suppresses
// the trajectory ends the chain.
func (c *Compose) Protect(dst []trace.Record, t *trace.Trajectory) ([]trace.Record, error) {
	var scratch [2][]trace.Record
	cur := t
	last := len(c.Mechanisms) - 1
	for i, m := range c.Mechanisms {
		out := scratch[i%2][:0]
		if i == last {
			out = dst
		}
		out, err := m.Protect(out, cur)
		if err != nil {
			return dst, fmt.Errorf("lppm: compose stage %s: %w", m.Name(), err)
		}
		if i == last {
			return out, nil
		}
		if len(out) == 0 {
			break
		}
		scratch[i%2] = out
		cur = &trace.Trajectory{User: t.User, Records: out}
	}
	return dst, nil
}

// TimeShift shifts all timestamps by a constant offset; used in tests and to
// decouple release time from collection time.
type TimeShift struct {
	Offset time.Duration
}

var _ Mechanism = (*TimeShift)(nil)

// Name implements Mechanism.
func (s *TimeShift) Name() string { return fmt.Sprintf("timeshift(%s)", s.Offset) }

// Protect implements Mechanism.
func (s *TimeShift) Protect(dst []trace.Record, t *trace.Trajectory) ([]trace.Record, error) {
	for _, rec := range t.Records {
		rec.Time = rec.Time.Add(s.Offset)
		dst = append(dst, rec)
	}
	return dst, nil
}
