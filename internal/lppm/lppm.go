// Package lppm implements Location Privacy Protection Mechanisms (LPPMs).
//
// It contains the paper's contribution — SpeedSmoothing, the strategy PRIVAPI
// ships (§3): resample a trajectory so that speed is constant, which erases
// the dwell signal revealing points of interest — together with the
// state-of-the-art baseline the paper's claim C1 targets
// (geo-indistinguishability, planar Laplace noise) and three classic
// baselines: spatial cloaking, Gaussian perturbation and temporal
// downsampling.
//
// All mechanisms are deterministic for a fixed seed: the random stream used
// for a trajectory is derived from the mechanism seed and the trajectory
// identity, so results do not depend on dataset ordering or concurrency.
package lppm

import (
	"context"
	"fmt"
	"hash/fnv"
	"math/rand/v2"
	"runtime"

	"apisense/internal/par"
	"apisense/internal/trace"
)

// Mechanism transforms a single trajectory into its protected counterpart.
// Protect appends the protected records of t to dst and returns the
// extended slice; when it appends nothing, t is suppressed from the
// release. Every implementation must
//
//   - never mutate t;
//   - never retain dst (callers reuse it for the next trajectory);
//   - append records that share nothing with t (the publication engine
//     scores a buffer it then overwrites, and releases copies of it while
//     callers keep their raw data);
//   - be safe for concurrent Protect calls (all built-in mechanisms are
//     immutable after construction).
//
// What is appended must not depend on dst's length, capacity or old
// contents.
type Mechanism interface {
	// Name returns a short stable identifier (used in reports).
	Name() string
	// Protect appends the protected version of t to dst.
	Protect(dst []trace.Record, t *trace.Trajectory) ([]trace.Record, error)
}

// ProtectDatasetContext applies m to every trajectory of d on up to
// parallelism worker goroutines and returns the protected dataset.
// Trajectories are embarrassingly parallel: every mechanism derives its
// random stream from the mechanism seed and the trajectory identity (see
// trajectoryRNG), so the output is byte-identical for any parallelism and
// trajectory order is preserved. Suppressed (empty) trajectories are
// omitted. parallelism <= 0 selects runtime.GOMAXPROCS(0). The context is
// checked between trajectories; on cancellation the first ctx error is
// returned.
//
// Each worker protects into one reused buffer and copies every output into
// a slice of exactly its length, so the release carries no slack capacity.
func ProtectDatasetContext(ctx context.Context, m Mechanism, d *trace.Dataset, parallelism int) (*trace.Dataset, error) {
	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	n := len(d.Trajectories)
	protected := make([]*trace.Trajectory, n)
	bufs := make([][]trace.Record, max(1, min(parallelism, n)))
	err := par.ForWorker(ctx, n, parallelism, func(_ context.Context, w, i int) error {
		t := d.Trajectories[i]
		buf, err := m.Protect(bufs[w][:0], t)
		if err != nil {
			return protectErr(m, i, t, err)
		}
		bufs[w] = buf
		if len(buf) > 0 {
			recs := make([]trace.Record, len(buf))
			copy(recs, buf)
			protected[i] = &trace.Trajectory{User: t.User, Records: recs}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := trace.NewDataset()
	for _, p := range protected {
		if p != nil {
			out.Add(p)
		}
	}
	return out, nil
}

func protectErr(m Mechanism, i int, t *trace.Trajectory, err error) error {
	return fmt.Errorf("lppm: %s on trajectory %d (user %s): %w", m.Name(), i, t.User, err)
}

// Identity is the no-op mechanism: it releases the data as-is. It serves as
// the "no protection" row of every experiment.
type Identity struct{}

var _ Mechanism = Identity{}

// Name implements Mechanism.
func (Identity) Name() string { return "identity" }

// Protect implements Mechanism.
func (Identity) Protect(dst []trace.Record, t *trace.Trajectory) ([]trace.Record, error) {
	return append(dst, t.Records...), nil
}

// trajectoryRNG derives a deterministic random stream for trajectory t from
// the mechanism seed. Two trajectories with different users or start times
// get independent streams.
func trajectoryRNG(seed uint64, t *trace.Trajectory) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(t.User))
	if len(t.Records) > 0 {
		var buf [8]byte
		n := t.Records[0].Time
		for i := 0; i < 8; i++ {
			buf[i] = byte(n >> (8 * i))
		}
		h.Write(buf[:])
	}
	return rand.New(rand.NewPCG(seed, h.Sum64()))
}
