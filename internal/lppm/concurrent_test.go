package lppm

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"apisense/internal/geo"
	"apisense/internal/trace"
)

// concurrencyFixture builds a dataset large enough to exercise the worker
// pool: 40 trajectories of 50 fixes each, including two too short to
// survive smoothing (suppression must not disturb output order).
func concurrencyFixture() *trace.Dataset {
	ds := trace.NewDataset()
	base := time.Date(2014, 5, 1, 8, 0, 0, 0, time.UTC)
	for u := 0; u < 40; u++ {
		tr := &trace.Trajectory{User: fmt.Sprintf("user-%02d", u)}
		n := 50
		if u%17 == 0 {
			n = 1 // suppressed by smoothing (needs >= 2 records)
		}
		for i := 0; i < n; i++ {
			tr.Records = append(tr.Records, trace.Record{
				Time: trace.InstantOf(base.Add(time.Duration(i) * 30 * time.Second)),
				Pos: geo.Point{
					Lat: 45.76 + float64(u)*0.001 + float64(i)*0.0001,
					Lon: 4.83 + float64(u)*0.001,
				},
			})
		}
		ds.Add(tr)
	}
	return ds
}

// TestProtectDatasetContextMatchesSequential: for every built-in mechanism
// the parallel output must be byte-identical to the sequential one, with
// trajectory order preserved. Run under -race this also proves the
// mechanisms are safe for concurrent Protect calls.
func TestProtectDatasetContextMatchesSequential(t *testing.T) {
	ds := concurrencyFixture()
	sm, err := NewSpeedSmoothing(100, 2)
	if err != nil {
		t.Fatal(err)
	}
	gi, err := NewGeoInd(0.01, 1)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := NewCloaking(800, geo.Point{Lat: 45.76, Lon: 4.83})
	if err != nil {
		t.Fatal(err)
	}
	dsm, err := NewDownsample(3)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []Mechanism{Identity{}, sm, gi, cl, dsm} {
		seq, err := ProtectDatasetContext(context.Background(), m, ds, 1)
		if err != nil {
			t.Fatalf("%s sequential: %v", m.Name(), err)
		}
		par, err := ProtectDatasetContext(context.Background(), m, ds, 8)
		if err != nil {
			t.Fatalf("%s parallel: %v", m.Name(), err)
		}
		if seq.Len() != par.Len() {
			t.Fatalf("%s: %d trajectories sequential vs %d parallel", m.Name(), seq.Len(), par.Len())
		}
		for i := range seq.Trajectories {
			a, b := seq.Trajectories[i], par.Trajectories[i]
			if a.User != b.User || len(a.Records) != len(b.Records) {
				t.Fatalf("%s: trajectory %d differs (%s/%d vs %s/%d)",
					m.Name(), i, a.User, len(a.Records), b.User, len(b.Records))
			}
			for j := range a.Records {
				if a.Records[j] != b.Records[j] {
					t.Fatalf("%s: trajectory %d record %d differs", m.Name(), i, j)
				}
			}
		}
	}
}

// TestProtectDatasetContextConcurrentCallers: many goroutines sharing one
// mechanism and one dataset must not race (meaningful under -race).
func TestProtectDatasetContextConcurrentCallers(t *testing.T) {
	ds := concurrencyFixture()
	sm, err := NewSpeedSmoothing(100, 2)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, 4)
	for g := 0; g < len(errs); g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			_, errs[g] = ProtectDatasetContext(context.Background(), sm, ds, 4)
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Errorf("caller %d: %v", g, err)
		}
	}
}

// TestProtectDatasetContextCancelled: a cancelled context stops the run.
func TestProtectDatasetContextCancelled(t *testing.T) {
	ds := concurrencyFixture()
	sm, err := NewSpeedSmoothing(100, 2)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, parallelism := range []int{1, 8} {
		if _, err := ProtectDatasetContext(ctx, sm, ds, parallelism); !errors.Is(err, context.Canceled) {
			t.Errorf("parallelism %d: err = %v, want context.Canceled", parallelism, err)
		}
	}
}

// failingMechanism fails on one specific user to exercise error fan-in.
type failingMechanism struct{ failUser string }

func (f failingMechanism) Name() string { return "failing" }

func (f failingMechanism) Protect(dst []trace.Record, tr *trace.Trajectory) ([]trace.Record, error) {
	if tr.User == f.failUser {
		return dst, errors.New("boom")
	}
	return append(dst, tr.Records...), nil
}

// TestProtectDatasetContextError: a mechanism error surfaces (wrapped with
// the trajectory identity) from both the sequential and the pooled path.
func TestProtectDatasetContextError(t *testing.T) {
	ds := concurrencyFixture()
	m := failingMechanism{failUser: "user-23"}
	for _, parallelism := range []int{1, 8} {
		_, err := ProtectDatasetContext(context.Background(), m, ds, parallelism)
		if err == nil {
			t.Fatalf("parallelism %d: expected error", parallelism)
		}
	}
}
