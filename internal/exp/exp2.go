package exp

import (
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"time"

	"apisense/internal/core"
	"apisense/internal/device"
	"apisense/internal/filter"
	"apisense/internal/geo"
	"apisense/internal/hive"
	"apisense/internal/honeycomb"
	"apisense/internal/lppm"
	"apisense/internal/transport"
)

// E6Frontier runs experiment E6: the privacy-utility frontier sweep that
// motivates PRIVAPI's "not one unique strategy" position.
func E6Frontier(ctx context.Context, w *Workload) (*Table, error) {
	t := &Table{
		ID:      "E6",
		Title:   "Privacy-utility frontier (exposure f1 vs hotspot overlap)",
		Columns: []string{"mechanism", "exposure-f1", "hotspot-overlap", "mean-distortion"},
		Notes:   []string{"ideal corner: exposure 0, overlap 1"},
	}
	var sweep []lppm.Mechanism
	for _, eps := range []float64{0.05, 0.01, 0.002} {
		gi, err := lppm.NewGeoInd(eps, 1)
		if err != nil {
			return nil, err
		}
		sweep = append(sweep, gi)
	}
	for _, eps := range []float64{50, 100, 200, 400} {
		sm, err := lppm.NewSpeedSmoothing(eps, 2)
		if err != nil {
			return nil, err
		}
		sweep = append(sweep, sm)
	}
	for _, m := range sweep {
		release, err := lppm.ProtectDatasetContext(ctx, m, w.Raw, 0)
		if err != nil {
			return nil, err
		}
		res := w.attack.Run(w.Truth, release)
		score := w.view.Score(release)
		t.Rows = append(t.Rows, []string{
			m.Name(), fmtF(res.F1()), fmtF(score.HotspotOverlap), fmt.Sprintf("%.0fm", score.Distortion.Mean),
		})
	}
	return t, nil
}

// E7Selection runs experiment E7: PRIVAPI's utility-driven optimal strategy
// selection across objectives and privacy floors. The sweep runs on the
// concurrent evaluation engine and is abandoned when ctx is cancelled.
func E7Selection(ctx context.Context, w *Workload) (*Table, error) {
	t := &Table{
		ID:      "E7",
		Title:   "PRIVAPI optimal strategy selection (per objective and privacy floor)",
		Columns: []string{"objective", "floor", "chosen", "utility", "exposure-f1"},
	}
	for _, obj := range []core.Objective{core.ObjectiveCrowdedPlaces, core.ObjectiveTraffic, core.ObjectiveDistortion} {
		for _, floor := range []float64{0.25, 0.45, 0.85} {
			mw, err := core.New(core.Config{
				Objective:      obj,
				MaxPOIExposure: floor,
			}, w.City.Center)
			if err != nil {
				return nil, err
			}
			_, sel, err := mw.PublishContext(ctx, w.Raw)
			if err != nil && !errors.Is(err, core.ErrNoStrategy) {
				return nil, err
			}
			chosen := sel.Chosen
			utility, exposure := "-", "-"
			if chosen == "" {
				chosen = "(none meets floor)"
			} else {
				for _, ev := range sel.Evaluations {
					if ev.Strategy == sel.Chosen {
						utility = fmtF(ev.Utility)
						exposure = fmtF(ev.Privacy.F1())
					}
				}
			}
			t.Rows = append(t.Rows, []string{
				obj.String(), fmtF(floor), chosen, utility, exposure,
			})
		}
	}
	return t, nil
}

const collectScript = `
sensor.gps.onLocationChanged(function(loc) {
  dataset.save({lat: loc.lat, lon: loc.lon, speed: loc.speed});
});
`

// E8Platform runs experiment E8: end-to-end platform pipeline over HTTP
// (Fig. 1): register devices, deploy a script task, execute, upload,
// collect. Reports deployment latency and ingestion throughput. A fleet
// size is clamped to the workload's residents, and a size equal to the
// row before it is skipped. The ctx governs the HTTP interactions and
// cancels the sweep between fleets.
func E8Platform(ctx context.Context, w *Workload, fleetSizes []int) (*Table, error) {
	t := &Table{
		ID:      "E8",
		Title:   "Platform pipeline: deploy -> execute -> upload -> collect (HTTP)",
		Columns: []string{"devices", "deploy-latency", "records", "ingest-throughput", "collect-latency"},
	}
	byUser := w.Raw.ByUser()
	last := -1
	for _, n := range fleetSizes {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		n = min(n, len(w.City.Residents))
		if n == last {
			continue
		}
		last = n
		h := hive.New()
		srv := httptest.NewServer(hive.NewServer(h))
		hc, err := honeycomb.New("exp-lab", srv.URL)
		if err != nil {
			srv.Close()
			return nil, err
		}

		var devices []*device.Device
		for _, res := range w.City.Residents[:n] {
			move := byUser[res.User][0]
			d, err := device.New(device.Config{ID: res.User + "-phone", User: res.User, Movement: move})
			if err != nil {
				srv.Close()
				return nil, err
			}
			if err := h.RegisterDevice(d.Info()); err != nil {
				srv.Close()
				return nil, err
			}
			devices = append(devices, d)
		}

		deployStart := time.Now()
		spec, _, err := hc.Deploy(ctx, transport.TaskSpec{
			Name: "exp8", Script: collectScript, PeriodSeconds: 120, Sensors: []string{"gps"},
		})
		if err != nil {
			srv.Close()
			return nil, err
		}
		deployLatency := time.Since(deployStart)

		cl := transport.NewClient(srv.URL)
		var records int
		ingestStart := time.Now()
		for _, d := range devices {
			res, err := d.RunTask(spec)
			if err != nil {
				srv.Close()
				return nil, err
			}
			records += len(res.Upload.Records)
			if err := cl.Do(ctx, "POST", "/api/uploads", res.Upload, nil); err != nil {
				srv.Close()
				return nil, err
			}
		}
		ingestDur := time.Since(ingestStart)

		collectStart := time.Now()
		ups, err := hc.Collect(ctx, spec.ID)
		collectLatency := time.Since(collectStart)
		srv.Close()
		if err != nil {
			return nil, err
		}
		if len(ups) != len(devices) {
			return nil, fmt.Errorf("exp: collected %d uploads for %d devices", len(ups), len(devices))
		}
		throughput := float64(records) / ingestDur.Seconds()
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", n),
			deployLatency.Round(100 * time.Microsecond).String(),
			fmt.Sprintf("%d", records),
			fmt.Sprintf("%.0f rec/s", throughput),
			collectLatency.Round(100 * time.Microsecond).String(),
		})
	}
	return t, nil
}

// E11Filters runs experiment E11: effect of the device-side privacy layer
// on what leaves the phone and on POI recovery. ctx is checked before each
// filter row.
func E11Filters(ctx context.Context, w *Workload) (*Table, error) {
	t := &Table{
		ID:      "E11",
		Title:   "Device-side privacy layer: kept records and home exposure",
		Columns: []string{"filter", "kept", "dropped", "home-recall"},
		Notes:   []string{"home-recall: homes recovered by the attack from the device uploads"},
	}
	byUser := w.Raw.ByUser()
	n := 10
	if n > len(w.City.Residents) {
		n = len(w.City.Residents)
	}
	homes := make(map[string][]geo.Point, n)
	for _, res := range w.City.Residents[:n] {
		homes[res.User] = []geo.Point{res.Home}
	}
	type chainBuilder struct {
		name  string
		build func(home geo.Point) *filter.Chain
	}
	builders := []chainBuilder{
		{"none", func(geo.Point) *filter.Chain { return filter.NewChain() }},
		{"blur-400m", func(geo.Point) *filter.Chain {
			return filter.NewChain(&filter.LocationBlur{CellSize: 400, Origin: w.City.Center})
		}},
		{"home-zone-500m", func(home geo.Point) *filter.Chain {
			return filter.NewChain(&filter.ZoneExclusion{Centers: []geo.Point{home}, Radius: 500})
		}},
		{"daytime-only", func(geo.Point) *filter.Chain {
			return filter.NewChain(&filter.TimeWindow{StartHour: 8, EndHour: 20})
		}},
	}
	for _, b := range builders {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		uploads := make([]transport.Upload, 0, n)
		var kept, dropped int
		for _, res := range w.City.Residents[:n] {
			d, err := device.New(device.Config{
				ID: res.User + "-ph", User: res.User,
				Movement: byUser[res.User][0],
				Filter:   b.build(res.Home),
			})
			if err != nil {
				return nil, err
			}
			spec := transport.TaskSpec{
				ID: "e11", Name: "e11", Script: collectScript,
				PeriodSeconds: 60, Sensors: []string{"gps"},
			}
			rr, err := d.RunTask(spec)
			if err != nil {
				return nil, err
			}
			kept += len(rr.Upload.Records)
			dropped += rr.Dropped
			rr.Upload.DeviceID = res.User
			uploads = append(uploads, rr.Upload)
		}
		res := w.attack.Run(homes, honeycomb.UploadsToDataset(uploads, nil))
		t.Rows = append(t.Rows, []string{
			b.name,
			fmt.Sprintf("%d", kept),
			fmt.Sprintf("%d", dropped),
			fmtPct(res.Recall()),
		})
	}
	return t, nil
}
