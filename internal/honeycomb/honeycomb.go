// Package honeycomb implements the experimenter-side endpoint of APISENSE
// (§2 of the paper): "crowd-sensing tasks are uploaded on the Hive from
// Honeycomb endpoints, which are deployed and used by people interested in
// collecting specific datasets". A Honeycomb authors task scripts, deploys
// them through the Hive, collects the resulting uploads, converts them into
// mobility datasets, and — through the PRIVAPI hook — publishes
// privacy-preserving versions of them.
package honeycomb

import (
	"context"
	"fmt"
	"net/http"
	"sort"
	"time"

	"apisense/internal/core"
	"apisense/internal/geo"
	"apisense/internal/hive"
	"apisense/internal/trace"
	"apisense/internal/transport"
)

// Honeycomb is one experimenter endpoint.
type Honeycomb struct {
	name   string
	client *transport.Client
	store  *Store
}

// New creates a Honeycomb named name talking to the Hive at hiveURL.
func New(name, hiveURL string) (*Honeycomb, error) {
	if name == "" {
		return nil, fmt.Errorf("honeycomb: name is required")
	}
	if hiveURL == "" {
		return nil, fmt.Errorf("honeycomb: hive URL is required")
	}
	return &Honeycomb{name: name, client: transport.NewClient(hiveURL), store: NewStore()}, nil
}

// Name returns the endpoint name.
func (h *Honeycomb) Name() string { return h.name }

// Store returns the endpoint's dataset store.
func (h *Honeycomb) Store() *Store { return h.store }

// Deploy validates and publishes a task on the Hive, stamping this endpoint
// as the author. It returns the published spec (with Hive-assigned ID) and
// the recruited device IDs.
func (h *Honeycomb) Deploy(ctx context.Context, spec transport.TaskSpec) (transport.TaskSpec, []string, error) {
	spec.Author = h.name
	if err := spec.Validate(); err != nil {
		return transport.TaskSpec{}, nil, fmt.Errorf("honeycomb %s: %w", h.name, err)
	}
	var resp hive.PublishResponse
	if err := h.client.Do(ctx, http.MethodPost, "/api/tasks", spec, &resp); err != nil {
		return transport.TaskSpec{}, nil, fmt.Errorf("honeycomb %s: deploy: %w", h.name, err)
	}
	return resp.Task, resp.Recruited, nil
}

// Collect pulls the uploads of a task from the Hive and stores them.
func (h *Honeycomb) Collect(ctx context.Context, taskID string) ([]transport.Upload, error) {
	var ups []transport.Upload
	if err := h.client.Do(ctx, http.MethodGet, "/api/tasks/"+taskID+"/uploads", nil, &ups); err != nil {
		return nil, fmt.Errorf("honeycomb %s: collect %s: %w", h.name, taskID, err)
	}
	h.store.AddUploads(taskID, ups)
	return ups, nil
}

// DeviceUsers fetches the device-to-user mapping from the Hive, needed to
// attribute uploads to contributors.
func (h *Honeycomb) DeviceUsers(ctx context.Context) (map[string]string, error) {
	var devs []transport.DeviceInfo
	if err := h.client.Do(ctx, http.MethodGet, "/api/devices", nil, &devs); err != nil {
		return nil, fmt.Errorf("honeycomb %s: list devices: %w", h.name, err)
	}
	out := make(map[string]string, len(devs))
	for _, d := range devs {
		out[d.ID] = d.User
	}
	return out, nil
}

// BuildDataset converts the stored uploads of a task into a mobility
// dataset: GPS records become trajectories, one per (user, upload).
// Records lacking lat/lon are skipped.
func (h *Honeycomb) BuildDataset(taskID string, deviceUser map[string]string) *trace.Dataset {
	return UploadsToDataset(h.store.Uploads(taskID), deviceUser)
}

// UploadsToDataset converts raw uploads to a dataset using the given
// device-to-user mapping; unknown devices fall back to their device ID. It
// skips a record that is not a GPS fix, one whose position is not a WGS84
// coordinate (geo.Point.Valid) and one whose time an Instant cannot hold
// (trace.InRange).
func UploadsToDataset(ups []transport.Upload, deviceUser map[string]string) *trace.Dataset {
	ds := trace.NewDataset()
	for _, up := range ups {
		user := deviceUser[up.DeviceID]
		if user == "" {
			user = up.DeviceID
		}
		tr := &trace.Trajectory{User: user}
		for _, rec := range up.Records {
			lat, okLat := rec.Data["lat"].(float64)
			lon, okLon := rec.Data["lon"].(float64)
			pos, ts := geo.Point{Lat: lat, Lon: lon}, time.UnixMilli(rec.TimeMillis)
			if !okLat || !okLon || !pos.Valid() || !trace.InRange(ts) {
				continue
			}
			tr.Records = append(tr.Records, trace.Record{Time: trace.InstantOf(ts), Pos: pos})
		}
		if len(tr.Records) > 0 {
			tr.Sort()
			ds.Add(tr)
		}
	}
	return ds
}

// PublishPrivateContext runs the PRIVAPI middleware over a collected
// dataset and returns the protected release plus the strategy selection
// report. This is the integration point the paper describes: "PRIVAPI is a
// middleware handling privacy-preserving publication of mobility data ...
// that can be easily integrated on-top of APISENSE". Long publications are
// abandoned promptly when ctx is cancelled.
func (h *Honeycomb) PublishPrivateContext(ctx context.Context, raw *trace.Dataset, cfg core.Config) (*trace.Dataset, *core.Selection, error) {
	mw, err := h.middleware(raw, cfg)
	if err != nil {
		return nil, nil, err
	}
	return mw.PublishContext(ctx, raw)
}

// PublishPrivateShardedContext partitions the collected dataset with the
// given shard policy, runs the PRIVAPI strategy selection per shard on the
// shared Parallelism budget, and returns the merged release plus the
// aggregate per-shard report. This is how very large collections are
// published: each region or time window is protected by whichever strategy
// fits it best, and the release's privacy guarantee is the worst shard's.
func (h *Honeycomb) PublishPrivateShardedContext(ctx context.Context, raw *trace.Dataset, cfg core.Config, by core.ShardBy) (*trace.Dataset, *core.ShardedSelection, error) {
	mw, err := h.middleware(raw, cfg)
	if err != nil {
		return nil, nil, err
	}
	return mw.PublishShardedContext(ctx, raw, by)
}

// middleware builds a PRIVAPI engine anchored at the dataset's centre.
func (h *Honeycomb) middleware(raw *trace.Dataset, cfg core.Config) (*core.Middleware, error) {
	origin := geo.Point{Lat: 45.7640, Lon: 4.8357}
	if box, ok := raw.BBox(); ok {
		origin = box.Center()
	}
	mw, err := core.New(cfg, origin)
	if err != nil {
		return nil, fmt.Errorf("honeycomb %s: privapi: %w", h.name, err)
	}
	return mw, nil
}

// Store accumulates the uploads a Honeycomb collected, per task.
type Store struct {
	uploads map[string][]transport.Upload
}

// NewStore returns an empty store.
func NewStore() *Store { return &Store{uploads: make(map[string][]transport.Upload)} }

// AddUploads replaces the stored uploads of a task with the given batch
// (collection is idempotent: the Hive always returns the full history).
func (s *Store) AddUploads(taskID string, ups []transport.Upload) {
	s.uploads[taskID] = append([]transport.Upload(nil), ups...)
}

// Uploads returns the stored uploads of a task.
func (s *Store) Uploads(taskID string) []transport.Upload {
	return append([]transport.Upload(nil), s.uploads[taskID]...)
}

// Tasks lists the task IDs with stored data, sorted.
func (s *Store) Tasks() []string {
	out := make([]string, 0, len(s.uploads))
	for id := range s.uploads {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Records counts all stored records across tasks.
func (s *Store) Records() int {
	var n int
	for _, ups := range s.uploads {
		for _, u := range ups {
			n += len(u.Records)
		}
	}
	return n
}
