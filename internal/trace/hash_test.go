package trace

import (
	"encoding/hex"
	"strings"
	"testing"
	"time"

	"apisense/internal/geo"
)

func hashFixture() *Trajectory {
	base := time.Date(2014, 12, 8, 8, 0, 0, 0, time.UTC)
	return &Trajectory{
		User: "user-1",
		Records: []Record{
			{Time: InstantOf(base), Pos: geo.Point{Lat: 45.76, Lon: 4.83}, Accuracy: 5},
			{Time: InstantOf(base.Add(time.Minute)), Pos: geo.Point{Lat: 45.761, Lon: 4.831}},
		},
	}
}

func TestContentHashStable(t *testing.T) {
	a, b := hashFixture(), hashFixture()
	if a.ContentHash() != b.ContentHash() {
		t.Error("identical trajectories must hash identically")
	}
	if a.Clone().ContentHash() != a.ContentHash() {
		t.Error("a clone must hash identically")
	}
}

func TestContentHashSensitivity(t *testing.T) {
	base := hashFixture()
	mutations := map[string]func(*Trajectory){
		"user":      func(tr *Trajectory) { tr.User = "user-2" },
		"time":      func(tr *Trajectory) { tr.Records[0].Time = tr.Records[0].Time.Add(time.Nanosecond) },
		"lat":       func(tr *Trajectory) { tr.Records[1].Pos.Lat += 1e-9 },
		"lon":       func(tr *Trajectory) { tr.Records[1].Pos.Lon -= 1e-9 },
		"accuracy":  func(tr *Trajectory) { tr.Records[0].Accuracy = 6 },
		"dropped":   func(tr *Trajectory) { tr.Records = tr.Records[:1] },
		"appended":  func(tr *Trajectory) { tr.Records = append(tr.Records, tr.Records[0]) },
		"userSplit": func(tr *Trajectory) { tr.User = "user-"; tr.Records = tr.Records[:0] },
	}
	want := base.ContentHash()
	for name, mutate := range mutations {
		tr := hashFixture()
		mutate(tr)
		if tr.ContentHash() == want {
			t.Errorf("mutation %q did not change the content hash", name)
		}
	}
}

// TestContentHashTimezoneInsensitive: a record holds an instant, not a
// zone, so the same instants read with another UTC offset hash the same.
func TestContentHashTimezoneInsensitive(t *testing.T) {
	var hashes [][HashSize]byte
	for _, rows := range []string{
		"user-1,2014-12-08T08:00:00Z,45.76,4.83,5\nuser-1,2014-12-08T08:01:00.5Z,45.761,4.831,0\n",
		"user-1,2014-12-08T09:00:00+01:00,45.76,4.83,5\nuser-1,2014-12-08T09:01:00.5+01:00,45.761,4.831,0\n",
	} {
		d, err := ReadCSV(strings.NewReader(rows))
		if err != nil {
			t.Fatal(err)
		}
		hashes = append(hashes, d.ContentHash())
	}
	if hashes[0] != hashes[1] {
		t.Error("the same instant in a different zone must hash identically")
	}
}

func TestDatasetContentHashOrderSensitive(t *testing.T) {
	t1, t2 := hashFixture(), hashFixture()
	t2.User = "user-2"
	a := &Dataset{Trajectories: []*Trajectory{t1, t2}}
	b := &Dataset{Trajectories: []*Trajectory{t2, t1}}
	if a.ContentHash() == b.ContentHash() {
		t.Error("dataset order must participate in the hash")
	}
	c := &Dataset{Trajectories: []*Trajectory{t1, t2}}
	if a.ContentHash() != c.ContentHash() {
		t.Error("equal datasets must hash identically")
	}
	if NewDataset().ContentHash() == a.ContentHash() {
		t.Error("empty dataset must not collide with a populated one")
	}
}

// goldenTrajectory builds n deterministic records in loc. Coordinates are
// integer ratios so no platform can fuse the arithmetic into a different
// rounding.
func goldenTrajectory(user string, n int, loc *time.Location) *Trajectory {
	base := time.Date(2014, 12, 8, 8, 0, 0, 123, time.UTC)
	tr := &Trajectory{User: user, Records: make([]Record, n)}
	for i := range tr.Records {
		tr.Records[i] = Record{
			Time:     InstantOf(base.Add(time.Duration(i) * 7 * time.Second).In(loc)),
			Pos:      geo.Point{Lat: float64(457600+i) / 10000, Lon: float64(48300-3*i) / 10000},
			Accuracy: float64(i % 13),
		}
	}
	return tr
}

// TestContentHashGolden pins the digests: cache keys address entries by
// them, so any encoding change must be deliberate. The record counts
// straddle the 64-record write batch.
func TestContentHashGolden(t *testing.T) {
	cet := time.FixedZone("CET", 3600)
	cases := []struct {
		name string
		tr   *Trajectory
		want string
	}{
		{"0 records", goldenTrajectory("user-1", 0, time.UTC),
			"23be650373d5f4aadfd6d2c46dea7f48e4e60df98ec5099cd9a446b64ccb8934"},
		{"1 record", goldenTrajectory("user-1", 1, time.UTC),
			"c6e4778658a4cf95773990ff630caa1f50ead66152770b24f42f3cd42530d9d0"},
		{"63 records", goldenTrajectory("user-1", 63, time.UTC),
			"355fcf02f2b1b05eb9ff13754f52f2d6c3a7897a19053c6d2811da6504b5c0e3"},
		{"64 records", goldenTrajectory("user-1", 64, time.UTC),
			"c768901c0164704f1bde023f198418843c67f2bb998352ae95c856daa1a370ac"},
		{"65 records", goldenTrajectory("user-1", 65, time.UTC),
			"8ca853ceb9c8301bbae7ef7de70695d6c12ff27633355647b65819f68c9dac2a"},
		{"1000 records", goldenTrajectory("user-1", 1000, time.UTC),
			"c9f355af7ef08f68d7e7db2b1f75a51ae3542c8381ee61e49d12a6675204f562"},
		{"empty user", goldenTrajectory("", 3, time.UTC),
			"b4db65d5ada39edaa964e5db8952198dcf2d3ddfc4e60574046eaf9dd7ac55ff"},
		{"non-UTC location", goldenTrajectory("user-2", 5, cet),
			"5b82277ef25f670ed8c51999b7c220ed6832ed524a784881e562cba233c98a11"},
		{"user longer than the batch", goldenTrajectory(strings.Repeat("u", 3000), 65, time.UTC),
			"5570ff5642611ed5e2b1ad86e8a136514b77a46850bde647ff9ef4faf97d26fd"},
	}
	for _, c := range cases {
		h := c.tr.ContentHash()
		if got := hex.EncodeToString(h[:]); got != c.want {
			t.Errorf("%s: ContentHash = %s, want %s", c.name, got, c.want)
		}
	}

	ds := &Dataset{Trajectories: []*Trajectory{
		goldenTrajectory("a", 2, time.UTC),
		goldenTrajectory("b", 70, cet),
		goldenTrajectory("a", 0, time.UTC),
	}}
	h := ds.ContentHash()
	if got, want := hex.EncodeToString(h[:]), "db1f92cea40a7acf82bb0602080ee0994fbe2fcfdf5d70e68fc5f4f0c63f418b"; got != want {
		t.Errorf("3-trajectory Dataset.ContentHash = %s, want %s", got, want)
	}
}

var hashSink [HashSize]byte

func BenchmarkContentHash(b *testing.B) {
	tr := goldenTrajectory("user-1", 1000, time.UTC)
	b.SetBytes(int64(len(tr.Records)) * 32) // instant, lat, lon, accuracy
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		hashSink = tr.ContentHash()
	}
}

func TestCombineHashes(t *testing.T) {
	h1, h2 := hashFixture().ContentHash(), func() [HashSize]byte {
		tr := hashFixture()
		tr.User = "other"
		return tr.ContentHash()
	}()
	if CombineHashes(h1, h2) == CombineHashes(h2, h1) {
		t.Error("combine must be order-sensitive")
	}
	if CombineHashes(h1) == CombineHashes(h1, h1) {
		t.Error("combine must be length-sensitive")
	}
	if CombineHashes(h1, h2) != CombineHashes(h1, h2) {
		t.Error("combine must be deterministic")
	}
}
