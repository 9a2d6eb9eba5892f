package trace_test

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"apisense/internal/geo"
	"apisense/internal/mobgen"
	"apisense/internal/trace"
)

// TestCSVRejectsInvalidPositions: a row whose position is not a WGS84
// coordinate fails the read with its line number, whatever rows come
// before it, and a generated dataset still round-trips.
func TestCSVRejectsInvalidPositions(t *testing.T) {
	ds, _, err := mobgen.Generate(mobgen.Config{Seed: 1, Users: 4, Days: 2})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := trace.WriteCSV(&buf, ds); err != nil {
		t.Fatal(err)
	}
	back, err := trace.ReadCSV(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("generated dataset: %v", err)
	}
	// ReadCSV joins a user's consecutive days into one trajectory, so
	// compare the records in order.
	var want, got []trace.Record
	for _, tr := range ds.Trajectories {
		want = append(want, tr.Records...)
	}
	for _, tr := range back.Trajectories {
		got = append(got, tr.Records...)
	}
	if len(got) != len(want) {
		t.Fatalf("generated dataset read back %d of %d records", len(got), len(want))
	}
	for i := range want {
		if got[i].Time != want[i].Time || got[i].Pos != want[i].Pos || got[i].Accuracy != want[i].Accuracy {
			t.Fatalf("record %d read back as %+v, want %+v", i, got[i], want[i])
		}
	}

	lines := strings.SplitAfter(buf.String(), "\n")
	cases := []struct{ name, lat, lon string }{
		{"NaN latitude", "NaN", "4.8"},
		{"NaN longitude", "45.7", "NaN"},
		{"latitude 95", "95", "4.8"},
		{"latitude -95", "-95", "4.8"},
		{"longitude 181", "45.7", "181"},
		{"longitude -181", "45.7", "-181"},
		{"infinite latitude", "+Inf", "4.8"},
		{"infinite longitude", "45.7", "-Inf"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			edited := append([]string(nil), lines...)
			f := strings.Split(edited[49], ",") // the 49th record, line 50
			f[2], f[3] = c.lat, c.lon
			edited[49] = strings.Join(f, ",")
			_, err := trace.ReadCSV(strings.NewReader(strings.Join(edited, "")))
			want := fmt.Sprintf("trace: csv line 50: invalid position (lat %s, lon %s)", c.lat, c.lon)
			if err == nil || err.Error() != want {
				t.Errorf("ReadCSV = %v, want %q", err, want)
			}
		})
	}
	for _, edge := range []struct{ lat, lon string }{{"90", "180"}, {"-90", "-180"}, {"0", "0"}} {
		row := "alice,2014-12-08T08:00:00Z," + edge.lat + "," + edge.lon + ",0\n"
		if _, err := trace.ReadCSV(strings.NewReader(row)); err != nil {
			t.Errorf("position (%s, %s) at the bounds: %v", edge.lat, edge.lon, err)
		}
	}
}

// TestCSVRejectsOutOfRangeTimes: a timestamp an Instant cannot hold fails
// the read with its line number, rather than wrapping onto another instant
// (2300-01-01 would read as 1715-06-13 and share that instant's content
// hash); the first and last instants it holds read back exactly.
func TestCSVRejectsOutOfRangeTimes(t *testing.T) {
	const head = "user,time,lat,lon,accuracy\nalice,2014-12-08T08:00:00Z,45.7,4.8,0\n"
	for _, ts := range []string{
		"1677-01-01T00:00:00Z",
		"1677-09-21T00:12:43.145224191Z", // one nanosecond before the first
		"2262-04-11T23:47:16.854775808Z", // one nanosecond after the last
		"2262-04-12T00:47:16.854775808+01:00",
		"2263-01-01T00:00:00Z",
		"2300-01-01T00:00:00Z",
	} {
		_, err := trace.ReadCSV(strings.NewReader(head + "alice," + ts + ",45.7,4.8,0\n"))
		if want := "trace: csv line 3: timestamp out of range"; err == nil || err.Error() != want {
			t.Errorf("%s: ReadCSV = %v, want %q", ts, err, want)
		}
	}
	for ts, want := range map[string]trace.Instant{
		"1677-09-21T00:12:43.145224192Z":      math.MinInt64,
		"2262-04-11T23:47:16.854775807Z":      math.MaxInt64,
		"2262-04-12T00:47:16.854775807+01:00": math.MaxInt64, // the last, an hour east
	} {
		d, err := trace.ReadCSV(strings.NewReader(head + "alice," + ts + ",45.7,4.8,0\n"))
		if err != nil {
			t.Errorf("%s: %v", ts, err)
			continue
		}
		if got := d.Trajectories[0].Records[1].Time; got != want {
			t.Errorf("%s read as %d, want %d", ts, got, want)
		}
	}
}

// TestJSONRejectsOutOfRangeTimes: UnmarshalJSON refuses what ReadCSV
// refuses, and writes and reads back the boundary instants.
func TestJSONRejectsOutOfRangeTimes(t *testing.T) {
	for _, ts := range []string{"1677-01-01T00:00:00Z", "2263-01-01T00:00:00Z", "2300-01-01T00:00:00Z"} {
		in := `[{"user":"alice","records":[{"time":"2014-12-08T08:00:00Z","lat":45.7,"lon":4.8},{"time":"` + ts + `","lat":45.7,"lon":4.8}]}]`
		_, err := trace.ReadJSON(strings.NewReader(in))
		if err == nil || !strings.Contains(err.Error(), "record 1: timestamp out of range") {
			t.Errorf("%s: ReadJSON = %v, want a record 1 range error", ts, err)
		}
	}
	d := &trace.Dataset{Trajectories: []*trace.Trajectory{{User: "alice", Records: []trace.Record{
		{Time: math.MinInt64, Pos: geo.Point{Lat: 45.7, Lon: 4.8}},
		{Time: math.MaxInt64, Pos: geo.Point{Lat: 45.7, Lon: 4.8}},
	}}}}
	var buf bytes.Buffer
	if err := trace.WriteJSON(&buf, d); err != nil {
		t.Fatal(err)
	}
	back, err := trace.ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, d) {
		t.Errorf("boundary instants read back as %v, want %v", back.Trajectories[0].Records, d.Trajectories[0].Records)
	}
}

// FuzzReadCSV: whatever the input, ReadCSV either fails or returns records
// with valid positions, and WriteCSV then ReadCSV gives the dataset back
// trajectory for trajectory and record for record: the same instant and
// the same bits of position and accuracy.
func FuzzReadCSV(f *testing.F) {
	f.Add("user,time,lat,lon,accuracy\nalice,2014-12-08T08:00:00Z,45.764,4.8357,5\nalice,2014-12-08T08:01:00.5Z,45.765,4.8358,0\nbob,2014-12-08T08:00:00Z,45.7,4.8,12.5\n")
	f.Add("alice,2263-01-01T00:00:00Z,45.7,4.8,0\n")
	f.Add("alice,2014-12-08T09:00:00+01:00,45.7,4.8,0\n")
	f.Add("alice,1677-09-21T00:12:43.145224192Z,-90,-180,-0\nalice,2262-04-11T23:47:16.854775807Z,90,180,NaN\n")
	f.Fuzz(func(t *testing.T, in string) {
		d, err := trace.ReadCSV(strings.NewReader(in))
		if err != nil {
			return
		}
		for _, tr := range d.Trajectories {
			for j, r := range tr.Records {
				if !r.Pos.Valid() {
					t.Fatalf("record %d of %q has invalid position %v", j, tr.User, r.Pos)
				}
			}
		}
		var buf bytes.Buffer
		if err := trace.WriteCSV(&buf, d); err != nil {
			t.Fatal(err)
		}
		back, err := trace.ReadCSV(&buf)
		if err != nil {
			t.Fatalf("reading back %q: %v", buf.String(), err)
		}
		if len(back.Trajectories) != len(d.Trajectories) {
			t.Fatalf("read back %d trajectories, want %d", len(back.Trajectories), len(d.Trajectories))
		}
		for i, tr := range d.Trajectories {
			bt := back.Trajectories[i]
			if bt.User != tr.User || len(bt.Records) != len(tr.Records) {
				t.Fatalf("trajectory %d read back as %q/%d, want %q/%d", i, bt.User, len(bt.Records), tr.User, len(tr.Records))
			}
			for j, r := range tr.Records {
				b := bt.Records[j]
				if b.Time != r.Time || !sameBits(b.Pos.Lat, r.Pos.Lat) || !sameBits(b.Pos.Lon, r.Pos.Lon) || !sameBits(b.Accuracy, r.Accuracy) {
					t.Fatalf("record %d/%d read back as %+v, want %+v", i, j, b, r)
				}
			}
		}
	})
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
