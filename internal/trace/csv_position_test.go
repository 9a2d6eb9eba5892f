package trace_test

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

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
		if !got[i].Time.Equal(want[i].Time) || got[i].Pos != want[i].Pos || got[i].Accuracy != want[i].Accuracy {
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
