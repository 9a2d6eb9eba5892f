package trace

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func sampleDataset() *Dataset {
	d := NewDataset()
	d.Add(walkTrajectory("alice", 5, 1.2, 30*time.Second))
	d.Add(walkTrajectory("bob", 8, 2.5, 45*time.Second))
	d.Trajectories[0].Records[2].Accuracy = 12.5
	return d
}

func datasetsEqual(t *testing.T, a, b *Dataset) {
	t.Helper()
	if a.Len() != b.Len() {
		t.Fatalf("trajectory count %d vs %d", a.Len(), b.Len())
	}
	for i := range a.Trajectories {
		ta, tb := a.Trajectories[i], b.Trajectories[i]
		if ta.User != tb.User {
			t.Fatalf("trajectory %d user %q vs %q", i, ta.User, tb.User)
		}
		if ta.Len() != tb.Len() {
			t.Fatalf("trajectory %d len %d vs %d", i, ta.Len(), tb.Len())
		}
		for j := range ta.Records {
			ra, rb := ta.Records[j], tb.Records[j]
			if ra.Time != rb.Time || ra.Pos != rb.Pos || ra.Accuracy != rb.Accuracy {
				t.Fatalf("record %d/%d: %+v vs %+v", i, j, ra, rb)
			}
		}
	}
}

func TestCSVRoundTrip(t *testing.T) {
	d := sampleDataset()
	var buf bytes.Buffer
	if err := WriteCSV(&buf, d); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	datasetsEqual(t, d, back)
}

func TestCSVHeaderOptional(t *testing.T) {
	raw := "alice,2014-12-08T08:00:00Z,45.764,4.8357,0\n"
	d, err := ReadCSV(strings.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if d.NumRecords() != 1 {
		t.Fatalf("NumRecords = %d, want 1", d.NumRecords())
	}
}

func TestCSVErrors(t *testing.T) {
	cases := map[string]string{
		"bad time": "alice,notatime,45.0,4.0,0\n",
		"bad lat":  "alice,2014-12-08T08:00:00Z,xx,4.0,0\n",
		"bad lon":  "alice,2014-12-08T08:00:00Z,45.0,xx,0\n",
		"bad acc":  "alice,2014-12-08T08:00:00Z,45.0,4.0,xx\n",
		"short":    "alice,2014-12-08T08:00:00Z\n",
	}
	for name, raw := range cases {
		if _, err := ReadCSV(strings.NewReader(raw)); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestJSONRoundTrip(t *testing.T) {
	d := sampleDataset()
	var buf bytes.Buffer
	if err := WriteJSON(&buf, d); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	datasetsEqual(t, d, back)
}

func TestJSONDecodeError(t *testing.T) {
	if _, err := ReadJSON(strings.NewReader("{not json")); err == nil {
		t.Error("expected decode error")
	}
}

func TestCSVFileRoundTrip(t *testing.T) {
	d := sampleDataset()
	path := filepath.Join(t.TempDir(), "traces.csv")
	if err := SaveCSVFile(path, d); err != nil {
		t.Fatal(err)
	}
	back, err := LoadCSVFile(path)
	if err != nil {
		t.Fatal(err)
	}
	datasetsEqual(t, d, back)

	if _, err := LoadCSVFile(filepath.Join(t.TempDir(), "missing.csv")); err == nil {
		t.Error("loading a missing file should fail")
	}
}
