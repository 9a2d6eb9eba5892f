package exp

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

// updateGolden rewrites testdata/tables_seed101.golden.txt from the
// current tree. Regenerate it only with a change that means to move a
// number in a table.
var updateGolden = flag.Bool("update-golden", false, "rewrite internal/exp/testdata golden files")

// TestTablesMatchGolden pins the text of every table without a timing
// cell (E1–E7 and E11) on the shared seed-101 12×9 workload.
func TestTablesMatchGolden(t *testing.T) {
	w := workload(t)
	runners := []func(context.Context, *Workload) (*Table, error){
		E1POIRecovery, E2SpeedSmoothing, E3Linkage, E4CrowdedPlaces,
		E5Traffic, E6Frontier, E7Selection, E11Filters,
	}
	var buf bytes.Buffer
	for _, run := range runners {
		tab, err := run(context.Background(), w)
		if err != nil {
			t.Fatal(err)
		}
		tab.Fprint(&buf)
	}

	path := filepath.Join("testdata", "tables_seed101.golden.txt")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != string(want) {
		t.Errorf("tables differ from %s:\n%s", path, got)
	}
}
