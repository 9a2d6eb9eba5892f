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
	runners := []func() (*Table, error){
		func() (*Table, error) { return E1POIRecovery(w) },
		func() (*Table, error) { return E2SpeedSmoothing(w) },
		func() (*Table, error) { return E3Linkage(w) },
		func() (*Table, error) { return E4CrowdedPlaces(w) },
		func() (*Table, error) { return E5Traffic(w) },
		func() (*Table, error) { return E6Frontier(w) },
		func() (*Table, error) { return E7Selection(context.Background(), w) },
		func() (*Table, error) { return E11Filters(w) },
	}
	var buf bytes.Buffer
	for _, run := range runners {
		tab, err := run()
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
