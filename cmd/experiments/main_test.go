package main

import (
	"context"
	"strings"
	"testing"
)

// TestOnlyRejectsUnknownIDs: an -only list naming a table that does not
// exist fails before any workload is generated (-users 0 would make
// generation fail with a different error), and the error names the valid
// IDs.
func TestOnlyRejectsUnknownIDs(t *testing.T) {
	for _, only := range []string{"E9", "E1,E14", "e12"} {
		err := run(context.Background(), []string{"-users", "0", "-only", only})
		if err == nil {
			t.Fatalf("-only %s: no error", only)
		}
		msg := err.Error()
		if !strings.Contains(msg, "unknown experiment") {
			t.Errorf("-only %s: error %q is not the unknown-ID error", only, msg)
		}
		if !strings.Contains(msg, "E1, E2, E3, E4, E5, E6, E7, E8, E11, E13") {
			t.Errorf("-only %s: error %q does not list the valid IDs", only, msg)
		}
	}
}

// TestOnlyAcceptsKnownIDs: valid IDs, in any case and with blanks, get
// past validation to workload generation.
func TestOnlyAcceptsKnownIDs(t *testing.T) {
	err := run(context.Background(), []string{"-users", "0", "-only", " e1, E13 ,"})
	if err == nil || strings.Contains(err.Error(), "unknown experiment") {
		t.Fatalf("err = %v, want the workload-generation error", err)
	}
}
