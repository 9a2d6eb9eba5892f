package main

import (
	"bytes"
	"context"
	"crypto/rand"
	"os"
	"path/filepath"
	"testing"

	"apisense/internal/mobgen"
	"apisense/internal/trace"
)

// publish runs `privapi publish` on in and returns the release's bytes.
func publish(t *testing.T, in string, extra ...string) []byte {
	t.Helper()
	out := filepath.Join(t.TempDir(), "release.csv")
	args := append([]string{"publish", "-in", in, "-out", out, "-floor", "1", "-parallelism", "2"}, extra...)
	if err := run(context.Background(), args); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func releaseUsers(t *testing.T, release []byte) map[string]bool {
	t.Helper()
	ds, err := trace.ReadCSV(bytes.NewReader(release))
	if err != nil {
		t.Fatal(err)
	}
	users := make(map[string]bool)
	for _, tr := range ds.Trajectories {
		users[tr.User] = true
	}
	if len(users) == 0 {
		t.Fatal("release holds no user")
	}
	return users
}

// TestPublishPseudonymKey: without a key file every publish draws its own
// key, so two releases of one dataset share no pseudonym; with one key
// file the release is byte-identical run to run.
func TestPublishPseudonymKey(t *testing.T) {
	dir := t.TempDir()
	ds, _, err := mobgen.Generate(mobgen.Config{Seed: 3, Users: 3, Days: 1})
	if err != nil {
		t.Fatal(err)
	}
	in := filepath.Join(dir, "traces.csv")
	if err := trace.SaveCSVFile(in, ds); err != nil {
		t.Fatal(err)
	}

	first, second := releaseUsers(t, publish(t, in)), releaseUsers(t, publish(t, in))
	for u := range first {
		if second[u] {
			t.Errorf("pseudonym %s appears in two releases drawn with fresh keys", u)
		}
	}

	keyFile := filepath.Join(dir, "release.key")
	key := make([]byte, 32)
	if _, err := rand.Read(key); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(keyFile, key, 0o600); err != nil {
		t.Fatal(err)
	}
	a := publish(t, in, "-pseudonym-key-file", keyFile)
	b := publish(t, in, "-pseudonym-key-file", keyFile)
	if !bytes.Equal(a, b) {
		t.Error("one key file gave two different releases")
	}
}

func TestPseudonymKeyRejectsEmptyOrMissingFile(t *testing.T) {
	dir := t.TempDir()
	empty := filepath.Join(dir, "empty.key")
	if err := os.WriteFile(empty, nil, 0o600); err != nil {
		t.Fatal(err)
	}
	if _, err := pseudonymKey(empty); err == nil {
		t.Error("an empty key file was accepted")
	}
	if _, err := pseudonymKey(filepath.Join(dir, "missing.key")); err == nil {
		t.Error("a missing key file was accepted")
	}
}
