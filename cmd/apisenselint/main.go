// Command apisenselint runs the project's own static-analysis suite
// (internal/analysis/...) over the module: invariants that ordinary
// linters cannot know — determinism of the report pipeline, the
// no-fsync-under-lock rule of the Hive, the context conventions of the
// facade, the coded-error taxonomy of the HTTP boundary, and seed
// injection in every simulation path.
//
// Usage:
//
//	go run ./cmd/apisenselint ./...
//
// Patterns are directories; a trailing /... recurses. With no pattern the
// whole module is checked. Exit status: 0 clean, 1 findings, 2 usage or
// load failure. Suppress a single finding with
// `//lint:allow <analyzer> <reason>` on (or above) the flagged line; see
// the README's "Static analysis" section for the analyzer catalogue.
package main

import (
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"apisense/internal/analysis"
	"apisense/internal/analysis/ctxflow"
	"apisense/internal/analysis/detrange"
	"apisense/internal/analysis/detseed"
	"apisense/internal/analysis/doccomment"
	"apisense/internal/analysis/errcode"
	"apisense/internal/analysis/lockfsync"
)

// scoped pairs an analyzer with the import paths it patrols.
type scoped struct {
	analyzer *analysis.Analyzer
	// applies reports whether the analyzer runs on an import path; nil
	// means everywhere.
	applies func(importPath string) bool
}

// suite is the analyzer registry with its per-package scoping. Scoping
// lives here, not in the analyzers, so the fixtures under testdata can
// exercise each analyzer on any package name.
var suite = []scoped{
	// Concurrency invariants hold everywhere, binaries included.
	{lockfsync.Analyzer, nil},
	// Determinism of randomness holds everywhere: experiment binaries
	// take -seed flags for the same reason libraries take Config.Seed.
	{detseed.Analyzer, nil},
	// Byte-identical reports are a contract of the evaluation, metrics
	// and experiment-table paths — and of the evaluation cache, whose
	// hits must replay exactly what a cold run would compute.
	{detrange.Analyzer, under("apisense/internal/core", "apisense/internal/metrics",
		"apisense/internal/exp", "apisense/internal/attack", "apisense/internal/evalcache")},
	// Context discipline applies to library code; main packages and
	// examples legitimately root their own contexts.
	{ctxflow.Analyzer, func(path string) bool {
		return !strings.HasPrefix(path, "apisense/cmd/") && !strings.HasPrefix(path, "apisense/examples/")
	}},
	// The error taxonomy guards the HTTP/wire boundary, including the
	// ingest queue whose sentinels surface as 429/413/503 responses.
	// under() scoping is recursive, so internal/hive includes the
	// internal/hive/store engine and its store.* sentinel codes.
	{errcode.Analyzer, under("apisense/internal/hive", "apisense/internal/transport",
		"apisense/internal/ingest")},
	// The operator-facing packages are documentation surface: every
	// export is cited by docs/OPERATIONS.md or docs/ARCHITECTURE.md, so
	// an undocumented one is a runbook hole. Includes internal/hive/store
	// (the storage engine operators size with -segment-mb, -snapshot-every
	// and -store-shards). `make docs` runs exactly this scope.
	{doccomment.Analyzer, under("apisense/internal/hive", "apisense/internal/ingest",
		"apisense/internal/core", "apisense/internal/obs", "apisense/internal/apierr",
		"apisense/internal/otrace")},
}

// under matches an import path equal to or below any of the given roots.
func under(roots ...string) func(string) bool {
	return func(path string) bool {
		for _, r := range roots {
			if path == r || strings.HasPrefix(path, r+"/") {
				return true
			}
		}
		return false
	}
}

func main() {
	flag.Usage = usage
	flag.Parse()
	code, err := lint(flag.Args())
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	os.Exit(code)
}

func usage() {
	fmt.Fprintf(os.Stderr, "usage: apisenselint [dir|dir/...]...\n\nAnalyzers:\n")
	for _, s := range suite {
		fmt.Fprintf(os.Stderr, "\n%s\n\t%s\n", s.analyzer.Name, s.analyzer.Doc)
	}
}

func lint(patterns []string) (int, error) {
	root, module, err := moduleRoot()
	if err != nil {
		return 0, err
	}
	dirs, err := packageDirs(root, patterns)
	if err != nil {
		return 0, err
	}

	loader := analysis.NewLoader()
	var diags []analysis.Diagnostic
	for _, dir := range dirs {
		rel, err := filepath.Rel(root, dir)
		if err != nil {
			return 0, err
		}
		importPath := module
		if rel != "." {
			importPath = module + "/" + filepath.ToSlash(rel)
		}
		pkg, err := loader.Load(dir, importPath)
		if err != nil {
			return 0, err
		}
		for _, s := range suite {
			if s.applies != nil && !s.applies(importPath) {
				continue
			}
			ds, err := analysis.Run(s.analyzer, pkg)
			if err != nil {
				return 0, err
			}
			diags = append(diags, ds...)
		}
	}

	diags = dedupe(diags)
	for _, d := range diags {
		pos := loader.Fset().Position(d.Pos)
		rel, err := filepath.Rel(root, pos.Filename)
		if err != nil {
			rel = pos.Filename
		}
		fmt.Printf("%s:%d:%d: %s [%s]\n", rel, pos.Line, pos.Column, d.Message, d.Analyzer)
	}
	if len(diags) > 0 {
		fmt.Printf("apisenselint: %d finding(s)\n", len(diags))
		return 1, nil
	}
	return 0, nil
}

// dedupe drops repeated diagnostics: the driver runs several analyzers
// over each package, and framework-level findings (e.g. a malformed
// //lint:allow) surface once per analyzer run.
func dedupe(diags []analysis.Diagnostic) []analysis.Diagnostic {
	sort.Slice(diags, func(i, j int) bool {
		if diags[i].Pos != diags[j].Pos {
			return diags[i].Pos < diags[j].Pos
		}
		if diags[i].Analyzer != diags[j].Analyzer {
			return diags[i].Analyzer < diags[j].Analyzer
		}
		return diags[i].Message < diags[j].Message
	})
	out := diags[:0]
	for i, d := range diags {
		if i > 0 && d == diags[i-1] {
			continue
		}
		out = append(out, d)
	}
	return out
}

// moduleRoot finds the enclosing go.mod and returns its directory and
// module path.
func moduleRoot() (dir, module string, err error) {
	dir, err = os.Getwd()
	if err != nil {
		return "", "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
					return dir, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("apisenselint: %s/go.mod has no module line", dir)
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", "", fmt.Errorf("apisenselint: no go.mod found; run from inside the module")
		}
		dir = parent
	}
}

// packageDirs expands patterns into package directories. Directories
// named testdata (analysis fixtures) and hidden directories are skipped.
func packageDirs(root string, patterns []string) ([]string, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	seen := make(map[string]bool)
	var dirs []string
	add := func(dir string) {
		if hasGoFiles(dir) && !seen[dir] {
			seen[dir] = true
			dirs = append(dirs, dir)
		}
	}
	for _, p := range patterns {
		recursive := false
		if rest, ok := strings.CutSuffix(p, "/..."); ok {
			recursive = true
			p = rest
			if p == "." || p == "" {
				p = root
			}
		}
		abs, err := filepath.Abs(p)
		if err != nil {
			return nil, err
		}
		if !recursive {
			add(abs)
			continue
		}
		err = filepath.WalkDir(abs, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if name == "testdata" || (strings.HasPrefix(name, ".") && path != abs) {
				return filepath.SkipDir
			}
			add(path)
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	sort.Strings(dirs)
	return dirs, nil
}

// hasGoFiles reports whether dir directly contains a non-test Go file.
func hasGoFiles(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		name := e.Name()
		if !e.IsDir() && strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") {
			return true
		}
	}
	return false
}
