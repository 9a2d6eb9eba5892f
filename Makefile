# Developer entry points. CI runs the same commands (see
# .github/workflows/ci.yml), so a green `make check` locally means a green
# pipeline short of the pinned external tools (staticcheck, govulncheck).

GO ?= go

.PHONY: all build lint docs test race examples check bench bench-quick fuzz-smoke fmt netlines

all: check

build:
	$(GO) build ./...

# lint = formatting, go vet, and the project's own analysis suite
# (cmd/apisenselint: lockfsync, detrange, ctxflow, errcode, detseed,
# doccomment). Includes the docs gate below, since apisenselint runs the
# doccomment analyzer over its scoped packages.
lint:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needs to run on:" >&2; echo "$$out" >&2; exit 1; fi
	$(GO) vet ./...
	$(GO) run ./cmd/apisenselint ./...

# docs fails when any exported symbol of the operator-facing packages
# (the surfaces docs/OPERATIONS.md and docs/ARCHITECTURE.md document)
# lacks a doc comment — the doccomment analyzer scoped to exactly those
# packages.
docs:
	$(GO) run ./cmd/apisenselint ./internal/hive ./internal/hive/store \
		./internal/ingest ./internal/core ./internal/obs ./internal/apierr \
		./internal/otrace

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# examples runs every examples/* program to completion: they are the
# facade's only non-test callers, and building them does not run them.
examples:
	@for d in examples/*/; do echo "== $${d%/}"; $(GO) run ./$${d%/} || exit 1; done

check: build lint test examples

# bench runs the repository's benchmark (bench/README.md): the four
# workloads, untraced then traced, into bench-results.json (ignored by
# git). Compare two such files, one per commit, with
# `go run ./bench -compare base.json change.json`. bench-quick is the
# seconds-long smoke run CI makes; its figures are not calibrated.
bench:
	$(GO) run ./bench -seed 1 -out bench-results.json

bench-quick:
	$(GO) run ./bench -seed 1 -out /dev/null -quick

# fuzz-smoke runs each fuzz target for 10 s; CI runs this target. The
# snapshot seeds are whole snapshots (KBs): without a minimisation cap the
# 10 s would go to minimising the first inputs that add coverage.
# FuzzParse is seeded with a nested script past the parser's depth limit.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzScoreMatchesReference$$' -fuzztime=10s ./internal/metrics/
	$(GO) test -run '^$$' -fuzz '^FuzzRestoreSnapshot$$' -fuzztime=10s -fuzzminimizetime=2s ./internal/hive/
	$(GO) test -run '^$$' -fuzz '^FuzzParse$$' -fuzztime=10s -fuzzminimizetime=2s ./internal/script/
	$(GO) test -run '^$$' -fuzz '^FuzzStayPointsMatchReference$$' -fuzztime=10s -fuzzminimizetime=2s ./internal/poi/
	$(GO) test -run '^$$' -fuzz '^FuzzWithinMatchesDistance$$' -fuzztime=10s ./internal/geo/
	$(GO) test -run '^$$' -fuzz '^FuzzMechanismAppend$$' -fuzztime=10s -fuzzminimizetime=2s ./internal/lppm/
	$(GO) test -run '^$$' -fuzz '^FuzzReadCSV$$' -fuzztime=10s -fuzzminimizetime=2s ./internal/trace/

fmt:
	gofmt -w .

# netlines prints the Go lines added, removed and net since BASE (any git
# revision), non-test code apart from tests: _test.go files and testdata/
# count as test. Usage: make netlines BASE=<rev>
netlines:
	@test -n "$(BASE)" || { echo "usage: make netlines BASE=<rev>" >&2; exit 2; }
	@git diff --numstat --no-renames $(BASE) -- '*.go' | awk ' \
		$$1 == "-" { next } \
		{ k = ($$3 ~ /_test\.go$$/ || $$3 ~ /(^|\/)testdata\//) ? 2 : 1; add[k] += $$1; del[k] += $$2 } \
		END { split("non-test test", name, " "); \
			for (k = 1; k <= 2; k++) printf "%-8s +%d -%d net %+d\n", name[k], add[k], del[k], add[k] - del[k] }'
