GO ?= go

.PHONY: all build vet lint lint-only lint-flow lint-escape test test-race cover bench bench-pair experiments experiments-fast scenarios scenarios-check faults-sweep multich-sweep examples aircast-demo aircast-e2e clean

all: build vet lint test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Project static analysis: determinism, floatcompare, confinement,
# unitsafety, exhaustive, mergecomplete, byteclock, hotalloc, maporder
# and seedtaint, plus //airlint:allow /
# //airlint:hotpath directive checking (see internal/lint and
# DESIGN.md §7). escapecheck needs compiler output; see lint-escape.
lint:
	$(GO) run ./cmd/airlint ./...

# One analyzer at a time, for iterating on a fix:
#   make lint-only A=maporder
lint-only:
	$(GO) run ./cmd/airlint -only $(A) ./...

# Just the flow-sensitive pair (CFG + taint), for iterating on dataflow
# fixes without the rest of the suite.
lint-flow:
	$(GO) run ./cmd/airlint -only maporder,seedtaint ./...

# Cross-check //airlint:hotpath functions against the compiler's escape
# analysis: builds the module with -gcflags='-m -m' and fails on any
# heap escape inside a marked function (see DESIGN.md §7).
lint-escape:
	$(GO) run ./cmd/airlint -escape ./...

test:
	$(GO) test ./...

test-race:
	$(GO) test -race ./...

cover:
	$(GO) test -coverprofile=coverage.out ./...
	$(GO) tool cover -func=coverage.out | tail -1

bench:
	$(GO) test -bench=. -benchmem ./...

# Performance gate: measure HEAD against BASE on the committed
# benchmark's workloads (bench/run.sh) and on every scenarios/*.airql
# script, in 10 interleaved pairs, and fail when a BENCHMARK.json
# end-to-end metric is worse than its bound, failed operations rise or a
# run is incorrect. OUT names the JSON ledger (BENCH_<n>.json):
#   make bench-pair BASE=<rev> OUT=BENCH_<n>.json
bench-pair:
	$(GO) run ./cmd/benchpair -base "$(BASE)" -out "$(OUT)"

# Regenerate every paper figure and family at Table 1 settings (a few
# minutes), rewriting results/ in place; the same run as `scenarios`.
# results/table1.csv is a constants table, pinned by internal/airql's
# TestTable1 rather than regenerated.
experiments:
	$(GO) run ./cmd/airql -quiet -out . scenarios/*.airql

# Every scenario at the fast profile, printed as text (seconds, not
# minutes); the CSVs land in a throwaway directory.
experiments-fast:
	$(GO) run ./cmd/airql -fast -quiet -print text -out $$(mktemp -d) scenarios/*.airql

# Compile and run every scenarios/*.airql at the full paper profile,
# rewriting results/ in place. CI's airql-regen job runs the same thing
# into a scratch directory and byte-diffs it against the committed CSVs.
scenarios:
	$(GO) run ./cmd/airql -out . scenarios/*.airql

# Type-check every scenario script without running anything (the same
# gate CI runs before airql-regen).
scenarios-check:
	$(GO) run ./cmd/airql -check scenarios/*.airql

# Unreliable-channel degradation sweep: error rate 0-10% over all schemes
# (results/faults-at.csv, faults-tt.csv, faults-recovery.csv).
faults-sweep:
	$(GO) run ./cmd/airql -quiet -out . faults

# K-channel allocation sweep: K=1..8 replicated channels, free and
# one-page switch costs, over all schemes (results/multich-at.csv,
# multich-tt.csv). The K=1 rows match fig4a/fig5a exactly (CI gate).
multich-sweep:
	$(GO) run ./cmd/airql -quiet -out . multich

# Live broadcast daemon demo: serve one reconfiguration cycle
# in-process (epoch 1 -> 2 at a cycle boundary), resolve keys on both
# epochs, and scrape the daemon's own /metrics (see DESIGN.md §10).
aircast-demo:
	$(GO) run ./cmd/aircast -demo

# The daemon's end-to-end suite under the race detector: in-process,
# TCP and chaos-injected UDP transports against the simulator's
# byte-clock accounting.
aircast-e2e:
	$(GO) test -race -count=2 ./internal/aircast/ ./cmd/aircast/

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/stockticker
	$(GO) run ./examples/gis
	$(GO) run ./examples/customscheme
	$(GO) run ./examples/newsfeed

clean:
	rm -rf results
