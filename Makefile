# Convenience targets; everything is plain `go` underneath.

.PHONY: all build test vet verify bench bench-save benchstat race fuzz goldens ci experiments clean

all: build vet test

build:
	go build ./...

vet:
	go vet ./...

test:
	go test ./...

# Statistical conformance gate: runs the paper-claim table (SPRT-bounded
# campaigns, exhaustive code checks, evaluator differential sweep) and
# exits nonzero unless every claim is CONFIRMED. See internal/conformance.
verify:
	go run ./cmd/xedverify

race:
	go test -race -short ./...

bench:
	go test -bench=. -benchmem ./...

# Benchmark-regression workflow: `make bench-save` snapshots the current
# tree's numbers (bench.old on the first run, bench.new afterwards), then
# `make benchstat` compares them. benchstat is optional — when the tool is
# not on PATH the comparison prints both files for eyeballing instead.
BENCH_PKGS ?= ./...
BENCH_PATTERN ?= .
BENCH_COUNT ?= 6

bench-save:
	@if [ -f bench.old ]; then out=bench.new; else out=bench.old; fi; \
	echo "saving $$out"; \
	go test -run='^$$' -bench='$(BENCH_PATTERN)' -benchmem -count=$(BENCH_COUNT) $(BENCH_PKGS) | tee $$out

benchstat:
	@if [ ! -f bench.old ] || [ ! -f bench.new ]; then \
		echo "need bench.old and bench.new (run 'make bench-save' on each tree)"; exit 1; \
	fi; \
	if command -v benchstat >/dev/null 2>&1; then \
		benchstat bench.old bench.new; \
	else \
		echo "benchstat not installed (go install golang.org/x/perf/cmd/benchstat@latest)"; \
		echo "--- bench.old ---"; grep '^Benchmark' bench.old; \
		echo "--- bench.new ---"; grep '^Benchmark' bench.new; \
	fi

# One -fuzz target per invocation is a go tool constraint; FUZZTIME
# scales all of them.
FUZZTIME ?= 30s
fuzz:
	go test -fuzz='^FuzzCode64$$' -fuzztime=$(FUZZTIME) -run='^$$' ./internal/ecc/
	go test -fuzz=FuzzCRC8Miscorrection -fuzztime=$(FUZZTIME) -run='^$$' ./internal/ecc/
	go test -fuzz=FuzzRSErasureRoundTrip -fuzztime=$(FUZZTIME) -run='^$$' ./internal/ecc/
	go test -fuzz=FuzzLinearCodeVsNaive -fuzztime=$(FUZZTIME) -run='^$$' ./internal/ecc/
	go test -fuzz=FuzzEvaluatorVsReference -fuzztime=$(FUZZTIME) -run='^$$' ./internal/faultsim/
	go test -fuzz=FuzzLaneVsIndexedEvaluator -fuzztime=$(FUZZTIME) -run='^$$' ./internal/faultsim/
	go test -fuzz=FuzzBatchGenVsScalar -fuzztime=$(FUZZTIME) -run='^$$' ./internal/faultsim/
	go test -fuzz=FuzzEDACDumpRoundTrip -fuzztime=$(FUZZTIME) -run='^$$' ./internal/fleet/
	go test -fuzz=FuzzHARPVerdictVsProfile -fuzztime=$(FUZZTIME) -run='^$$' ./internal/fleet/
	go test -fuzz=FuzzWakeVsEveryCycle -fuzztime=$(FUZZTIME) -run='^$$' ./internal/memsim/

# Regenerate every golden file from the current tree: memsim's results,
# the examples' stdout, xedmemtest's and xedmemsim's runs, and the
# campaign and fleet identity files. A change meant to move numbers runs
# this and explains the diff; `go test ./...` checks the files.
goldens:
	go test ./internal/memsim -run '^TestGoldenResults$$' -update
	go test . -run '^TestExamplesSmoke$$' -update
	go test ./cmd/xedmemtest -run '^TestGolden$$' -update
	go test ./cmd/xedmemsim -run '^TestGolden$$' -update
	go test ./internal/faultsim -run '^TestIdentityGolden$$' -update
	go test ./internal/fleet -run '^TestIdentityGolden$$' -update

# Everything CI's test and race jobs run (see .github/workflows/ci.yml),
# runnable locally, apart from the three smokes that interrupt or kill
# background processes (interrupted resume, service chaos, fleet resume).
# `make fuzz` covers the fuzz job.
ci:
	test -z "$$(gofmt -l . | tee /dev/stderr)"
	go vet ./...
	go build ./...
	go test ./...
	cd benchmark && go vet ./... && go test ./...
	go run ./cmd/xedverify
	@bin=$$(mktemp -d); for dir in cmd/*/; do name=$$(basename $$dir); \
		go build -o $$bin/$$name ./$$dir || exit 1; \
		$$bin/$$name -h 2>/dev/null || { echo "$$name -h exited $$?, want 0"; exit 1; }; \
		code=0; $$bin/$$name stray 2>/dev/null || code=$$?; \
		[ $$code -eq 2 ] || { echo "$$name stray exited $$code, want 2"; exit 1; }; \
	done; rm -rf $$bin
	@dir=$$(mktemp -d); go build -o $$dir/xedtrace ./cmd/xedtrace && \
		$$dir/xedtrace -capture -trials 200000 -seed 5 -scaling 1e-4 -out $$dir/trace.json && \
		$$dir/xedtrace -stats $$dir/trace.json && \
		$$dir/xedtrace -judge $$dir/trace.json; code=$$?; rm -rf $$dir; exit $$code
	go test -race -short ./...
	go test -run='^$$' -bench=. -benchtime=1x ./...
	go run ./tools/reach

# Regenerate every table and figure of the paper (see EXPERIMENTS.md).
experiments:
	go run ./cmd/xedcodes    -experiment all
	go run ./cmd/xedfaultsim -experiment all -systems 4000000
	go run ./cmd/xedmemsim   -experiment all -instr 200000

clean:
	go clean ./...
	rm -f bench.old bench.new
