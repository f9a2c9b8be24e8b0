GO ?= go

.PHONY: all build test check race bench bench-sim bench-pnr bench-defects table1 npn-table serve serve-smoke chaos-smoke clean

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# check is the pre-merge gate: static analysis (vet, gofmt, staticcheck)
# plus the full test suite under the race detector (short mode keeps the
# instrumented QuickSim and SAT race coverage while skipping the hour-long
# exhaustive sweeps). The next runs are race runs of the fan-outs that share
# internal/pool: the pool's own tests, the sharded QuickExact search (and
# the pinned searches of the degeneracy gap, one per key), gate validation
# (the gap's searches carry out the ground configuration its outputs are
# read from: the validation golden, the degenerate fallback and a
# cancelled validation), QuickSim's parallel starts (its golden, every golden case at one
# and two workers, and its allocations on two workers),
# the parallel operational-domain sweep
# (including its re-raised point panic) and the parallel defect sweep, all
# through their full (non-short) tests, together with concurrent QuickSim
# solves on one shared engine, concurrent exact
# P&R calls (each reusing one solver across its size search) and the
# solver's Reset-equals-New test. The last step runs
# the benchmark module's own tests (cmd/bench is a nested module, so
# ./... never reaches it); its toy run boots the service in-process and
# checks every answer. staticcheck runs when installed (CI installs it;
# locally: go install honnef.co/go/tools/cmd/staticcheck@latest).
check:
	$(GO) vet ./...
	test -z "$$(gofmt -l .)"
	@if command -v staticcheck >/dev/null 2>&1; then \
		echo staticcheck ./...; staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi
	$(GO) test -race -short ./...
	$(GO) test -race ./internal/pool
	$(GO) test -race -run 'TestDeterministicAcrossRunsAndWorkers|TestLargeInstanceExact|DegeneracyGap|TestQuickSimGolden|TestQuickSimWorkersAgree|TestQuickSimConcurrent|TestQuickSimParallelAllocs|TestParallelMatchesSerial|TestSweepMetrics|TestPointPanicReachesCaller|TestExactConcurrent|TestResetMatchesFresh|TestExactWarmAllocs|TestExactReuseAfterCancel' \
		./internal/sim ./internal/opdomain ./internal/pnr ./internal/sat
	$(GO) test -race -run 'TestSweepDeterministicAcrossWorkers|TestSweepCancellation' ./internal/defects/sweep
	$(GO) test -race -run 'TestValidateGolden|TestValidateDegenerateFallback|TestValidateCanceled' ./internal/gatelib
	cd cmd/bench && $(GO) test .

# race runs the complete suite under the race detector (slow).
race:
	$(GO) test -race ./...

# bench-sim compares the ground-state engines (blind ExGS enumeration vs
# pruned QuickExact branch-and-bound vs the QuickSim heuristic), times
# the pinned-search degeneracy gap and records the raw test2json event
# stream in BENCH_sim.json.
bench-sim:
	$(GO) test -run '^$$' -bench 'GroundState|DegeneracyGap' -benchmem -json ./internal/sim/... > BENCH_sim.json
	@grep -o '[^"]* ns/op[^"\\]*' BENCH_sim.json | sed 's/\\t/  /g' || true
	@echo "wrote BENCH_sim.json"

bench:
	$(GO) test -bench=. -benchmem -run=^$$ .

# bench-pnr records the exact P&R engine's per-aspect-ratio SAT solve
# times (grid dims, SAT/UNSAT, conflicts/propagations/restarts) across the
# benchmark netlists. Writes BENCH_pnr.json. Narrow with e.g.
# BENCHPNR_FLAGS="-benches xor2,mux21 -timeout 60s".
bench-pnr:
	$(GO) run ./cmd/benchpnr $(BENCHPNR_FLAGS)

# bench-defects runs the defect yield sweep: random surfaces at each
# density, the full gate library validated against each, plus small
# whole-flow yield probes. Writes BENCH_defects.json. Reduce with e.g.
# BENCHDEFECTS_FLAGS="-densities 0.2,1,4 -seeds 2 -flows ''".
bench-defects:
	$(GO) run ./cmd/defectsweep $(BENCHDEFECTS_FLAGS)

table1:
	$(GO) run ./cmd/table1

# npn-table regenerates internal/logic/npn/table.go, the exact NPN database
# rewriting reads: SAT exact synthesis of all 243 NPN classes of up to four
# inputs (a few minutes of CPU; the output does not depend on core count).
npn-table:
	$(GO) generate ./internal/logic/npn

# serve runs the design-service daemon on :8711.
serve:
	$(GO) run ./cmd/bestagond

# serve-smoke builds the real daemon binary, boots it, exercises every
# endpoint (cold + warm cache pass, async jobs, concurrent burst), and
# verifies graceful drain on SIGTERM.
serve-smoke:
	$(GO) run ./scripts/serve-smoke

# chaos-smoke boots the daemon with fault injection armed (worker panics,
# disk-cache I/O failures, solver deadline pressure, each at 20%) and
# asserts it survives a 200-request storm: no process exit, healthz 200
# throughout, warm cache responses byte-identical, panic/degrade/breaker
# metrics exposed, clean SIGTERM drain. CHAOS_RACE=1 builds the daemon
# with the race detector.
chaos-smoke:
	$(GO) run ./scripts/chaos-smoke

clean:
	$(GO) clean ./...
