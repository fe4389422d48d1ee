# Developer entry points. `make check` is the one local gate: vet, build,
# the full race-enabled test suite (every package, not -short), ten extra
# repetitions of par's receive-progress lap and grid's halo tests, five
# of the checkpoint protocol's (capture on the step, commit on a writer
# goroutine), the restart-decoder, group-scaled round-trip, store-manifest
# and serve-query fuzz smokes, the audited CLI gate (conservation budget on four
# decomposed ranks), the one-day radiation-hold drift budget against the
# every-step twin, the dycore
# regrouping drift budget against the parent-arithmetic twin, the two-rank
# resilient rollback lap, and a smoke lap of the repo's one benchmark (bench/:
# every workload path once plus its own tests, no measurement — to measure,
# run bench/run.sh as bench/README.md describes) and of every package
# benchmark (one iteration each). Outside check: `make footprint` prints the
# ladder's memory columns, the live heap per atmosphere cell of each rung's
# assembled model after one step and the bytes its assembly allocates per
# rank, `make heapprofile` names the allocation
# sites that hold it on one rank and on two, and `make profile` / `make
# bench-atmos` say where the time goes.

GO ?= go
FUZZTIME ?= 10s

.PHONY: all build vet test race race-par race-resilient budget budget-rad budget-dycore fuzz resilient check bench-smoke bench-atmos profile heapprofile footprint clean

all: check

build:
	$(GO) build ./...

# bench/ is its own module, invisible to ./... from the root, and it calls
# into par and grid: vet it too so a signature change there shows up here.
# Any file gofmt would rewrite, in either module, fails the target too.
vet:
	@out=$$(gofmt -l $$($(GO) list -f '{{.Dir}}' ./...) bench | sort -u); \
	  if [ -n "$$out" ]; then echo "gofmt -l lists:"; echo "$$out"; exit 1; fi
	$(GO) vet ./...
	cd bench && $(GO) vet ./...

# bench/ is its own module, invisible to ./... from the root.
test:
	$(GO) test ./...
	cd bench && $(GO) test -short ./...

# The core lap alone takes ≈20 min under -race on a 2-core host, past go
# test's 10-minute default.
race:
	$(GO) test -race -timeout 45m ./...

# -count 10: the poll-then-park receive has three phases a message can land
# in, and which one a run exercises is up to the scheduler. grid rides along:
# its halo plans reuse a send buffer two exchanges later, which is safe only
# while every exchange sends one message to and receives one from each peer,
# and a broken symmetry shows only under some interleavings.
race-par:
	$(GO) test -race ./internal/par ./internal/grid -count 10

# The checkpoint protocol under the race detector, five times over: the
# writer goroutine commits each captured image while the model steps on, and
# where a fault lands against the write in flight is up to the scheduler.
# One pass takes ≈2.5 min on a 2-core host, so five pass go test's 10-minute
# default.
race-resilient:
	$(GO) test -race -count 5 -timeout 45m -run 'Resilient|Restart|ServeLive' ./internal/core

budget:
	$(GO) run ./cmd/ap3esm -config 25v10 -days 0.31 -ranks 4 -schedule conc -audit-gate 1e-10

# One simulated day of the model beside a twin that diagnoses surface
# radiation on every column every step: what holding GSW/GLW over the
# ocean-coupling interval costs, against the budget in DESIGN.md "Radiation
# step and hold". -v prints the measured drift.
budget-rad:
	$(GO) test ./internal/core -run '^TestRadiationHoldDrift$$' -count 1 -v

# The live dycore beside a twin that keeps the arithmetic PR 24 regrouped (a
# division in every level loop, 48 continuity terms per cell, a pow per
# level): one model step and 180, against the budgets in DESIGN.md "Operand
# grouping, re-baselined at PR 24", plus the conservation sums over a tracer
# window. -v prints the measured drift.
budget-dycore:
	$(GO) test ./internal/atmos -run '^TestDycoreRegroupingDrift$$' -count 1 -v

fuzz:
	$(GO) test ./internal/pario -run '^$$' -fuzz FuzzReadSubfile -fuzztime $(FUZZTIME)
	$(GO) test ./internal/precision -run '^$$' -fuzz FuzzGroupScaledRoundTrip -fuzztime $(FUZZTIME)
	$(GO) test ./internal/statestore -run '^$$' -fuzz FuzzManifestDecode -fuzztime $(FUZZTIME)
	$(GO) test ./internal/statestore -run '^$$' -fuzz FuzzServeQuery -fuzztime $(FUZZTIME)

resilient:
	dir=$$(mktemp -d) && { \
	  $(GO) run ./cmd/ap3esm -config 25v10 -days 0.31 -ranks 2 \
	    -checkpoint-every 5 -restart-dir "$$dir" -faults 'nan@esm.step:21'; \
	  rc=$$?; rm -rf "$$dir"; exit $$rc; }

# Also one pass of every package benchmark (the paper experiments' timing
# generators, e.g. ./internal/aiphys's BenchmarkAIPhysicsSuite), so none of
# them rots unrun.
bench-smoke:
	bash bench/run.sh -smoke
	cd bench && $(GO) test -short ./...
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# Where the coupled step's CPU time goes: the benchmark's model configuration
# for 135 coupling steps, five times over, top 15 functions by self time of
# the five profiles merged (pprof sums the profiles it is handed). One run is
# ≈180 samples at 100 Hz, and two single runs have disagreed on a 5 % function's
# share by 2×. Not part of check.
profile:
	dir=$$(mktemp -d) && { \
	  $(GO) build -o "$$dir/ap3esm" ./cmd/ap3esm && \
	  ( for i in 1 2 3 4 5; do \
	      "$$dir/ap3esm" -config 25v10 -days 0.75 -cpuprofile "$$dir/cpu$$i.prof" >/dev/null || exit 1; \
	    done ) && \
	  $(GO) tool pprof -top -nodecount=15 "$$dir/ap3esm" "$$dir"/cpu[1-5].prof; \
	  rc=$$?; rm -rf "$$dir"; exit $$rc; }

# Which arrays hold the live heap: the benchmark's model configuration (25v10,
# audit on) for 180 coupling steps with every allocation recorded, and the
# top 15 allocation sites by in-use bytes at the end of the run, the model
# still live — once on one rank (coupled_r1) and once on two
# (coupled_r2, both ranks' models in one heap). A heap claim names the arrays
# it removes from these lists. Not part of check.
heapprofile:
	dir=$$(mktemp -d) && { \
	  $(GO) build -o "$$dir/ap3esm" ./cmd/ap3esm && \
	  ( for r in 1 2; do \
	      echo "coupled_r$$r: -ranks $$r" && \
	      "$$dir/ap3esm" -config 25v10 -days 1 -ranks $$r -audit -memprofile "$$dir/heap$$r.prof" >/dev/null && \
	      $(GO) tool pprof -sample_index=inuse_space -top -nodecount=15 "$$dir/ap3esm" "$$dir/heap$$r.prof" || exit 1; \
	    done ); \
	  rc=$$?; rm -rf "$$dir"; exit $$rc; }

# The ladder's memory column: BenchmarkAssemble's B/cell, the live heap of
# each rung's model after assembly plus one step, per rank per owned
# atmosphere cell, on 1, 2, 4 and 8 ranks (columns r1, r2, r4, r8). Live heap is
# deterministic to a few bytes, so one pass is enough. Not part of check:
# bench-smoke already runs the benchmark once.
footprint:
	out=$$($(GO) test ./internal/core -run '^$$' -bench '^BenchmarkAssemble$$' -benchtime 1x) || { echo "$$out"; exit 1; }; \
	echo "$$out" | awk '/B\/cell/ { n = $$1; sub(/^BenchmarkAssemble\//, "", n); sub(/-[0-9]+$$/, "", n); split(n, p, "/"); \
		if (!(p[1] in seen)) { seen[p[1]] = 1; order[++k] = p[1] } \
		for (i = 2; i <= NF; i++) { if ($$i == "B/cell") v[p[1], p[2]] = $$(i-1); if ($$i == "setupB/rank") s[p[1], p[2]] = $$(i-1) } } \
		END { printf "%-6s %8s %8s %8s %8s  B/cell (live, after one step)\n", "rung", "r1", "r2", "r4", "r8"; \
		for (i = 1; i <= k; i++) printf "%-6s %8d %8d %8d %8d\n", order[i], v[order[i], "r1"], v[order[i], "r2"], v[order[i], "r4"], v[order[i], "r8"]; \
		printf "\n%-6s %8s %8s %8s %8s  setupB/rank (allocated by assembly)\n", "rung", "r1", "r2", "r4", "r8"; \
		for (i = 1; i <= k; i++) printf "%-6s %8d %8d %8d %8d\n", order[i], s[order[i], "r1"], s[order[i], "r2"], s[order[i], "r4"], s[order[i], "r8"] }'

# The atmosphere's sizing benchmark (internal/atmos/step_bench_test.go): a
# whole model step and the sweeps the dycore's layout work moves — the four
# U-reading sweeps, transport, the hydrostatic integral — on a level-3 × 8
# state spun up in-process. Six runs on one core; compare minima across two
# trees. Not part of check.
bench-atmos:
	$(GO) test ./internal/atmos -run '^$$' -bench . -count 6 -cpu 1

check: vet build race race-par race-resilient budget budget-rad budget-dycore fuzz resilient bench-smoke

clean:
	rm -rf .bench_build/
