# Developer entry points. `make check` is the full local gate: vet, build,
# race-enabled tests (including the concurrent-schedule and decomposed-
# atmosphere/ocean stress laps, the par receive-progress and atmosphere
# partition laps, plus the multi-world ensemble isolation lap and the
# compressed-wire lap), the restart-decoder and group-scaled
# round-trip fuzz smokes, the conservation-budget gate on four decomposed
# ranks (plus its compressed-wire twin), the two-rank resilient rollback
# lap, the degraded ensemble lap (one member permanently failed, quorum
# 3/4), the serve-race lap (concurrent query storm against a live
# ingesting forecast store), the mixed-kernel-precision race lap plus its
# audited CLI gate, the eight benchmarks (BENCH_1.json through
# BENCH_8.json), and a smoke lap of the repo's one benchmark (bench/: every
# workload path once plus its own tests, no measurement — to measure, run
# bench/run.sh as bench/README.md describes).

GO ?= go
FUZZTIME ?= 10s

.PHONY: all build vet test race race-conc race-par race-decomp race-ocn-decomp race-ensemble race-wire race-kernels serve-race fuzz budget resilient ensemble check bench bench2 bench3 bench4 bench5 bench6 bench7 bench8 bench-smoke clean

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# The core lap alone takes ≈20 min under -race on a 2-core host, past go
# test's 10-minute default.
race:
	$(GO) test -race -timeout 45m ./...

race-conc:
	$(GO) test -race ./internal/core -run 'TestConcScheduleRaceStress|TestConcSeqBitForBit' -count 1

# -count 10: the poll-then-park receive has three phases a message can land
# in, and which one a run exercises is up to the scheduler.
race-par:
	$(GO) test -race ./internal/par -count 10

race-decomp:
	$(GO) test -race ./internal/grid -run 'TestIcosDecomp' -count 1
	$(GO) test -race ./internal/core -run 'TestDecompRankCountInvariance|TestDecompRestartRoundTrip' -count 1

race-ocn-decomp:
	$(GO) test -race ./internal/grid -run 'TestTripolar' -count 1
	$(GO) test -race ./internal/ocean ./internal/seaice -run 'TestSerialParallelEquivalence|TestParallelSerialIceAgreement|TestCompactionComposesWithBlockPartition' -count 1

race-ensemble:
	$(GO) test -race ./internal/ensemble -run 'TestTwoWorldsStepConcurrently|TestDispatchPathDoesNotAllocate' -count 1
	$(GO) test -race ./internal/fault -run 'TestPlanConcurrentUse' -count 1

race-wire:
	$(GO) test -race ./internal/core -run 'TestWireGS32ConservationAudit' -count 1 -short
	$(GO) run ./cmd/ap3esm -config 25v10 -days 0.31 -ranks 2 -schedule conc -remap cons -wire gs32 -audit-gate 1e-10

race-kernels:
	$(GO) test -race ./internal/core -run 'TestKernelPrecisionMixedConservationAudit' -count 1 -short
	$(GO) run ./cmd/ap3esm -config 25v10 -days 0.31 -ranks 2 -schedule conc -remap cons -kprec mixed -audit-gate 1e-10

serve-race:
	$(GO) test -race ./internal/statestore -run 'TestConcurrentQueryStorm|TestAnalogPipelineMatchesBruteForce' -count 1
	$(GO) test -race ./internal/core -run 'TestServeLiveIngest' -count 1

fuzz:
	$(GO) test ./internal/pario -run '^$$' -fuzz FuzzReadSubfile -fuzztime $(FUZZTIME)
	$(GO) test ./internal/precision -run '^$$' -fuzz FuzzGroupScaledRoundTrip -fuzztime $(FUZZTIME)
	$(GO) test ./internal/statestore -run '^$$' -fuzz FuzzManifestDecode -fuzztime $(FUZZTIME)

budget:
	$(GO) run ./cmd/ap3esm -config 25v10 -days 0.31 -ranks 4 -schedule conc -remap cons -audit-gate 1e-10

resilient:
	$(GO) run ./cmd/ap3esm -config 25v10 -days 0.31 -ranks 2 -remap cons \
	  -checkpoint-every 5 -restart-dir /tmp/ap3esm-resilient -faults 'nan@esm.step:21'
	rm -rf /tmp/ap3esm-resilient

ensemble:
	$(GO) run ./cmd/ensemble -members 4 -groups 2 -quorum 3 -attempts 2 -retries 1 \
	  -member-faults '1=nan@esm.step:1:repeat' -expect-completed 3 -expect-quarantined 1

bench:
	$(GO) run ./cmd/bench1 -out BENCH_1.json

bench2:
	$(GO) run ./cmd/bench2 -out BENCH_2.json

bench3:
	$(GO) run ./cmd/bench3 -out BENCH_3.json

bench4:
	$(GO) run ./cmd/bench4 -out BENCH_4.json

bench5:
	$(GO) run ./cmd/bench5 -out BENCH_5.json

bench6:
	$(GO) run ./cmd/bench6 -out BENCH_6.json

bench7:
	$(GO) run ./cmd/bench7 -out BENCH_7.json

bench8:
	$(GO) run ./cmd/bench8 -out BENCH_8.json

bench-smoke:
	bash bench/run.sh -smoke
	cd bench && $(GO) test -short ./...

check: vet build race race-conc race-par race-decomp race-ocn-decomp race-ensemble race-wire race-kernels serve-race fuzz budget resilient ensemble bench bench2 bench3 bench4 bench5 bench6 bench7 bench8 bench-smoke

clean:
	rm -f BENCH_1.json BENCH_2.json BENCH_3.json BENCH_4.json BENCH_5.json BENCH_6.json BENCH_7.json BENCH_8.json
