#!/bin/sh
# Full local gate, equivalent to `make check`: vet, build, race-enabled
# tests, dedicated race stress laps over the concurrent component
# schedule, par's poll-then-park receive, the atmosphere partition and the
# decomposed atmosphere and ocean, the multi-world
# ensemble isolation paths, and the group-scaled compressed wire format,
# short fuzzes of the restart-file decoder and the group-scaled encoder
# round trip, the coupled conservation-budget gate on four decomposed
# ranks (conservative remap must close to 1e-10 relative) plus its
# compressed-wire twin on two ranks, a two-rank checkpoint/rollback lap
# through core.RunResilient with an injected mid-run NaN, a degraded
# ensemble lap (4 members on 2 rank groups, one member permanently
# failed, quorum 3/4), a serve-race lap storming the forecast store's
# query paths while it ingests live, a short fuzz of the store's manifest
# decoder, a mixed-kernel-precision race lap plus its audited CLI gate,
# the eight benchmarks writing BENCH_1.json through BENCH_8.json at
# the repo root, and a smoke lap of the repo's one benchmark under bench/
# (every workload path once plus its own short tests; no measurement).
set -eu
cd "$(dirname "$0")/.."

FUZZTIME="${FUZZTIME:-10s}"

echo "== go vet"
go vet ./...
echo "== go build"
go build ./...
echo "== go test -race (the core lap alone is ≈20 min on a 2-core host)"
go test -race -timeout 45m ./...
echo "== conc schedule race stress (2 ranks, p2p rearrange)"
go test -race ./internal/core -run 'TestConcScheduleRaceStress|TestConcSeqBitForBit' -count 1
echo "== par race lap (poll-then-park receive: before/during/after the poll, oversubscribed ring)"
go test -race ./internal/par -count 10
echo "== decomposed atmosphere race lap (partition properties; 4 ranks, both schedules, halo p2p)"
go test -race ./internal/grid -run 'TestIcosDecomp' -count 1
go test -race ./internal/core -run 'TestDecompRankCountInvariance|TestDecompRestartRoundTrip' -count 1
echo "== decomposed ocean/ice race lap (tripolar halos, serial-parallel equivalence)"
go test -race ./internal/grid -run 'TestTripolar' -count 1
go test -race ./internal/ocean ./internal/seaice -run 'TestSerialParallelEquivalence|TestParallelSerialIceAgreement|TestCompactionComposesWithBlockPartition' -count 1
echo "== ensemble isolation race lap (two concurrent worlds, dispatch alloc audit, shared fault plan)"
go test -race ./internal/ensemble -run 'TestTwoWorldsStepConcurrently|TestDispatchPathDoesNotAllocate' -count 1
go test -race ./internal/fault -run 'TestPlanConcurrentUse' -count 1
echo "== compressed wire race lap (gs32 halos + rearrangers, audited)"
go test -race ./internal/core -run 'TestWireGS32ConservationAudit' -count 1 -short
echo "== mixed kernel precision race lap (float32 kernel instantiations, audited)"
go test -race ./internal/core -run 'TestKernelPrecisionMixedConservationAudit' -count 1 -short
echo "== serve race lap (concurrent query storm against a live ingesting store)"
go test -race ./internal/statestore -run 'TestConcurrentQueryStorm|TestAnalogPipelineMatchesBruteForce' -count 1
go test -race ./internal/core -run 'TestServeLiveIngest' -count 1
echo "== fuzz FuzzReadSubfile ($FUZZTIME)"
go test ./internal/pario -run '^$' -fuzz FuzzReadSubfile -fuzztime "$FUZZTIME"
echo "== fuzz FuzzGroupScaledRoundTrip ($FUZZTIME)"
go test ./internal/precision -run '^$' -fuzz FuzzGroupScaledRoundTrip -fuzztime "$FUZZTIME"
echo "== fuzz FuzzManifestDecode ($FUZZTIME)"
go test ./internal/statestore -run '^$' -fuzz FuzzManifestDecode -fuzztime "$FUZZTIME"
echo "== conservation budget gate (cons remap, 4 decomposed ranks, conc schedule, 1e-10)"
go run ./cmd/ap3esm -config 25v10 -days 0.31 -ranks 4 -schedule conc -remap cons -audit-gate 1e-10
echo "== compressed wire budget gate (gs32, 2 ranks, conc schedule, 1e-10)"
go run ./cmd/ap3esm -config 25v10 -days 0.31 -ranks 2 -schedule conc -remap cons -wire gs32 -audit-gate 1e-10
echo "== mixed kernel budget gate (kprec mixed, 2 ranks, conc schedule, 1e-10)"
go run ./cmd/ap3esm -config 25v10 -days 0.31 -ranks 2 -schedule conc -remap cons -kprec mixed -audit-gate 1e-10
echo "== resilient rollback lap (2 decomposed ranks, checkpoint + injected NaN)"
RESTART_DIR="$(mktemp -d)"
go run ./cmd/ap3esm -config 25v10 -days 0.31 -ranks 2 -remap cons \
  -checkpoint-every 5 -restart-dir "$RESTART_DIR" -faults 'nan@esm.step:21'
rm -rf "$RESTART_DIR"
echo "== degraded ensemble lap (4 members, 2 rank groups, 1 permanent failure, quorum 3/4)"
go run ./cmd/ensemble -members 4 -groups 2 -quorum 3 -attempts 2 -retries 1 \
  -member-faults '1=nan@esm.step:1:repeat' -expect-completed 3 -expect-quarantined 1
echo "== bench1"
go run ./cmd/bench1 -out BENCH_1.json
echo "== bench2 smoke (schema self-validation)"
go run ./cmd/bench2 -steps 6 -out /tmp/bench2_smoke.json
rm -f /tmp/bench2_smoke.json
echo "== bench2"
go run ./cmd/bench2 -out BENCH_2.json
echo "== bench3 smoke (schema self-validation)"
go run ./cmd/bench3 -steps 8 -out /tmp/bench3_smoke.json
rm -f /tmp/bench3_smoke.json
echo "== bench3"
go run ./cmd/bench3 -out BENCH_3.json
echo "== bench4 smoke (schema self-validation)"
go run ./cmd/bench4 -steps 8 -out /tmp/bench4_smoke.json
rm -f /tmp/bench4_smoke.json
echo "== bench4"
go run ./cmd/bench4 -out BENCH_4.json
echo "== bench5 smoke (schema self-validation, sub-gate stall)"
go run ./cmd/bench5 -members 4 -hours 0.25 -stall 200ms -out /tmp/bench5_smoke.json
rm -f /tmp/bench5_smoke.json
echo "== bench5"
go run ./cmd/bench5 -out BENCH_5.json
echo "== bench6 smoke (schema self-validation)"
go run ./cmd/bench6 -steps 6 -out /tmp/bench6_smoke.json
rm -f /tmp/bench6_smoke.json
echo "== bench6"
go run ./cmd/bench6 -out BENCH_6.json
echo "== bench7 smoke (schema self-validation, QPS + analog gates)"
go run ./cmd/bench7 -steps 10 -snapshots 12 -queries 1200 -out /tmp/bench7_smoke.json
rm -f /tmp/bench7_smoke.json
echo "== bench7"
go run ./cmd/bench7 -out BENCH_7.json
echo "== bench8 smoke (schema self-validation)"
go run ./cmd/bench8 -steps 6 -out /tmp/bench8_smoke.json
rm -f /tmp/bench8_smoke.json
echo "== bench8"
go run ./cmd/bench8 -out BENCH_8.json
echo "== bench smoke (bench/run.sh -smoke + the bench module's short tests)"
bash bench/run.sh -smoke
(cd bench && go test -short ./...)
