#!/bin/sh
# Paperbench smoke: the quick report must be byte-identical to the
# committed reference whatever the worker count. Regenerates with the
# default -parallel (GOMAXPROCS) and diffs against paperbench_quick.txt;
# pass a worker count as $1 to pin it (e.g. ./scripts/smoke.sh 1).
set -e
cd "$(dirname "$0")/.."
parallel="${1:-0}"

# Lint gate first: cheapest stage, fails fastest. staticcheck when the
# host has it, the gofmt formatting gate otherwise (see Makefile).
make -s lint
echo "smoke: lint clean"
out="$(mktemp)"
trap 'rm -f "$out"' EXIT
if [ "$parallel" -gt 0 ] 2>/dev/null; then
	go run ./cmd/paperbench -quiet -parallel "$parallel" > "$out"
else
	go run ./cmd/paperbench -quiet > "$out"
fi
# The trailing "complete in <wallclock>" line is timing, not report.
grep -v '^paperbench complete in ' "$out" > "$out.trim"
grep -v '^paperbench complete in ' paperbench_quick.txt > "$out.ref"
if ! diff -u "$out.ref" "$out.trim"; then
	rm -f "$out.trim" "$out.ref"
	echo "smoke: report drifted from paperbench_quick.txt" >&2
	exit 1
fi
rm -f "$out.trim" "$out.ref"
echo "smoke: report matches paperbench_quick.txt"

# Short fault-injection campaigns against static and Dynamic-PTMC: every
# injected fault must be detected or harmless — faultprobe exits non-zero
# on any silent corruption.
go run ./cmd/faultprobe -trials 100 -seed 1
go run ./cmd/faultprobe -dynamic -trials 100 -seed 1
echo "smoke: fault campaigns clean (static and dynamic)"

# Observability smoke: an instrumented quickstart run must produce a
# parseable Chrome trace with every always-present event kind and a
# structurally valid metrics snapshot series (obscheck validates both).
go run ./cmd/ptmcsim -workload lbm06 -scheme dynamic-ptmc \
	-insts 60000 -warmup 60000 \
	-metrics "$out.metrics" -trace "$out.trace" > /dev/null
go run ./cmd/obscheck -trace "$out.trace" -metrics "$out.metrics"
rm -f "$out.metrics" "$out.trace"
echo "smoke: observability artifacts valid"

# Trace round trip: record a short access trace, then replay it through
# the simulator (lazy first-touch pages, like a live workload) next to
# the uncompressed baseline.
go run ./cmd/tracetool record -workload lbm06 -ops 20000 -out "$out.trc" > /dev/null
go run ./cmd/tracetool replay -in "$out.trc" -baseline -cores 2 \
	-insts 20000 -warmup 20000 > "$out.replay"
grep -q 'weighted speedup over uncompressed' "$out.replay"
rm -f "$out.trc" "$out.replay"
echo "smoke: trace record/replay round trip"

# Determinism stage: the production path (cycle-skipping run loop, lazy
# first-touch pages, DRAM engine mode) must stay byte-identical to the
# per-cycle reference path for every scheme, an 8-core mix and a trace
# replay, each point run twice with the same seed, under the race detector.
go test -race -run 'TestEventDeterminismMatrix' ./internal/sim/ > /dev/null
echo "smoke: all-scheme determinism matrix clean under -race"

# Benchmark stage: the perfbench harness's own tests, including
# TestTracedRunMatchesPinnedFingerprint — the default configuration must
# reproduce the pinned mix1 and lowmlp result fingerprints, traced and
# untraced.
go -C perfbench test ./... > /dev/null
echo "smoke: perfbench fingerprints match"

# Chaos stage: the durable job queue's full campaign — 200 randomized
# crash / torn-write / cancellation trials, each adjudicated
# recovered/degraded with zero LOST jobs, under the race detector.
go test -race -count=1 -run 'TestChaosCampaign' ./internal/server/ > /dev/null
echo "smoke: chaos campaign clean (200 trials, zero lost)"

# Daemon crash-recovery stage: boot ptmcd, run a reference job to
# completion, then on a fresh store submit the same job, SIGKILL the
# daemon mid-simulation, restart over the same store, and require the
# replayed job to finish with a byte-identical result artifact. A sweep
# leg repeats the exercise for a 3x3 matrix: kill -9 mid-sweep, restart,
# byte-identical aggregate with zero re-simulated points. All daemons are
# stopped with SIGTERM and must drain cleanly (exit 0).
./scripts/smoke_ptmcd.sh
echo "smoke: daemon crash recovery byte-identical, drains exit 0"

# Daemon load stage: 200 mixed-priority jobs against the real binary,
# kill -9 mid-flight, restart — zero lost jobs, zero
# duplicate simulations (sims_run arithmetic), every artifact served.
./scripts/smoke_load.sh
echo "smoke: daemon load campaign clean (0 lost, 0 duplicate sims)"
