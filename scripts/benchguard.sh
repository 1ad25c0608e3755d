#!/bin/sh
# Benchmark-regression guard: run the microbenchmark subset and compare
# against the checked-in baseline. Fails (exit 1) when any benchmark is
# more than the tolerance (default 25%) slower than BENCH_baseline.json.
#
#   scripts/benchguard.sh            # compare against the baseline
#   scripts/benchguard.sh -update    # re-run and rewrite the baseline
#
# The guarded set is the stable microbenchmarks plus the small table
# pipelines and the streaming-vs-buffered campaign cell — not the full
# campaign benchmarks, whose multi-second runtimes would drown the signal
# in runner noise. -benchmem is on so the guard also pins allocs/op,
# which is deterministic and catches a stray per-event allocation even on
# noisy runners.
set -eu
cd "$(dirname "$0")/.."

BENCHES='^(BenchmarkTable1|BenchmarkTable3|BenchmarkSchedulerSpawnJoin|BenchmarkChannelPingPong|BenchmarkSelectTwoReady|BenchmarkDetectGoat|BenchmarkCampaignCellBuffered|BenchmarkCheckpointJournalAppend|BenchmarkCheckpointJournalReplay|BenchmarkCampaignCellStreaming|BenchmarkServiceCell|BenchmarkServiceCellTimeline|BenchmarkTelemetryOverheadOff|BenchmarkTelemetryOverheadOn|BenchmarkHBEngine|BenchmarkPredictMine|BenchmarkSystematicExploreDPOR|BenchmarkIngestParse|BenchmarkProfileBuild|BenchmarkDPORRacingPairs)$'
OUT="$(mktemp)"
trap 'rm -f "$OUT"' EXIT

go test -run='^$' -bench="$BENCHES" -benchtime=0.2s -benchmem -count=1 . | tee "$OUT"

if [ "${1:-}" = "-update" ]; then
    go run ./cmd/goatbench -compare "$OUT" -update-baseline
else
    go run ./cmd/goatbench -compare "$OUT"
fi
