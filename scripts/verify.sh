#!/usr/bin/env sh
# Verification gate: build, test and lint the whole workspace (warnings are
# errors), then run every smoke stage.
#
#   ./scripts/verify.sh          # everything
#   ./scripts/verify.sh STAGE    # one stage: obs-smoke, perf-smoke,
#                                # serve-smoke, resume-smoke,
#                                # obs-query-smoke or lint-budget
#
# This is the one definition of each stage; the justfile recipes call it.
set -eu
cd "$(dirname "$0")/.."

STAGES="lint-budget obs-smoke perf-smoke serve-smoke resume-smoke obs-query-smoke"

enprop() {
    cargo run --release --offline -q -p enprop-cli -- "$@"
}

# The chaos replay every serving stage drives.
replay() {
    enprop replay --trace examples/replay_trace.jsonl \
        --mtbf 6 --stall 2 --slowdown 3 --repair 5 --seed 7 "$@"
}

core() {
    echo "==> cargo build --release"
    cargo build --release --workspace --offline
    # perfbench is a workspace of its own that builds the sim crates by
    # path; building it here catches library API changes that break it.
    echo "==> cargo build --release (perfbench)"
    cargo build --release --offline --manifest-path perfbench/Cargo.toml
    echo "==> cargo test"
    cargo test -q --workspace --offline
    echo "==> cargo clippy -D warnings"
    cargo clippy --workspace --all-targets --offline -- -D warnings
}

# enprop-lint (determinism, numeric hygiene, unit & lock coherence) plus
# its runtime budget (DESIGN.md §11, §15). The pass exits 0 clean / 1
# findings / 2 usage or I/O error. The whole-workspace scan must stay
# interactive (< 2000 ms), and its wall time lands next to the other perf
# gates (appends BENCH_lint_scan.json). Also pins the v2 JSON schema.
lint_budget() {
    if ! lint_json="$(cargo run --release --offline -q -p enprop-lint -- --json)"; then
        printf '%s\n' "$lint_json"
        echo "lint-budget: enprop-lint reported findings" >&2
        exit 1
    fi
    printf '%s\n' "$lint_json" | grep -q '"format":"enprop-lint-v2"'
    scan_ms="$(printf '%s' "$lint_json" | sed -n 's/.*"scan_ms":\([0-9][0-9]*\).*/\1/p')"
    test -n "$scan_ms"
    if [ "$scan_ms" -ge 2000 ]; then
        echo "lint-budget: scan took ${scan_ms} ms (budget 2000 ms)" >&2
        exit 1
    fi
    printf '{"cmd":"lint.scan","wall_ms":%s,"seed":1}\n' "$scan_ms" >> BENCH_lint_scan.json
    echo "lint-budget: OK (${scan_ms} ms)"
}

# Telemetry exports must stay well-formed: run a traced command and check
# both artifacts for their format markers.
obs_smoke() {
    enprop table4 --trace-out "$tmp/t.json" --metrics-out "$tmp/m.json" >/dev/null
    grep -q traceEvents "$tmp/t.json"
    grep -q enprop-obs-metrics-v1 "$tmp/m.json"
    echo "obs-smoke: OK"
}

# Perf regression gate for the evaluation pipeline (DESIGN.md §12, §17):
# perf_smoke appends BENCH_space_eval.json and exits 1 if the optimized
# path regresses past the sequential baseline or streaming loses its 2x
# edge at 10^6 configs. The new space_eval.stream_pruned (streamed sweep)
# and space_eval.sweep_cached_fn4 (materialized footnote-4 sweep + front)
# rows may then each cost at most 3x the best previously recorded run of
# the same row (skipped until history exists).
perf_smoke() {
    cargo run --release --offline -p enprop-bench --bin perf_smoke
    for row in stream_pruned sweep_cached_fn4; do
        trajectory "$row"
    done
}

# trajectory ROW: the newest space_eval.ROW wall time in
# BENCH_space_eval.json must be at most 3x the best earlier one.
trajectory() {
    rows="$(sed -n "s/.*\"cmd\":\"space_eval\.$1\",\"wall_ms\":\([0-9.][0-9.]*\).*/\1/p" \
        BENCH_space_eval.json)"
    if [ "$(printf '%s\n' "$rows" | grep -c .)" -ge 2 ]; then
        newest="$(printf '%s\n' "$rows" | tail -1)"
        best="$(printf '%s\n' "$rows" | sed '$d' | sort -g | head -1)"
        if [ "$(awk -v n="$newest" -v b="$best" 'BEGIN { print (n <= 3 * b) ? 1 : 0 }')" != 1 ]; then
            echo "perf-smoke: $1 regressed: ${newest} ms > 3x best ${best} ms" >&2
            exit 1
        fi
        echo "perf trajectory: $1 ${newest} ms (best recorded ${best} ms)"
    fi
}

# Serving-mode gate (DESIGN.md §13): replay the bundled arrival trace under
# an active chaos plan, assert a clean exit and the conservation
# invariant, then run the serve_replay throughput gate (appends
# BENCH_serve_replay.json).
serve_smoke() {
    out="$(replay)"
    printf '%s\n' "$out"
    printf '%s\n' "$out" | grep -q "conservation: OK"
    cargo run --release --offline -p enprop-bench --bin serve_replay
    echo "serve-smoke: OK"
}

# Crash-consistency gate (DESIGN.md §16): kill a checkpointed serving run
# mid-flight, resume it from the snapshot, and require the report and the
# telemetry tail to match the uninterrupted run bit for bit (appends the
# resume wall time to BENCH_serve_replay.json).
resume_smoke() {
    cargo build --release --offline -p enprop-cli
    ENPROP=./target/release/enprop ./scripts/resume_smoke.sh
}

# Observability-plane gate (DESIGN.md §14): record a chaos replay as a raw
# JSONL trace, drive `enprop obs` over it (the per-window report must
# carry the tail and energy columns and per-group rows; the trace query
# must resolve sketch quantiles), then run the obs_window bench — the
# windowed plane may cost at most 10% over the plane-off baseline.
obs_query_smoke() {
    replay --trace-out "$tmp/serve.jsonl" >/dev/null
    report="$(enprop obs report --trace "$tmp/serve.jsonl")"
    printf '%s\n' "$report" | grep -q p999_s
    printf '%s\n' "$report" | grep -q j_per_req
    printf '%s\n' "$report" | grep -q burn_fast
    printf '%s\n' "$report" | grep -q ' g0 '
    query="$(enprop obs query --trace "$tmp/serve.jsonl" \
        --name win.p99_s --quantiles win.p99_s)"
    printf '%s\n' "$query" | grep -q 'p99.9'
    cargo run --release --offline -p enprop-bench --bin obs_window
    echo "obs-query-smoke: OK"
}

run_stage() {
    echo "==> $1"
    case "$1" in
        lint-budget) lint_budget ;;
        obs-smoke) obs_smoke ;;
        perf-smoke) perf_smoke ;;
        serve-smoke) serve_smoke ;;
        resume-smoke) resume_smoke ;;
        obs-query-smoke) obs_query_smoke ;;
        *)
            echo "verify: unknown stage '$1' (stages: $STAGES)" >&2
            exit 2
            ;;
    esac
}

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

case "$#" in
    0)
        core
        for stage in $STAGES; do
            run_stage "$stage"
        done
        echo "verify: OK"
        ;;
    1) run_stage "$1" ;;
    *)
        echo "usage: $0 [STAGE]  (stages: $STAGES)" >&2
        exit 2
        ;;
esac
