# Developer task runner. `just verify` is the gate every change must pass;
# it and every stage recipe run `./scripts/verify.sh`.

# Build, test and lint the whole workspace (warnings are errors), then run
# every smoke stage below. Each stage is defined once, in
# scripts/verify.sh; the recipes here only name it.
verify:
    ./scripts/verify.sh

# Lint pass plus its runtime budget (< 2 s; appends BENCH_lint_scan.json).
lint-budget:
    ./scripts/verify.sh lint-budget

# Telemetry exports (trace + metrics) carry their format markers.
obs-smoke:
    ./scripts/verify.sh obs-smoke

# Evaluation-pipeline perf gate plus the 3x stream_pruned trajectory bound
# (appends BENCH_space_eval.json).
perf-smoke:
    ./scripts/verify.sh perf-smoke

# Chaos replay conserves requests; serve_replay throughput gate (appends
# BENCH_serve_replay.json).
serve-smoke:
    ./scripts/verify.sh serve-smoke

# Kill mid-run, resume from the checkpoint, diff bit-exactly.
resume-smoke:
    ./scripts/verify.sh resume-smoke

# `enprop obs` report/query over a recorded trace; obs-plane ≤ 1.10x gate.
obs-query-smoke:
    ./scripts/verify.sh obs-query-smoke

# Fast signal while iterating.
check:
    cargo check --workspace --offline

test:
    cargo test -q --workspace --offline

# Clippy plus the domain-aware pass (determinism & numeric hygiene,
# DESIGN.md §11). `enprop-lint` exits 1 on findings, 2 on usage errors.
lint:
    cargo clippy --workspace --all-targets --offline -- -D warnings
    cargo run -p enprop-lint --offline

# Regenerate every paper artifact.
repro:
    cargo run --release -p enprop-cli --offline -- all
