#!/usr/bin/env bash
# Full local gate: build, tests, lints, formatting. Everything runs
# offline — the workspace has no registry dependencies (see DESIGN.md
# §5), so this works in the sandboxed build environment as-is.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo build --release =="
cargo build --release

# RVCAP_STRICT=1 attaches the bus sanitizer to every SoC the tests
# build: any stream-framing, burst, pairing or decouple violation on
# any channel fails the MMIO-cleanliness asserts. The root manifest's
# default-members make this run every crate's suites.
echo "== RVCAP_STRICT=1 cargo test -q =="
RVCAP_STRICT=1 cargo test -q

# Scheduler parity sweep: the suites that pin the active-set schedule
# to the naive reference — bit-identical cycle counts, FIFO contents,
# sanitizer verdicts and tick accounting — including randomized
# backpressure / TLAST / decouple-gate toggles over the DMA→ICAP
# datapath and a CLINT timer firing on its exact cycle mid-stream.
echo "== scheduler parity sweep (naive vs active_set, bit-identical) =="
RVCAP_STRICT=1 cargo test -q -p rvcap-sim --test scheduler_equivalence
RVCAP_STRICT=1 cargo test -q -p rvcap-axi --test datapath_parity
RVCAP_STRICT=1 cargo test -q -p rvcap-soc --test clint_exact_cycle

# Replay parity: checkpoint → restore into a fresh rig → continue must
# be bit-identical to the uninterrupted run — same cycles, component
# state, MMIO audits, sanitizer verdicts — under both schedules.
# This is the proof obligation behind hostbench warm-boot forking. On
# a failure the harness bisects the first divergent cycle and writes
# target/replay-divergence-report.txt, which CI uploads as an artifact.
echo "== replay parity (checkpoint/restore/continue, both schedules) =="
RVCAP_STRICT=1 cargo test -q -p rvcap-repro --test replay_parity
RVCAP_STRICT=1 cargo test -q -p rvcap-sim --test replay_props

# Second seed: the memory-model and replay properties again from a
# fixed non-default seed, so each run covers cases the name-derived
# seeds do not. A failure prints the seed to export for a replay.
echo "== property second seed (paged memory, replay) =="
export RVCAP_PROPTEST_SEED=0x5eed2 RVCAP_PROPTEST_CASES=32
RVCAP_STRICT=1 cargo test -q -p rvcap-soc --test paged_memory
RVCAP_STRICT=1 cargo test -q -p rvcap-sim --test replay_props
unset RVCAP_PROPTEST_SEED RVCAP_PROPTEST_CASES

# The repo benchmark's own tests pin the simulated cycles of the four
# dprbench workloads, so a kernel change that moves a pinned count
# fails here. Release build, and no RVCAP_STRICT: the benchmark
# refuses to run sanitized.
echo "== dprbench tests (pinned workload cycles) =="
cargo test --release --offline --manifest-path dprbench/Cargo.toml

# Fork cost of the copy-on-write paged memories: the checkpoint and
# per-fork restore times from one traced mmio_reconfig run, and peak
# RSS from a short untraced one (the traced report carries none).
# Printed here and, under GitHub Actions, appended to the job summary.
# The binary was built by the dprbench tests above.
echo "== dprbench fork cost (mmio_reconfig) =="
dprbench="${CARGO_TARGET_DIR:-dprbench/target}/release/dprbench"
{
  "$dprbench" --workload mmio_reconfig --seed 1 --seconds 3 --trace 1 \
    | grep -E '^sim\.(restore_ms_p50|checkpoint_ms) '
  "$dprbench" --workload mmio_reconfig --seed 1 --seconds 1 --trace 0 \
    | grep -E '^peak_rss_mb '
} | tee -a "${GITHUB_STEP_SUMMARY:-/dev/null}"

# Host-performance gate: the full median-of-3 grid per rig ×
# scheduler, written to BENCH_hostbench.json (plus
# BENCH_hostbench_summary.md with the naive vs active_set table).
# Warm-boot forking (each rig boots once; every schedule × sample
# forks from the post-boot checkpoint) makes the robust median
# affordable here. Two gates, both on the active_set rows: a generous
# pinned cycles/sec floor per rig (~5x under measured — a broken
# scheduler, not a slow host), and a relative gate against the
# committed BENCH_hostbench.json baseline (>20% drop after
# normalizing by the naive ratio to cancel host-speed differences).
# --profile adds one profiled active_set pass per rig *after* its
# timed rows (attribution never perturbs the measured medians) and
# writes BENCH_hostbench_profile.md for the CI job summary.
echo "== hostbench (host-perf floors + baseline, median of 3) =="
cargo run --release -q -p rvcap-bench --bin hostbench -- --profile

echo "== cargo clippy (deny warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "All checks passed."
