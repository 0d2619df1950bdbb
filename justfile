# Developer entry points. Install just (https://github.com/casey/just)
# or read the recipes as plain command documentation.

# list available recipes
default:
    @just --list

# full static pass: type-check everything, lints as errors, formatting
check:
    cargo check --workspace --all-targets
    cargo clippy --workspace --all-targets -- -D warnings
    cargo fmt --all -- --check

# the tier-1 gate: release build + full test suite
test:
    cargo build --release --workspace
    cargo test -q --workspace

# quick end-to-end smoke: build, run the fast tests, one example, one table
smoke:
    cargo build --workspace
    cargo test -q -p wse-sim
    cargo test -q -p wse-sim --release --test parallel_equivalence
    cargo run --release --example quickstart
    cargo run -p bench --release --bin paper -- table4

# the differential determinism harness (the strip engine's one-strip run,
# `Sequential`, vs strips x threads: pauses, restores, a panicking worker);
# under `timeout` because a broken barrier protocol hangs instead of failing
equivalence:
    timeout 600 cargo test -q -p wse-sim --release --test parallel_equivalence --test dsd_properties

# the one-PE-program gate (TPFA, Laplacian, wave): the compiler's unit
# tests (the golden digest of every PE's TPFA route program among them),
# spec-compiler property tests, the two non-TPFA workloads end-to-end, the
# TPFA schedule pins and the schema-2 checkpoint pins
stencil:
    cargo test -q -p wse-stencil --release
    cargo test -q -p tpfa-dataflow --release -- laplace wave
    cargo test -q -p tpfa-dataflow --release --test order_independence --test deep_column
    cargo test -q -p wse-serve --release --test arena_checkpoint
    cargo run --release --example seismic_wave

# traced quickstart run: asserts trace determinism across engines, writes
# trace.json (open in https://ui.perfetto.dev or chrome://tracing) and
# prints the per-shard load summary
trace:
    cargo run --release --example quickstart -- --trace trace.json

# profiled quickstart run: per-region cycle attribution + recovered
# critical path, asserted bit-identical across engines, exported as JSON
profile:
    cargo run --release --example quickstart -- --profile prof.json

# chaos harness: seeded random fault schedules x all recovery policies x
# both engines; every run must recover bit-identically or fail typed
chaos schedules="15":
    cargo run -p bench --release --bin chaos -- --schedules {{schedules}} --report chaos-report.json

# the job-server harness: submit -> preempt -> resume -> verify
# bit-identity, compiled-layout cache hit, bounded-queue rejection
serve:
    cargo run -p bench --release --bin serve

# checkpoint/restore differential: binary-codec roundtrips at every event
# boundary across engine hops, plus corruption rejection; then a CLI
# kill/restore cycle through the quickstart flags
checkpoint:
    cargo test -q -p wse-sim --release --test checkpoint_equivalence
    cargo run --release --example quickstart -- --checkpoint ckpt.bin --resume ckpt.bin

# the fault-injection test suites (fabric-level fixtures + host recovery)
faults:
    cargo test -q -p wse-sim --release --test fault_equivalence
    cargo test -q -p tpfa-dataflow --release --test fault_recovery

# the paper-scale smoke: one measured TPFA apply on the paper's 746x989
# PE footprint (737,794 PEs), blocking on its exact counts (events, final
# time, equivalence classes), a wall budget and a peak-RSS ceiling — the
# bin reads VmHWM from /proc/self/status, the same figure
# `/usr/bin/time -v` reports as maximum resident set size
paper-mesh budget_s="300" max_rss_mb="1728":
    cargo run -p bench --release --bin paper_mesh -- --budget-s {{budget_s}} --max-rss-mb {{max_rss_mb}}

# the repo benchmark as a check, not a measurement: all six workloads,
# untraced and traced, 2 s each; a run exits non-zero when an output check
# fails, and the benchmark directory must come out as it went in
bench-check:
    for w in tpfa-small tpfa-wide tpfa-deep tpfa-sharded wave-steps serve-mix; do for t in 0 1; do bash benchmark/run.sh --workload $w --seed 1 --seconds 2 --trace $t || exit 1; done; done
    test -z "$(git status --porcelain benchmark/)"

# print every table/figure of the paper's evaluation (`cargo test` checks
# the deterministic ones against EXPERIMENTS.md)
tables:
    cargo run -p bench --release --bin paper

# live ASCII dashboard over the job server's progress streams: one bar
# per job at chunk granularity plus a serve_* telemetry footer
top:
    cargo run -p bench --release --bin top

# instrumented serve-harness run: serve_*/fabric_*/driver_* series
# written as Prometheus text (also see `--metrics` on quickstart and `top`)
metrics:
    cargo run -p bench --release --bin serve -- --metrics metrics.prom
    @head -n 24 metrics.prom
