#!/usr/bin/env bash
# Tier-1 gate plus the lint gauntlet. Run from the repo root.
#
#   ./ci.sh         full gate, in this order:
#                   - release build;
#                   - the frozen benchmark package: build, its tests, its
#                     --quick smoke run, and the guard that benchmark/ and
#                     BENCHMARK.json equal HEAD;
#                   - every workspace crate's tests;
#                   - the build-switch guard (no cargo features, env vars
#                     or serde in crates/*);
#                   - fmt, clippy, rustdoc with warnings denied,
#                     rsj-lint against its baseline;
#                   - sweep smoke: a unit subset, serial vs --jobs 2, cmp;
#                   - the whole sweep, cmp against experiments_all.txt;
#                   - the goldens: chaos --seeds 6, service --short and
#                     chaos --soak --short, each cmp against golden/.
set -euo pipefail
cd "$(dirname "$0")"

cargo build --release
# The repo benchmark (BENCHMARK.json) is a frozen package of its own that
# compiles against the product crates' public API: a change that breaks it
# must fail here, not in the benchmark driver.
cargo build --release --manifest-path benchmark/Cargo.toml
# ... and its own tests: a product change can break the frozen package's
# behaviour, not only its compile.
cargo test -q --manifest-path benchmark/Cargo.toml
# ... and one smoke run of it: every workload in both trace modes, every
# output checked against its oracle. A panic (a double borrow, say) or a
# wrong result that only a benchmark workload reaches fails here, not in
# a later measurement. Each run ends with one result line; all of them
# must be present, correct and free of failed operations.
cargo run --release -q --manifest-path benchmark/Cargo.toml -- --quick > target/benchmark_quick.txt
runs=$((2 * $(grep -c '"why"' BENCHMARK.json)))
clean=$(grep -cE '^\{"correct":true,"attempted":[0-9]+,"failed":0,' target/benchmark_quick.txt || true)
if [ "$clean" -ne "$runs" ]; then
    echo "ci.sh: benchmark smoke: $clean of $runs workload runs correct with no failed operation"
    exit 1
fi
# benchmark/ and BENCHMARK.json are frozen: only a `[benchmark]` PR may
# change them. The lanes above build without --locked, and the committed
# benchmark/Cargo.lock still lists edges the workspace has dropped
# (rsj-cluster → serde, the parking_lot shim), so cargo rewrites those
# lines in the working tree. Put the committed lock back, then fail on any other
# difference from HEAD under the frozen paths.
git checkout HEAD -- benchmark/Cargo.lock
git diff --exit-code HEAD -- benchmark BENCHMARK.json
# Every crate's tests, not just the root facade's (the root manifest has no
# default-members). A verbs-contract violation panics in every build, so
# any RDMA protocol misuse fails the suite.
cargo test -q --workspace
# One build configuration: no cargo features, no environment switches in
# the product crates, so the tested artefact is the measured one.
# (rsj-lint is exempt: its rule tables may name such patterns.)
# Likewise one wall-clock harness: BENCHMARK.json + benchmark/ is the only
# consumer of the serde shims, so no crates/* manifest may name them.
guarded=$(ls -d crates/*/ | grep -vx 'crates/lint/')
if grep -rnE 'feature *=|env::var' $(printf '%ssrc ' $guarded) \
    || grep -n '^\[features\]' $(printf '%sCargo.toml ' $guarded) \
    || grep -n 'serde' crates/*/Cargo.toml; then
    echo "ci.sh: a build/run switch (cargo feature or env var) or a serde dependency grew back"
    exit 1
fi
cargo fmt --check
cargo clippy --workspace --all-targets -- -D warnings
# Intra-doc links resolve and no public item's docs link a private one:
# refactors move and rename the items the docs point at, and nothing else
# checks the links.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps
# Project rules (token-level analysis: determinism hazards, barrier
# protocol, error swallowing, plus the ported pattern rules). The gate
# fails only on findings absent from the committed baseline; after
# review, refresh it with `cargo run -p rsj-lint -- --update-baseline`.
cargo run -q -p rsj-lint -- --json --baseline lint-baseline.json > target/lint-report.json
# Sweep-smoke lane: a small experiment subset through the parallel sweep
# engine with two workers, diffed byte-wise against the serial engine.
# Guards the stitching contract (DESIGN.md §11): `--jobs N` must never
# change a single output byte. The subset reaches every user of the
# shuffle: the radix join, sort-merge and aggregation (`operators`), result
# materialization (`materialize`), the parallel local pass and work
# sharing (`fig8ws`). `shootout` is the subset's one unit that runs the
# one-sided READ probe plane.
cargo run --release -q -p rsj-bench --bin experiments -- \
    all --subset fig3,fig5b,hardware,optimal,fig8ws,operators,materialize,shootout --jobs 1 > target/sweep_smoke_serial.txt
cargo run --release -q -p rsj-bench --bin experiments -- \
    all --subset fig3,fig5b,hardware,optimal,fig8ws,operators,materialize,shootout --jobs 2 > target/sweep_smoke_parallel.txt
cmp target/sweep_smoke_serial.txt target/sweep_smoke_parallel.txt
# The paper reproduction itself: the whole sweep (about 6 minutes with two
# workers on a 2-vCPU host) must equal the committed experiments_all.txt
# byte for byte, so a change that moves virtual time fails here, not only
# when someone regenerates the file.
cargo run --release -q -p rsj-bench --bin experiments -- all --jobs 2 > target/experiments_all.txt
cmp target/experiments_all.txt experiments_all.txt
# Seeded chaos sweep: every operator under a deterministic fault schedule
# must complete byte-correct or abort with a structured error, and replay
# identically. The watchdog timeout turns any hang into a hard CI failure.
# Its stdout is pinned by golden/ (regenerate a golden only with a change
# that means to move virtual time, and say so).
timeout 600 cargo run --release -q -p rsj-bench --bin chaos -- --seeds 6 \
    > target/chaos_seeds6.txt
cmp target/chaos_seeds6.txt golden/chaos_seeds6.txt
# Query-service smoke: a short mixed-operator batch through the admission
# queue and shared fabric, every result verified against its generator
# oracle. Same watchdog rule — a wedged schedule must fail, not stall.
timeout 300 cargo run --release -q -p rsj-bench --bin service -- --short \
    > target/service_short.txt
cmp target/service_short.txt golden/service_short.txt
# Self-healing soak (DESIGN.md §13): a seeded crash/recovery batch through
# the healing service — every query must end Completed (byte-correct) or
# typed Rejected, at least one query must heal, and the report must replay
# byte-identically. The watchdog turns a hung query into a CI failure.
timeout 300 cargo run --release -q -p rsj-bench --bin chaos -- --soak --short \
    > target/chaos_soak_short.txt
cmp target/chaos_soak_short.txt golden/chaos_soak_short.txt
