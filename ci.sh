#!/usr/bin/env bash
# Full CI gate, runnable locally. Everything is offline: the workspace has
# no external dependencies, so --offline both enforces and documents that.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo build --release --offline"
cargo build --workspace --release --offline

echo "==> cargo check --all-features --all-targets (every feature must build)"
cargo check --workspace --all-features --all-targets --offline

echo "==> cargo test -q --offline"
cargo test --workspace -q --offline

echo "==> cargo test -p finrad-units --doc (dimensional compile_fail suite)"
cargo test -q --offline -p finrad-units --doc

echo "==> cargo test --features fault-injection (robustness suite)"
cargo test -q --offline --features fault-injection --test fault_injection

echo "==> cargo test --features fault-injection (service supervision suite)"
cargo test -q --offline --features fault-injection --test service_supervision

echo "==> campaign service smoke example (under fault injection)"
cargo run -q --offline --release --features fault-injection --example campaign_service

echo "==> perfbench tests (BENCHMARK.json pinned to the metric definitions)"
cargo test --release --offline --manifest-path perfbench/Cargo.toml

# perfbench rejects --seconds 0; the smallest positive budget runs one pass.
# fig9_sweep runs the variation Monte-Carlo characterization through the
# bit-identity, Fig. 9 trend and 5-sigma reference checks; campaign_resume
# runs the campaign runner, checkpoint and service paths.
for workload in nominal_lut fig9_sweep campaign_resume; do
  echo "==> perfbench one-pass $workload smoke (correct, no failed ops)"
  result=$(cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
    --workload "$workload" --seed 1 --seconds 0.001 --trace 0 | tail -n 1)
  if ! grep -q '"correct": true' <<<"$result" || ! grep -q '"failed": 0,' <<<"$result"; then
    echo "perfbench $workload smoke failed: $result" >&2
    exit 1
  fi
done

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo xtask lint (any diagnostic fails; JSON + SARIF reports)"
cargo xtask lint --json target/lint-report.json --sarif target/lint-report.sarif

echo "==> cargo xtask lint --check-report (JSON + SARIF schema gates)"
cargo xtask lint --check-report target/lint-report.json
cargo xtask lint --check-report target/lint-report.sarif

echo "CI gate passed."
