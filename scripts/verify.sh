#!/usr/bin/env bash
# Tier-1 verification: the offline gate every change must pass.
# (Tier-2 is `cargo test --workspace --features proptest-tests`; tier-3 is
# scripts/reproduce_all.sh. See CONTRIBUTING.md.)
set -euo pipefail
cd "$(dirname "$0")/.."

cargo fmt --all -- --check
cargo clippy --workspace --all-targets --offline -- -D warnings
# Static analysis, gated on the committed baseline: only *new* findings
# fail (stale entries print as notes). Regenerate with --write-baseline.
cargo run -q -p rpm-lint --release --offline -- --json --baseline lint-baseline.json >/dev/null
cargo build --release --offline
cargo build --examples --offline
RUSTDOCFLAGS='-D warnings' cargo doc --workspace --no-deps --offline
# The whole workspace: rpm-core's randomised delta-vs-batch interleavings,
# rpm-server's unit tests and rpm-lint's selfcheck live outside the root
# package.
cargo test --workspace -q --offline
# Delta-mining smoke: one tiny rep of the incremental bench, which asserts
# delta == batch bit-identity at every step before writing its report. The
# 32-transaction batch exercises the checkpoint-resumed batch-append path.
cargo run -q -p rpm-bench --release --offline --bin incremental_mining -- \
  --scale 0.05 --chunks 2 --batch-sizes 1,32 --reps 1 \
  --out target/BENCH_incremental_smoke.json
# Serving-benchmark smoke: builds servebench against the crates as they are
# and runs its three workloads at a tiny scale, asserting byte-identical
# answers and every declared metric. One to four minutes.
bash servebench/smoke.sh

# Durability smoke: serve with a data dir, ingest, SIGKILL, restart, and
# assert the dataset (upload + append) survived the crash. Offline, local
# loopback only. The restart uses a different port: the killed listener's
# connections linger in TIME_WAIT and would make an immediate same-port
# bind flaky.
smoke_dir="$(mktemp -d)"
serve_pid=""
trap 'rm -rf "$smoke_dir"; [ -n "$serve_pid" ] && kill "$serve_pid" 2>/dev/null || true' EXIT
rpm=target/release/rpm

wait_healthy() { # port
  for _ in $(seq 50); do
    curl -sf "http://127.0.0.1:$1/v1/healthz" >/dev/null 2>&1 && return 0
    sleep 0.1
  done
  echo "recovery smoke FAILED: server on port $1 never became healthy" >&2
  return 1
}

"$rpm" generate shop --out "$smoke_dir/shop.tsv" --scale 0.02 --seed 7
"$rpm" serve --addr 127.0.0.1:8741 --threads 2 --data-dir "$smoke_dir/data" &
serve_pid=$!
wait_healthy 8741
curl -sf --data-binary @"$smoke_dir/shop.tsv" \
  'http://127.0.0.1:8741/v1/datasets/shop?per=360&min-ps=10&min-rec=1' >/dev/null
# A multi-line batch: journaled as one WAL record and delta-mined in one pass.
printf '999997\tsmoke-item\n999998\tsmoke-item\n999999\tsmoke-item\n' \
  | curl -sf --data-binary @- \
  -X POST http://127.0.0.1:8741/v1/datasets/shop/append >/dev/null
before=$(curl -sf http://127.0.0.1:8741/v1/datasets)
kill -9 "$serve_pid"
wait "$serve_pid" 2>/dev/null || true
"$rpm" serve --addr 127.0.0.1:8742 --threads 2 --data-dir "$smoke_dir/data" &
serve_pid=$!
wait_healthy 8742
after=$(curl -sf http://127.0.0.1:8742/v1/datasets)
curl -sf -X POST http://127.0.0.1:8742/v1/shutdown >/dev/null
wait "$serve_pid" 2>/dev/null || true
serve_pid=""
trap 'rm -rf "$smoke_dir"' EXIT
if [ "$before" != "$after" ]; then
  echo "recovery smoke FAILED: dataset listing changed across SIGKILL+restart" >&2
  echo "  before: $before" >&2
  echo "  after:  $after" >&2
  exit 1
fi
case "$after" in
  *'"name":"shop"'*) echo "recovery smoke: ok (dataset survived SIGKILL)" ;;
  *) echo "recovery smoke FAILED: dataset missing after restart: $after" >&2; exit 1 ;;
esac
rm -rf "$smoke_dir"

# Replication smoke: primary + replica as two real processes over loopback.
# Bootstrap, byte-identical mine, SIGKILL the primary, promote the replica,
# and confirm it accepts writes. Offline; ports distinct from the smoke above.
repl_dir="$(mktemp -d)"
primary_pid=""
replica_pid=""
trap 'rm -rf "$repl_dir"; for p in "$primary_pid" "$replica_pid"; do [ -n "$p" ] && kill "$p" 2>/dev/null || true; done' EXIT

wait_ready() { # port
  for _ in $(seq 100); do
    curl -sf "http://127.0.0.1:$1/v1/readyz" >/dev/null 2>&1 && return 0
    sleep 0.1
  done
  echo "replication smoke FAILED: port $1 never became ready" >&2
  return 1
}

"$rpm" generate shop --out "$repl_dir/shop.tsv" --scale 0.02 --seed 7
"$rpm" serve --addr 127.0.0.1:8744 --threads 2 --data-dir "$repl_dir/primary" \
  --repl-addr 127.0.0.1:8746 &
primary_pid=$!
wait_healthy 8744
curl -sf --data-binary @"$repl_dir/shop.tsv" \
  'http://127.0.0.1:8744/v1/datasets/shop?per=360&min-ps=10&min-rec=1' >/dev/null
"$rpm" serve --addr 127.0.0.1:8745 --threads 2 --data-dir "$repl_dir/replica" \
  --replica-of 127.0.0.1:8746 &
replica_pid=$!
wait_ready 8745
printf '999999\tsmoke-item\n' | curl -sf --data-binary @- \
  -X POST http://127.0.0.1:8744/v1/datasets/shop/append >/dev/null
for _ in $(seq 100); do
  p_list=$(curl -sf http://127.0.0.1:8744/v1/datasets)
  r_list=$(curl -sf http://127.0.0.1:8745/v1/datasets)
  [ "$p_list" = "$r_list" ] && break
  sleep 0.1
done
if [ "$p_list" != "$r_list" ]; then
  echo "replication smoke FAILED: replica never converged with the primary" >&2
  echo "  primary: $p_list" >&2
  echo "  replica: $r_list" >&2
  exit 1
fi
mine='/v1/datasets/shop/mine?per=360&min-ps=10&min-rec=1'
p_mine=$(curl -sf -X POST "http://127.0.0.1:8744$mine")
r_mine=$(curl -sf -X POST "http://127.0.0.1:8745$mine")
if [ "$p_mine" != "$r_mine" ]; then
  echo "replication smoke FAILED: replica mine differs from primary" >&2
  exit 1
fi
kill -9 "$primary_pid"
wait "$primary_pid" 2>/dev/null || true
primary_pid=""
promote=$(curl -sf -X POST http://127.0.0.1:8745/v1/admin/promote)
case "$promote" in
  *'"promoted":true'*) ;;
  *) echo "replication smoke FAILED: promote answered: $promote" >&2; exit 1 ;;
esac
printf '999999\tpost-promote-item\n' | curl -sf --data-binary @- \
  -X POST http://127.0.0.1:8745/v1/datasets/shop/append >/dev/null
curl -sf -X POST http://127.0.0.1:8745/v1/shutdown >/dev/null
wait "$replica_pid" 2>/dev/null || true
replica_pid=""
trap 'rm -rf "$repl_dir"' EXIT
echo "replication smoke: ok (bootstrap, identical mine, promote, write)"
rm -rf "$repl_dir"
