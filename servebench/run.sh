#!/usr/bin/env bash
# Builds the release `rpm` server and the servebench harness from source,
# then runs one benchmark workload. Run from the repository root:
#
#   bash servebench/run.sh --workload ingest|query|explore --seed N \
#       --seconds S --trace 0|1
#
# Build output goes to $CARGO_TARGET_DIR (default: target/); reports,
# span dumps and scratch data directories go to <target>/servebench/.
# The last line of stdout is the JSON result.
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
root="$(dirname "$here")"
cd "$root"
target="${CARGO_TARGET_DIR:-target}"
case "$target" in
  /*) ;;
  *) target="$root/$target" ;;
esac
# The harness is a workspace of its own: without this, cargo would build it
# into servebench/target/ rather than next to `rpm`.
export CARGO_TARGET_DIR="$target"
cargo build --release --offline -q --manifest-path "$root/Cargo.toml" --bin rpm >&2
cargo build --release --offline -q --manifest-path "$here/Cargo.toml" >&2
exec "$target/release/servebench" --rpm "$target/release/rpm" \
  --out-dir "$target/servebench" "$@"
