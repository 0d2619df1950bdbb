#!/usr/bin/env bash
# Builds the benchmark (release, offline) and runs it with the given
# arguments; see README.md. Run from the repository root. Cargo's target
# directory is $CARGO_TARGET_DIR when set, else benchmark/target.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --quiet \
    --manifest-path "$here/Cargo.toml" --target-dir "$target" >&2
exec "$target/release/mdfv-benchmark" "$@"
