#!/usr/bin/env bash
# Build the benchmark offline, then run it; every argument goes to the binary
# (see README.md). Run from anywhere; the driver runs it from the checkout's
# root with CARGO_TARGET_DIR set, so the script never changes directory and a
# relative target directory means the same place to cargo and to the exec.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
# cargo's own output goes to stderr: stdout ends with the result line.
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" 1>&2
exec "${CARGO_TARGET_DIR:-$here/target}/release/pi2m-benchmark" "$@"
