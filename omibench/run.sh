#!/usr/bin/env bash
# Builds the omislice CLI and the omibench binary from source (release),
# then runs omibench with the given arguments. Run from the repository
# root:
#
#   bash omibench/run.sh --workload sed-trace --seed 1 --seconds 20 --trace 0
#   bash omibench/run.sh compare --parent a.json --change b.json
#
# Both builds share one target directory ($CARGO_TARGET_DIR, default
# ./target), where omibench finds the omislice binary next to itself.
set -euo pipefail

if [[ ! -f Cargo.toml || ! -d crates/cli || ! -f omibench/Cargo.toml ]]; then
  echo "omibench: run from the omislice repository root (its crates are not here)" >&2
  exit 2
fi

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet -p omislice-cli
cargo build --release --offline --quiet --manifest-path omibench/Cargo.toml
exec "$CARGO_TARGET_DIR/release/omibench" "$@"
