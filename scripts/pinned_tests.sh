#!/usr/bin/env bash
# Runs tests pinned by exact name, and fails unless every pin names a test:
# `cargo test -- --exact <name>` runs nothing and passes when no test has
# that name, so a renamed or deleted test would leave its gate green.
#
# Usage: scripts/pinned_tests.sh <cargo test arguments> -- <test name>...
set -euo pipefail

cargo_args=()
while [ "$#" -gt 0 ] && [ "$1" != "--" ]; do
  cargo_args+=("$1")
  shift
done
[ "$#" -gt 1 ] || { echo "usage: $0 <cargo test arguments> -- <test name>..." >&2; exit 2; }
shift

listed=$(cargo test "${cargo_args[@]}" -- --exact --list "$@" | sed -n 's/: test$//p')
missing=0
for name in "$@"; do
  if ! grep -qxF -- "$name" <<<"$listed"; then
    echo "pinned_tests: no test is named $name" >&2
    missing=1
  fi
done
[ "$missing" -eq 0 ] || exit 1
cargo test "${cargo_args[@]}" -- --exact "$@"
