#!/usr/bin/env bash
# Shows which deterministic bench artifacts a change moves.
#
#   scripts/artifact-identity.sh <rev> [jobs ...]      # default: --jobs 2
#
# Builds the bench binaries of <rev> (exported with `git archive` into the
# target directory, so the working tree and its index are left alone and a
# second run reuses the build) and of the working tree, runs the six
# fixed-seed smoke experiments on both at every given --jobs count, and
# `cmp`s each results and *.metrics.json artifact the working tree writes
# against the base's file of the same name. Either tree may have the one
# `hpv-bench <experiment>` binary or the older one-binary-per-experiment
# layout. Prints one line per artifact; exits 1 when any moved.
set -euo pipefail

rev="${1:?usage: scripts/artifact-identity.sh <rev> [jobs ...]}"
shift
jobs=("${@:-2}")
experiments=(fig2_reliability plumtree_vs_flood plumtree_adaptive plumtree_latency plumtree_wan hyparview_attack)

root="$(git rev-parse --show-toplevel)"
sha="$(git -C "$root" rev-parse --verify "${rev}^{commit}")"
target="${CARGO_TARGET_DIR:-$root/target}"
work="$target/artifact-identity"
base="$work/$sha"
if [ ! -d "$base/src" ]; then
  mkdir -p "$base/src"
  git -C "$root" archive "$sha" | tar -x -C "$base/src"
fi

build() { # <tree> <target dir>
  cargo build --release --offline --quiet -p hyparview-bench --bins \
    --manifest-path "$1/Cargo.toml" --target-dir "$2"
}
build "$base/src" "$base/target"
build "$root" "$target"

run() { # <bin dir> <out dir> <jobs>
  mkdir -p "$2"
  for name in "${experiments[@]}"; do
    if [ -x "$1/hpv-bench" ]; then
      "$1/hpv-bench" "$name" --smoke --jobs "$3" --json "$2/$name.json" > /dev/null
    else
      "$1/$name" --smoke --jobs "$3" --json "$2/$name.json" > /dev/null
    fi
  done
}

moved=0
for j in "${jobs[@]}"; do
  rm -rf "$work/out"
  run "$base/target/release" "$work/out/base-j$j" "$j"
  run "$target/release" "$work/out/change-j$j" "$j"
  for artifact in "$work/out/change-j$j"/*.json; do
    name="$(basename "$artifact")"
    if cmp -s "$artifact" "$work/out/base-j$j/$name"; then
      echo "identical  --jobs $j  $name"
    else
      echo "MOVED      --jobs $j  $name"
      moved=1
    fi
  done
done
if [ "$moved" -eq 0 ]; then
  echo "every results and metrics artifact is byte-identical to ${sha:0:12}"
fi
exit "$moved"
