#!/usr/bin/env bash
# Builds the benchmark and hands it the arguments. With none: every workload
# on seeds 1, 2 and 3 and once traced, outputs checked, every metric printed.
#   benchmark/run.sh                       # = run
#   benchmark/run.sh trace                 # seed 1 only: one untraced, one traced run per workload
#   benchmark/run.sh compare A.json B.json
#   benchmark/run.sh --workload live_flood_small --seed 7 --seconds 10 --trace 0
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
exec cargo run --release --quiet --offline --manifest-path "$here/Cargo.toml" -- "$@"
