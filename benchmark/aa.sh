#!/usr/bin/env bash
# A/A: two result sets of the same commit, with different seeds, must
# agree: fails on any `worse` verdict or any exact count that differs.
# Extra arguments go to both sets, e.g. `benchmark/aa.sh --repeats 10`.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
mkdir -p benchmark/results
benchmark/run.sh --seed 1 --out benchmark/results/aa-A.json "$@"
benchmark/run.sh --seed 101 --out benchmark/results/aa-B.json "$@"
benchmark/run.sh compare benchmark/results/aa-A.json benchmark/results/aa-B.json
