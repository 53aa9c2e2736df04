#!/bin/sh
# One command: build the runner from source and run every workload once
# (untraced), printing one line per metric and writing the results with
# their fingerprint under perfbench/out/. Arguments go to `bench run`,
# e.g.  perfbench/run.sh --workload tcp_safe_peak --runs 3 --seed 2
# Other subcommands:  perfbench/run.sh -- trace | compare A.json B.json | list
set -eu
cd "$(dirname "$0")/.."
sub=run
if [ "${1:-}" = "--" ]; then
    sub=$2
    shift 2
fi
exec cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml --bin bench -- "$sub" "$@"
