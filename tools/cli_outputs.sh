#!/usr/bin/env bash
# Record what the CLI prints on each shipped config, so that two trees can be
# compared file by file (`diff -r`, or `python tools/cli_delta.py BASE CHANGE`
# for a summary of which files, lines and digits moved).
#
# Usage, from the root of a checkout, with the yring to run on PYTHONPATH:
#   PYTHONPATH=src tools/cli_outputs.sh OUTDIR
#
# For each configs/*.json and each command below it runs `python -m yring.cli`
# and writes OUTDIR/<config>/<command>.stdout, .stderr and .exit (the exit code).
# The wide `find` searches run a second time with `--out OUTDIR/<config>/<command>.csv`,
# which holds k* and the residual at %.17g (stdout rounds them to 15 and 7
# digits); that run's streams go to <command>_out.stdout, .stderr and .exit.
set -u
if [ $# -ne 1 ]; then
    echo "usage: $0 OUTDIR" >&2
    exit 2
fi
out=$1
commands=(
    "check"
    "ring --k 1.3"
    "ring --k 3.141592653589793"  # the README's example: a flagged gap on symmetric_buttiker
    "junction --k 1.3"
    "sweep --n 4096"
    "sweep --k-min 1e-12 --k-max 1e-6 --n 1000"
)
csv_commands=()
for kind in transmission reflection; do
    commands+=("find --k-min 3 --k-max 4.5 --kind $kind" "find --k-min 1 --k-max 1000 --kind $kind")
    csv_commands+=("find --k-min 1 --k-max 1000 --kind $kind")
done

run() {  # run NAME ARGS...: one CLI call on $config, its streams and exit code under $dir
    local name=$1
    shift
    python -m yring.cli "$@" --config "$config" > "$dir/$name.stdout" 2> "$dir/$name.stderr"
    echo $? > "$dir/$name.exit"
}

for config in configs/*.json; do
    dir="$out/$(basename "$config" .json)"
    mkdir -p "$dir"
    for command in "${commands[@]}"; do
        # shellcheck disable=SC2086  # the command's words are split on purpose
        run "$(echo "$command" | sed 's/ --/_/g; s/ /_/g')" $command
    done
    for command in "${csv_commands[@]}"; do
        name=$(echo "$command" | sed 's/ --/_/g; s/ /_/g')
        # shellcheck disable=SC2086
        run "${name}_out" $command --out "$dir/$name.csv"
    done
done
