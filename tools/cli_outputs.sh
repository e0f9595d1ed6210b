#!/usr/bin/env bash
# Record what the CLI prints on each shipped config, so that two trees can be
# compared file by file (`diff -r`).
#
# Usage, from the root of a checkout, with the yring to run on PYTHONPATH:
#   PYTHONPATH=src tools/cli_outputs.sh OUTDIR
#
# For each configs/*.json and each command below it runs `python -m yring.cli`
# and writes OUTDIR/<config>/<command>.stdout, .stderr and .exit (the exit code).
set -u
if [ $# -ne 1 ]; then
    echo "usage: $0 OUTDIR" >&2
    exit 2
fi
out=$1
commands=(
    "check"
    "ring --k 1.3"
    "junction --k 1.3"
    "sweep --n 4096"
    "sweep --k-min 1e-12 --k-max 1e-6 --n 1000"
)
for kind in transmission reflection; do
    commands+=("find --k-min 3 --k-max 4.5 --kind $kind" "find --k-min 1 --k-max 1000 --kind $kind")
done
for config in configs/*.json; do
    dir="$out/$(basename "$config" .json)"
    mkdir -p "$dir"
    for command in "${commands[@]}"; do
        name=$(echo "$command" | sed 's/ --/_/g; s/ /_/g')
        # shellcheck disable=SC2086  # the command's words are split on purpose
        python -m yring.cli $command --config "$config" > "$dir/$name.stdout" 2> "$dir/$name.stderr"
        echo $? > "$dir/$name.exit"
    done
done
