#!/usr/bin/env bash
# Record what the CLI prints on each shipped config, and on the rings that
# tests/test_cli_contract.py derives from them, so that two trees can be
# compared file by file (`diff -r`, or `python tools/cli_delta.py BASE CHANGE`
# for a summary of which files, lines and digits moved).
#
# Usage, from the root of a checkout, with the yring to run on PYTHONPATH:
#   PYTHONPATH=src tools/cli_outputs.sh OUTDIR
#
# The derived rings are read from the tests beside this script, not from the
# checkout it runs in, so two trees run the same rings; they are written to
# OUTDIR/derived_configs/<ring>.json.  For each configs/*.json and derived ring,
# and each command below, it runs `python -m yring.cli` and writes
# OUTDIR/<config>/<command>.stdout, .stderr and .exit (the exit code).
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
    # the wide windows hold up to 57,296 enumerated lines on the scale-invariant configs
    wide=("find --k-min 1 --k-max 1000 --kind $kind" "find --k-min 1e4 --k-max 1e5 --kind $kind")
    commands+=("find --k-min 3 --k-max 4.5 --kind $kind" "${wide[@]}")
    csv_commands+=("${wide[@]}")
done

run() {  # run NAME ARGS...: one CLI call on $config, its streams and exit code under $dir
    local name=$1
    shift
    python -m yring.cli "$@" --config "$config" > "$dir/$name.stdout" 2> "$dir/$name.stderr"
    echo $? > "$dir/$name.exit"
}

derived="$out/derived_configs"
mkdir -p "$derived"
python - "$(dirname "$0")/../tests" "$derived" <<'PY' || exit 1
import json, sys
sys.path.insert(0, sys.argv[1])
from test_cli_contract import derived_configs
for name, doc in derived_configs().items():
    with open(f"{sys.argv[2]}/{name}.json", "w") as f:
        json.dump(doc, f, indent=2)
PY

for config in configs/*.json "$derived"/*.json; do
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
