#!/usr/bin/env python3
"""Summarise how two `tools/cli_outputs.sh` trees differ, file by file.

Usage:
    python tools/cli_delta.py BASE CHANGE

For each file that differs between the trees BASE and CHANGE it prints one
row of a Markdown table: how many lines differ, the line counts if they
differ, and the largest absolute and relative change among the numbers that
sit in matching positions (the same line, the same text around them).  The
lines after the table say whether any line count, exit code (`.exit`) or
standard error (`.stderr`) differs: a change that only moves digits leaves
all three alone.  Standard library only; the exit status is 0 whatever differs.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|[-+]?(?:nan|inf)\b")


def numbers(line: str) -> tuple[str, list[float]]:
    """The line's text with each number replaced by '#', and its numbers."""
    return NUMBER.sub("#", line), [float(x) for x in NUMBER.findall(line)]


def compare(base: list[str], change: list[str]) -> tuple[int, float, float, int]:
    """Lines that differ, the largest absolute and relative number change, and lines whose text differs."""
    differ = abs(len(base) - len(change))
    largest_abs = largest_rel = 0.0
    text = 0
    for a, b in zip(base, change):
        if a == b:
            continue
        differ += 1
        (shape_a, xs), (shape_b, ys) = numbers(a), numbers(b)
        if shape_a != shape_b:
            text += 1
            continue
        for x, y in zip(xs, ys):
            if x == y or (x != x and y != y):  # equal, or both nan
                continue
            delta = abs(x - y)
            largest_abs = max(largest_abs, delta)
            largest_rel = max(largest_rel, delta / max(abs(x), abs(y)))
    return differ, largest_abs, largest_rel, text


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: cli_delta.py BASE CHANGE", file=sys.stderr)
        return 2
    base, change = (Path(a) for a in argv)
    names = sorted({p.relative_to(root).as_posix() for root in (base, change) for p in root.rglob("*") if p.is_file()})
    rows, counts, exits, stderr = [], [], [], []
    for name in names:
        a, b = base / name, change / name
        if not (a.is_file() and b.is_file()):
            rows.append(f"| {name} | only in {'change' if b.is_file() else 'base'} | | | |")
            counts.append(name)
        elif a.read_bytes() == b.read_bytes():
            continue
        else:
            old, new = (p.read_text(errors="replace").splitlines() for p in (a, b))
            differ, largest_abs, largest_rel, text = compare(old, new)
            count = "same" if len(old) == len(new) else f"{len(old)} -> {len(new)}"
            if len(old) != len(new):
                counts.append(name)
            note = f" ({text} in text)" if text else ""
            rows.append(f"| {name} | {differ} of {max(len(old), len(new))}{note} | {count} "
                        f"| {largest_abs:.3g} | {largest_rel:.3g} |")
        if name.endswith(".exit"):
            exits.append(name)
        elif name.endswith(".stderr"):
            stderr.append(name)
    if not rows:
        print("no file differs")
        return 0
    print("| file | lines that differ | line count | largest absolute change | largest relative change |")
    print("|---|---|---|---|---|")
    print("\n".join(rows))
    print()
    for what, found in (("line count", counts), ("exit code", exits), ("stderr", stderr)):
        print(f"- {what}: " + (f"differs in {', '.join(found)}" if found else "the same in every file"))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
