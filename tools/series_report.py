#!/usr/bin/env python3
"""Report how the bounce series ends on a seeded corpus of random rings.

Usage, from the root of a checkout, with the yring to measure on PYTHONPATH:
    PYTHONPATH=src python tools/series_report.py --seed S [--tol TOL]

The corpus is the one `tests/test_series.py` draws: in each of the six
families (symmetric, antisymmetric or general ring; scale-invariant nodes or
not), 60 random rings at 4 wavenumbers in [0.1, 20], summed by `solve_series`
with a budget of 2**24 terms.  For each family it prints one row of a
Markdown table: how many sums phase 1 ended term by term, how many the
doubling finished from term 32 or from term 64, and how many raised
`ConvergenceError`; the bounce terms summed by the sums that converged; and
their worst |series - closed form| over A..F.  The rings are drawn by this
checkout's tests, so two trees of yring can be compared on the same sums.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from test_grid import random_ring  # noqa: E402
from yring import ConvergenceError, DegenerateRingError, ring, ring_matrices, solve_closed_form, solve_series  # noqa: E402

FAMILIES = [(mode, si) for mode in ("symmetric", "antisymmetric", "general") for si in (True, False)]
ENDINGS = ("phase 1", "doubling from 32", "doubling from 64", "ConvergenceError")


def family_row(seed: int, mode: str, scale_invariant: bool, tol: float) -> dict:
    """The endings, converged terms and worst closed-form gap of one family's 240 sums."""
    starts = []
    doubling = ring._series_doubling

    def recording(s, t, p, u, terms, *args):
        starts.append(terms)
        return doubling(s, t, p, u, terms, *args)

    row = dict.fromkeys(ENDINGS, 0) | {"terms": 0, "worst": 0.0}
    rng = np.random.default_rng([seed, len(mode), scale_invariant])
    ring._series_doubling = recording
    try:
        for _ in range(60):
            cfg = random_ring(rng, mode, scale_invariant)
            for k in rng.uniform(0.1, 20.0, 4).tolist():
                s1, s2 = ring_matrices(cfg, k)
                starts.clear()
                try:
                    amps, terms = solve_series(s1, s2, tol=tol, max_terms=2**24)
                except ConvergenceError:
                    row["ConvergenceError"] += 1
                    continue
                row[f"doubling from {starts[0]}" if starts else "phase 1"] += 1
                row["terms"] += terms
                try:
                    closed = solve_closed_form(s1, s2).to_array()
                except DegenerateRingError:
                    continue
                row["worst"] = max(row["worst"], float(np.abs(amps.to_array() - closed).max()))
    finally:
        ring._series_doubling = doubling
    return row


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True, help="corpus seed (the tests use 26)")
    parser.add_argument("--tol", type=float, default=1e-12, help="solve_series tolerance (default 1e-12)")
    args = parser.parse_args(argv)
    print(f"solve_series on the seed-{args.seed} corpus at tol {args.tol:g} ({ring.__file__})")
    print()
    print("| family | " + " | ".join(ENDINGS) + " | terms | worst abs(series - closed form) |")
    print("|---" * (len(ENDINGS) + 3) + "|")
    for mode, scale_invariant in FAMILIES:
        row = family_row(args.seed, mode, scale_invariant, args.tol)
        family = f"{mode}, {'scale-invariant' if scale_invariant else 'generic'} nodes"
        counts = " | ".join(str(row[ending]) for ending in ENDINGS)
        print(f"| {family} | {counts} | {row['terms']} | {row['worst']:.3e} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
