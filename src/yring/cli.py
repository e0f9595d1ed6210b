"""Command-line interface: junction | ring | sweep | find | check.

Exit codes: 0 success, 1 check failure, 2 config error, 3 degenerate ring,
4 series convergence failure, 141 (128 + SIGPIPE) standard output closed by
its reader before the command finished.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import math
import os
import sys
from typing import Any, Iterable, Iterator, NamedTuple

import numpy as np

from .config import _TASK_FIELDS, ConfigError, ParsedConfig, load_config, task_orientation
from .config import _junction_named, _member, _number
from .junction import (
    JunctionParams,
    Orientation,
    ScatteringMatrix,
    _Node,
    _residual,
    _s_grid,
    build_U,
    is_scale_invariant,
    is_time_reversal,
    probabilities,
    s_matrix,
)
from .ring import (
    ConvergenceError,
    DegenerateRingError,
    RingConfig,
    _algebraic_grid,
    flux_defect,
    ring_matrices,
    solve_algebraic,
    solve_auto,
    solve_grid,
    solve_series,
)
from .smallmat import unitarity_error
from .spectrum import _SCAN_LEAST, ResonanceKind, find_resonances, sweep

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_DEGENERATE = 3
EXIT_NO_CONVERGENCE = 4
EXIT_BROKEN_PIPE = 141

CSV_HEADER = "k,abs2_A,abs2_B,abs2_C,abs2_D,abs2_E,abs2_F,re_A,im_A,re_F,im_F,degenerate"

_CHECK_SEED = 20240613
_CHECK_KS = 16

#: Rows rendered per string of the sweep and find outputs, apart from the grid
#: kernel's block: the renderer runs slower at 256 rows and from 2048 rows on
#: than at 512-1024 (BENCH_12.json).
_CSV_BLOCK = 512

#: Marks a task value that has no default.
_REQUIRED = object()


def _flag(key: str) -> str:
    """The flag that sets task.<key>: --k-min for k_min."""
    return "--" + key.replace("_", "-")


def _fmt_complex(z: complex) -> str:
    return f"{z.real:+.12e} {z.imag:+.12e}j"


class _Output(NamedTuple):
    """What a command hands to main.

    Its exit code; its output text, as strings that main writes one after
    another; and warnings, which main writes to stderr once the output has
    been written.
    """

    code: int
    text: Iterable[str]
    warnings: tuple[str, ...] = ()


def _task_value(task: dict[str, Any], name: str, default: Any = _REQUIRED, parse=_number) -> Any:
    """task[name] read by parse; default where it is absent or null, unless it is required."""
    value = task.get(name)
    if value is None:
        if default is _REQUIRED:
            raise ConfigError(f"task.{name}: required (or pass {_flag(name)})")
        return default
    return parse(value, f"task.{name}")


def _count(value: Any, where: str) -> int:
    value = _number(value, where)
    if not (math.isfinite(value) and value.is_integer()):
        raise ConfigError(f"{where}: expected a whole number, got {value!r}")
    return int(value)


def _require_ring(cfg: ParsedConfig) -> RingConfig:
    if cfg.ring is None:
        raise ConfigError("ring: block required for this command")
    return cfg.ring


def _ring_range(cfg: ParsedConfig) -> tuple[RingConfig, float, float]:
    """The ring, k_min and k_max of sweep and find."""
    return _require_ring(cfg), _task_value(cfg.task, "k_min"), _task_value(cfg.task, "k_max")


def _over_range(run, *args, **kwargs):
    # sweep or find_resonances: a value the library rejects is a task error, and
    # a grid too large to allocate is a bad task.n, not a crash.
    try:
        return run(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"task: {exc}") from exc
    except MemoryError as exc:
        raise ConfigError(f"task.n: too many points to hold in memory ({exc})") from exc


def cmd_junction(cfg: ParsedConfig, args: argparse.Namespace) -> _Output:
    name = cfg.task.get("junction") or cfg.sole_junction_name()
    params = _junction_named(cfg.junctions, name, "task.junction")
    k = _task_value(cfg.task, "k")
    xi = _task_value(cfg.task, "xi", 0.0)
    orientation = task_orientation(cfg.task)
    S = s_matrix(params, k, xi, orientation)
    probs = probabilities(S)
    lines: list[str] = []
    w = lines.append
    w(f"junction '{name}'  (L0={params.L0:.12g})\n")
    w(f"theta = ({params.theta[0]:.12g}, {params.theta[1]:.12g}, {params.theta[2]:.12g})\n")
    w(f"k = {k:.12g}  xi = {xi:.12g}  orientation = {orientation.value}\n")
    w("S matrix (rows: outgoing wire, columns: incoming wire):\n")
    for i in range(3):
        w("  " + "  ".join(_fmt_complex(S.m[i, j]) for j in range(3)) + "\n")
    w(f"unitarity error: {unitarity_error(S.m):.3e}\n")
    w("probabilities P(i -> j), entry (j, i) = |S_ji|^2:\n")
    for i in range(3):
        w("  " + "  ".join(f"{probs[i, j]:.12f}" for j in range(3)) + "\n")
    col_sums = probs.sum(axis=0)
    w("column sums: " + "  ".join(f"{c:.12f}" for c in col_sums) + "\n")
    w(f"time-reversal symmetric: {'yes' if is_time_reversal(params) else 'no'}\n")
    w(f"scale-invariant: {'yes' if is_scale_invariant(params) else 'no'}\n")
    return _Output(EXIT_OK, lines)


def cmd_ring(cfg: ParsedConfig, args: argparse.Namespace) -> _Output:
    ring = _require_ring(cfg)
    k = _task_value(cfg.task, "k")
    amps = solve_auto(ring, k)  # fast paths stay regular at their resonances
    try:
        check = solve_algebraic(*ring_matrices(ring, k))
        crosscheck = f"algebraic cross-check max diff = " \
                     f"{float(np.abs(amps.to_array() - check.to_array()).max()):.3e}\n"
    except DegenerateRingError:
        crosscheck = "algebraic cross-check skipped (resolvent degenerate at this k)\n"
    lines: list[str] = []
    w = lines.append
    w(f"ring: mode={type(ring.mode).__name__}  xi1={ring.xi1:.12g}  xi2={ring.xi2:.12g}\n")
    w(f"k = {k:.12g}\n")
    for label, z in zip("ABCDEF", amps.to_array()):
        w(f"{label} = {_fmt_complex(z)}   |{label}|^2 = {abs(z) ** 2:.12e}\n")
    w(f"p_reflection = {amps.p_reflection:.12e}\n")
    w(f"p_transmission = {amps.p_transmission:.12e}\n")
    w(f"flux defect ||A|^2+|F|^2-1| = {flux_defect(amps):.3e}\n")
    w(crosscheck)
    return _Output(EXIT_OK, lines)


def _blocks(head: str, n: int, text) -> Iterator[str]:
    """head, then text(block) for each slice of _CSV_BLOCK of the n rows: one string per block."""
    yield head
    for start in range(0, n, _CSV_BLOCK):
        yield text(slice(start, start + _CSV_BLOCK))


def cmd_sweep(cfg: ParsedConfig, args: argparse.Namespace) -> _Output:
    from .render import csv_rows  # here, so that the other commands neither load nor compile it

    ring, k_min, k_max = _ring_range(cfg)
    spectrum = _over_range(sweep, ring, k_min, k_max, _task_value(cfg.task, "n", parse=_count))

    def text(block: slice) -> str:
        # k, |A|^2..|F|^2, re/im of A and F, the degenerate flag; nan amplitudes where degenerate
        amps = spectrum.amps[block]
        a, f = amps[:, 0], amps[:, 5]
        return csv_rows(np.column_stack((spectrum.k[block], np.abs(amps) ** 2, a.real, a.imag, f.real, f.imag,
                                         spectrum.degenerate[block])))
    return _Output(EXIT_OK, _blocks(CSV_HEADER + "\n", len(spectrum.k), text))


def cmd_find(cfg: ParsedConfig, args: argparse.Namespace) -> _Output:
    ring, k_min, k_max = _ring_range(cfg)
    kind = _task_value(cfg.task, "kind", parse=functools.partial(_member, ResonanceKind))
    tol = _task_value(cfg.task, "tol", 1e-8)
    scan_n = _task_value(cfg.task, "n", None, _count)
    if scan_n is not None and scan_n < _SCAN_LEAST:
        raise ConfigError(f"task.n: expected at least {_SCAN_LEAST} scan points, got {scan_n}")
    found = _over_range(find_resonances, ring, k_min, k_max, kind, scan_n=scan_n, tol=tol)
    rows = found.lines
    if args.out:
        from .render import csv_rows
        # %.17g writes no comma, so the one comma of each rendered row is where the kind goes
        head, text = "k_star,kind,residual\n", lambda b: csv_rows(rows[b]).replace(",", f",{kind.value},")
    else:
        head = f"resonances (kind={kind.value}) in [{k_min:.12g}, {k_max:.12g}]: {len(rows)} found\n"
        text = lambda b: "k* = %.15g   residual = %.6e\n" * len(rows[b]) % tuple(rows[b].flat)
    return _Output(EXIT_OK, _blocks(head, len(rows), text), found.warnings)


def _check_line(out: list[str], label: str, value: float, limit: float) -> bool:
    ok = bool(value <= limit)  # False for NaN
    out.append(f"check {label}: {value:.3e} <= {limit:.0e} {'ok' if ok else 'FAIL'}\n")
    return ok


def _check_junction(out: list[str], name: str, params: JunctionParams, rng: np.random.Generator) -> bool:
    # The unitarity of U, then the unitarity and the node-condition residual of
    # both orientations' matrices at four seeded samples (k, xi, phi), each
    # orientation's four matrices as one block of the grid kernel.
    u = build_U(params)
    ok = _check_line(out, f"unitarity U ({name})", unitarity_error(u), 1e-12)
    samples = [(float(rng.uniform(0.1, 20.0)), float(rng.uniform(-2.0, 2.0)),
                rng.normal(size=3) + 1j * rng.normal(size=3)) for _ in range(4)]
    ks, xis, phis = (np.array(column) for column in zip(*samples))
    phis = phis.T  # one column per sample, as _residual takes them
    node = _Node(params)
    orientations = (Orientation.INWARD, Orientation.OUTWARD)
    with np.errstate(all="ignore"):  # overflowing products of a rejected sample
        masks, entries = zip(*[_s_grid(node, ks, xis, orientation) for orientation in orientations])
    accepted = masks[0]  # the orientations' position exponents differ only in sign: one mask
    if not accepted.all():
        k, xi, _ = samples[np.argmin(accepted)]
        s_matrix(params, k, xi)  # raises at this sample
    residuals = [_residual(u, params.L0, ks, xis, phis, np.einsum("ijn,jn->in", s, phis), orientation)
                 for s, orientation in zip(entries, orientations)]
    stacks = np.moveaxis(np.array(entries), -1, 1)  # (2, n, 3, 3): one matrix per sample
    ok &= _check_line(out, f"unitarity S ({name})", unitarity_error(stacks), 1e-12)
    return ok & _check_line(out, f"node-condition residual ({name})", np.max(residuals), 1e-10)


def _check_ring(out: list[str], ring: RingConfig, rng: np.random.Generator) -> bool:
    # Agreement of the production route (solve_grid, the route of every
    # command), the bounce series and the algebraic solve, and flux
    # conservation, at _CHECK_KS seeded wavenumbers, all but the series on
    # the grid kernel.  The walk below raises at the first wavenumber where
    # the per-point calls would, with their error: solve_grid stops short of
    # the first rejected one.
    ks = rng.uniform(0.1, 12.0, _CHECK_KS)
    with np.errstate(all="ignore"):  # rejected and degenerate rows, raised below
        accepted, s, t = ring._route.node_entries(ks)
        algebraic, regular = _algebraic_grid(s, t)
        algebraic = np.array(algebraic).T  # (n, 6): A..F per row
    routed, degenerate = solve_grid(ring, ks[:ks.size if accepted.all() else np.argmin(accepted)])
    series = np.empty_like(algebraic)
    for i, k in enumerate(ks.tolist()):
        if not accepted[i]:
            ring_matrices(ring, k)  # raises at this wavenumber
        s1 = ScatteringMatrix(m=s[..., i], k=k, xi=float(ring.xi1), orientation=Orientation.INWARD)
        s2 = ScatteringMatrix(m=t[..., i], k=k, xi=float(ring.xi2), orientation=Orientation.OUTWARD)
        if degenerate[i]:
            routed[i] = solve_auto(ring, k).to_array()  # raises where the point is degenerate too
        series[i] = solve_series(s1, s2, tol=1e-12, max_terms=2**24)[0].to_array()
        if not regular[i]:
            algebraic[i] = solve_algebraic(s1, s2).to_array()
    worst_pair = np.abs([routed - series, routed - algebraic, series - algebraic]).max()
    worst_flux = np.abs(np.abs(routed[:, 0]) ** 2 + np.abs(routed[:, 5]) ** 2 - 1.0).max()
    ok = _check_line(out, "three-way solver agreement", worst_pair, 1e-10)
    return ok & _check_line(out, "flux conservation", worst_flux, 1e-10)


def cmd_check(cfg: ParsedConfig, args: argparse.Namespace) -> _Output:
    rng = np.random.default_rng(_CHECK_SEED)
    lines: list[str] = []
    all_ok = True
    for name, params in sorted(cfg.junctions.items()):
        all_ok &= _check_junction(lines, name, params, rng)
    if cfg.ring is not None:
        all_ok &= _check_ring(lines, cfg.ring, rng)
    lines.append("all checks passed\n" if all_ok else "CHECK FAILED\n")
    return _Output(EXIT_OK if all_ok else EXIT_CHECK_FAILED, lines)


#: argparse options of each flag, by the task key it sets; a flag not named here takes a float.
_FLAG_OPTIONS = {"junction": {}, "n": {"type": int}, "kind": {"choices": [k.value for k in ResonanceKind]}}

_K = ("k", "wavenumber")
_RANGE = (("k_min", "range start"), ("k_max", "range end"))

#: Each command's help line and its flags, as (task key, help).
_COMMANDS = {
    "junction": ("report one node's scattering matrix", (_K, ("junction", "junction block name"))),
    "ring": ("solve the ring at one wavenumber", (_K,)),
    "sweep": ("CSV spectrum over a wavenumber range", (*_RANGE, ("n", "number of grid points"))),
    "find": ("locate perfect transmission/reflection", (*_RANGE, ("n", "scan points"),
             ("tol", "probability threshold"), ("kind", "which probability must vanish"))),
    "check": ("run the invariant suite on the config", ()),
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # Built on the first call of main, not at import, and shared by every
    # later call: parsing leaves the parser unchanged and keeps each call's
    # state in the Namespace it returns.
    parser = argparse.ArgumentParser(
        prog="yring",
        description="Scattering amplitudes and resonances for double-node quantum ring systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_line, flags) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_line)
        p.add_argument("--config", required=True, help="path to the JSON config file")
        p.add_argument("--out", help="write the report/CSV to this path")
        for key, flag_help in flags:
            # a flag left out is None and leaves the task value
            p.add_argument(_flag(key), help=flag_help, **_FLAG_OPTIONS.get(key, {"type": float}))
    return parser


#: The handler of each command, apart from _COMMANDS: perfbench/tracing.py
#: reaches handlers as module attributes and dict values, not inside tuples.
_DISPATCH = {
    "junction": cmd_junction,
    "ring": cmd_ring,
    "sweep": cmd_sweep,
    "find": cmd_find,
    "check": cmd_check,
}


def _write(text: Iterable[str], path: str | None) -> None:
    """Write a command's text to path, or to stdout, which is then flushed."""
    if path:
        try:
            out = open(path, "w", newline="")
        except OSError as exc:
            raise ConfigError(f"cannot write --out {path}: {exc}") from exc
        with out:
            out.writelines(text)
    else:
        sys.stdout.writelines(text)
        # Flushed here, so that the warnings written next follow the text on a
        # shared stream (`2>&1`) however stdout is buffered.
        sys.stdout.flush()


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        flags = {name: value for name, value in vars(args).items()
                 if name in _TASK_FIELDS and value is not None}
        result = _DISPATCH[args.command](dataclasses.replace(cfg, task={**cfg.task, **flags}), args)
        # Written only once the command has succeeded, so a failed run truncates nothing.
        try:
            _write(result.text, args.out)
            code = result.code
        except BrokenPipeError:
            # The reader of stdout has gone (`yring sweep ... | head -1`).  Point
            # stdout at devnull so that the interpreter's final flush of what is
            # still buffered stays silent too.
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
            code = EXIT_BROKEN_PIPE
        for msg in result.warnings:
            print(f"warning: {msg}", file=sys.stderr)
        return code
    except DegenerateRingError as exc:
        print(f"degenerate ring: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except ConvergenceError as exc:
        print(f"convergence failure: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    except ValueError as exc:  # a ConfigError, or an invalid value reaching library validation
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
