"""Command-line interface: junction | ring | sweep | find | check.

Exit codes: 0 success, 1 check failure, 2 config error, 3 degenerate ring,
4 series convergence failure, 141 (128 + SIGPIPE) standard output closed by
its reader before the command finished.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from typing import Any, TextIO

import numpy as np

from .config import ConfigError, ParsedConfig, load_config, task_orientation
from .junction import (
    Orientation,
    build_U,
    is_scale_invariant,
    is_time_reversal,
    junction_residual,
    probabilities,
    s_matrix,
)
from .ring import (
    GRID_BLOCK,
    ConvergenceError,
    DegenerateRingError,
    RingConfig,
    flux_defect,
    ring_matrices,
    solve_algebraic,
    solve_auto,
    solve_closed_form,
    solve_series,
)
from .smallmat import unitarity_error
from .spectrum import ResonanceKind, Spectrum, find_resonances, sweep

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_DEGENERATE = 3
EXIT_NO_CONVERGENCE = 4
EXIT_BROKEN_PIPE = 141

CSV_HEADER = "k,abs2_A,abs2_B,abs2_C,abs2_D,abs2_E,abs2_F,re_A,im_A,re_F,im_F,degenerate"

_CHECK_SEED = 20240613
_CHECK_KS = 16

#: Marks a task value that has no default.
_REQUIRED = object()


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _fmt_complex(z: complex) -> str:
    return f"{z.real:+.12e} {z.imag:+.12e}j"


def _require_number(
    task: dict[str, Any], args: argparse.Namespace, name: str, flag: str, default: Any = _REQUIRED
) -> Any:
    value = getattr(args, flag, None)
    if value is None:
        value = task.get(name)
    if value is None:
        if default is _REQUIRED:
            raise ConfigError(f"task.{name}: required (or pass --{name.replace('_', '-')})")
        return default
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"task.{name}: expected a number, got {value!r}")
    return float(value)


def _require_count(
    task: dict[str, Any], args: argparse.Namespace, default: Any = _REQUIRED
) -> int | None:
    value = _require_number(task, args, "n", "n", default)
    if value is None:
        return None
    if not (math.isfinite(value) and value.is_integer()):
        raise ConfigError(f"task.n: expected a whole number, got {value!r}")
    return int(value)


def _require_ring(cfg: ParsedConfig) -> RingConfig:
    if cfg.ring is None:
        raise ConfigError("ring: block required for this command")
    return cfg.ring


def _out_stream(args: argparse.Namespace) -> TextIO:
    if getattr(args, "out", None):
        try:
            return open(args.out, "w", newline="")
        except OSError as exc:
            raise ConfigError(f"cannot write --out {args.out}: {exc}") from exc
    return sys.stdout


def cmd_junction(cfg: ParsedConfig, args: argparse.Namespace) -> int:
    name = args.junction or cfg.task.get("junction") or cfg.sole_junction_name()
    if not isinstance(name, str) or name not in cfg.junctions:
        raise ConfigError(f"task.junction: unknown junction {name!r}")
    params = cfg.junctions[name]
    k = _require_number(cfg.task, args, "k", "k")
    xi = _require_number(cfg.task, args, "xi", "xi", 0.0)
    orientation = task_orientation(cfg.task)
    S = s_matrix(params, k, xi, orientation)
    probs = probabilities(S)
    out = _out_stream(args)
    with _maybe_close(out, args):
        w = out.write
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
    return EXIT_OK


def cmd_ring(cfg: ParsedConfig, args: argparse.Namespace) -> int:
    ring = _require_ring(cfg)
    k = _require_number(cfg.task, args, "k", "k")
    amps = solve_auto(ring, k)  # fast paths stay regular at their resonances
    try:
        check = solve_algebraic(*ring_matrices(ring, k))
        crosscheck = f"algebraic cross-check max diff = " \
                     f"{float(np.abs(amps.to_array() - check.to_array()).max()):.3e}\n"
    except DegenerateRingError:
        crosscheck = "algebraic cross-check skipped (resolvent degenerate at this k)\n"
    out = _out_stream(args)
    with _maybe_close(out, args):
        w = out.write
        w(f"ring: mode={type(ring.mode).__name__}  xi1={ring.xi1:.12g}  xi2={ring.xi2:.12g}\n")
        w(f"k = {k:.12g}\n")
        for label, z in zip("ABCDEF", amps.to_array()):
            w(f"{label} = {_fmt_complex(z)}   |{label}|^2 = {abs(z) ** 2:.12e}\n")
        w(f"p_reflection = {amps.p_reflection:.12e}\n")
        w(f"p_transmission = {amps.p_transmission:.12e}\n")
        w(f"flux defect ||A|^2+|F|^2-1| = {flux_defect(amps):.3e}\n")
        w(crosscheck)
    return EXIT_OK


#: One CSV row: k, |A|^2..|F|^2, re/im of A and F, all as _fmt renders them.
_CSV_ROW = ",".join(["%.17g"] * 11) + ",0\n"
_CSV_DEGENERATE_ROW = "%.17g" + ",nan" * 10 + ",1\n"


def _csv_blocks(spectrum: Spectrum):
    """The sweep CSV, GRID_BLOCK rows per string."""
    yield CSV_HEADER + "\n"
    for start in range(0, len(spectrum.k), GRID_BLOCK):
        block = slice(start, start + GRID_BLOCK)
        amps = spectrum.amps[block]
        moduli = np.hypot(amps.real, amps.imag).tolist()  # abs(z), as the scalar code takes it
        rows = []
        for k, (a, *_, f), m, degenerate in zip(
            spectrum.k[block].tolist(), amps.tolist(), moduli, spectrum.degenerate[block].tolist()
        ):
            if degenerate:
                rows.append(_CSV_DEGENERATE_ROW % k)
                continue
            rows.append(_CSV_ROW % (
                k, m[0] ** 2, m[1] ** 2, m[2] ** 2, m[3] ** 2, m[4] ** 2, m[5] ** 2,
                a.real, a.imag, f.real, f.imag,
            ))
        yield "".join(rows)


def cmd_sweep(cfg: ParsedConfig, args: argparse.Namespace) -> int:
    ring = _require_ring(cfg)
    k_min = _require_number(cfg.task, args, "k_min", "k_min")
    k_max = _require_number(cfg.task, args, "k_max", "k_max")
    n = _require_count(cfg.task, args)
    try:
        spectrum = sweep(ring, k_min, k_max, n)
    except ValueError as exc:
        raise ConfigError(f"task: {exc}") from exc
    out = _out_stream(args)
    with _maybe_close(out, args):
        for text in _csv_blocks(spectrum):
            out.write(text)
    return EXIT_OK


def cmd_find(cfg: ParsedConfig, args: argparse.Namespace) -> int:
    ring = _require_ring(cfg)
    k_min = _require_number(cfg.task, args, "k_min", "k_min")
    k_max = _require_number(cfg.task, args, "k_max", "k_max")
    kind_raw = args.kind or cfg.task.get("kind")
    if kind_raw is None:
        raise ConfigError("task.kind: required (or pass --kind)")
    try:
        kind = ResonanceKind(kind_raw)
    except ValueError:
        raise ConfigError(
            f"task.kind: expected transmission|reflection, got {kind_raw!r}"
        ) from None
    tol = _require_number(cfg.task, args, "tol", "tol", 1e-8)
    scan_n = _require_count(cfg.task, args, None)
    try:
        result = find_resonances(ring, k_min, k_max, kind, scan_n=scan_n, tol=tol)
    except ValueError as exc:
        raise ConfigError(f"task: {exc}") from exc
    out = _out_stream(args)
    with _maybe_close(out, args):
        w = out.write
        if args.out:
            w("k_star,kind,residual\n")
            for r in result.resonances:
                w(f"{_fmt(r.k_star)},{r.kind.value},{_fmt(r.residual)}\n")
        else:
            w(f"resonances (kind={kind.value}) in [{k_min:.12g}, {k_max:.12g}]: "
              f"{len(result.resonances)} found\n")
            for r in result.resonances:
                w(f"k* = {r.k_star:.15g}   residual = {r.residual:.6e}\n")
        for msg in result.warnings:
            print(f"warning: {msg}", file=sys.stderr)
    return EXIT_OK


def _check_line(out: list[str], label: str, value: float, limit: float) -> bool:
    ok = value <= limit
    out.append(f"check {label}: {value:.3e} <= {limit:.0e} {'ok' if ok else 'FAIL'}")
    return ok


def cmd_check(cfg: ParsedConfig, args: argparse.Namespace) -> int:
    rng = np.random.default_rng(_CHECK_SEED)
    lines: list[str] = []
    all_ok = True
    for name, params in sorted(cfg.junctions.items()):
        all_ok &= _check_line(
            lines, f"unitarity U ({name})", unitarity_error(build_U(params)), 1e-12
        )
        worst_s = 0.0
        worst_res = 0.0
        for _ in range(4):
            k = float(rng.uniform(0.1, 20.0))
            xi = float(rng.uniform(-2.0, 2.0))
            phi = rng.normal(size=3) + 1j * rng.normal(size=3)
            for orientation in (Orientation.INWARD, Orientation.OUTWARD):
                S = s_matrix(params, k, xi, orientation)
                worst_s = max(worst_s, unitarity_error(S.m))
                res = junction_residual(
                    build_U(params), params.L0, k, xi, phi, S.m @ phi, orientation
                )
                worst_res = max(worst_res, res)
        all_ok &= _check_line(lines, f"unitarity S ({name})", worst_s, 1e-12)
        all_ok &= _check_line(lines, f"node-condition residual ({name})", worst_res, 1e-10)

    if cfg.ring is not None:
        worst_pair = 0.0
        worst_flux = 0.0
        for _ in range(_CHECK_KS):
            k = float(rng.uniform(0.1, 12.0))
            s1, s2 = ring_matrices(cfg.ring, k)
            closed = solve_closed_form(s1, s2).to_array()
            series, _terms = solve_series(s1, s2, tol=1e-12, max_terms=2**24)
            algebraic = solve_algebraic(s1, s2).to_array()
            series = series.to_array()
            worst_pair = max(
                worst_pair,
                float(np.abs(closed - series).max()),
                float(np.abs(closed - algebraic).max()),
                float(np.abs(series - algebraic).max()),
            )
            worst_flux = max(worst_flux, abs(float(np.abs(closed[0]) ** 2 + np.abs(closed[5]) ** 2) - 1.0))
        all_ok &= _check_line(lines, "three-way solver agreement", worst_pair, 1e-10)
        all_ok &= _check_line(lines, "flux conservation", worst_flux, 1e-10)

    out = _out_stream(args)
    with _maybe_close(out, args):
        for line in lines:
            out.write(line + "\n")
        out.write("all checks passed\n" if all_ok else "CHECK FAILED\n")
    return EXIT_OK if all_ok else EXIT_CHECK_FAILED


class _maybe_close:
    """Close the stream on exit when it was opened from --out."""

    def __init__(self, stream: TextIO, args: argparse.Namespace):
        self.stream = stream
        self.opened = bool(getattr(args, "out", None))

    def __enter__(self):
        return self.stream

    def __exit__(self, *exc):
        if self.opened:
            self.stream.close()
        return False


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

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", required=True, help="path to the JSON config file")
        p.add_argument("--out", default=None, help="write the report/CSV to this path")

    p_junction = sub.add_parser("junction", help="report one node's scattering matrix")
    common(p_junction)
    p_junction.add_argument("--k", type=float, default=None, help="wavenumber")
    p_junction.add_argument("--junction", default=None, help="junction block name")

    p_ring = sub.add_parser("ring", help="solve the ring at one wavenumber")
    common(p_ring)
    p_ring.add_argument("--k", type=float, default=None, help="wavenumber")

    p_sweep = sub.add_parser("sweep", help="CSV spectrum over a wavenumber range")
    common(p_sweep)
    p_sweep.add_argument("--k-min", dest="k_min", type=float, default=None, help="range start")
    p_sweep.add_argument("--k-max", dest="k_max", type=float, default=None, help="range end")
    p_sweep.add_argument("--n", type=int, default=None, help="number of grid points")

    p_find = sub.add_parser("find", help="locate perfect transmission/reflection")
    common(p_find)
    p_find.add_argument("--k-min", dest="k_min", type=float, default=None, help="range start")
    p_find.add_argument("--k-max", dest="k_max", type=float, default=None, help="range end")
    p_find.add_argument("--n", type=int, default=None, help="scan points")
    p_find.add_argument("--tol", type=float, default=None, help="probability threshold")
    p_find.add_argument(
        "--kind", choices=[k.value for k in ResonanceKind], default=None,
        help="which probability must vanish",
    )

    p_check = sub.add_parser("check", help="run the invariant suite on the config")
    common(p_check)
    return parser


_DISPATCH = {
    "junction": cmd_junction,
    "ring": cmd_ring,
    "sweep": cmd_sweep,
    "find": cmd_find,
    "check": cmd_check,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        return _DISPATCH[args.command](cfg, args)
    except BrokenPipeError:
        # The reader of stdout has gone (`yring sweep ... | head -1`).  Point
        # stdout at devnull so that the interpreter's final flush of what is
        # still buffered stays silent too.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DegenerateRingError as exc:
        print(f"degenerate ring: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except ConvergenceError as exc:
        print(f"convergence failure: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    except ValueError as exc:  # invalid values reaching library validation
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
