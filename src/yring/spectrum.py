"""Wavenumber sweeps and resonance location for ring configurations.

A sweep evaluates the ring amplitudes on a uniform wavenumber grid with the
batched kernel `solve_grid`; isolated singular points are kept in the output
with a degenerate flag so downstream tables stay grid-aligned.  The
resonance finder scans either the reflection or the transmission
probability on the same kernel, which evaluates the searched amplitude (A
or F) alone; it brackets every strict local minimum that is not rounding
noise, sharpens each bracket by safeguarded Newton steps on the complex
amplitude (whose perfect transmission or reflection is a simple real zero),
and keeps the minima whose probability actually drops below the requested
tolerance.
For scale-invariant symmetric/antisymmetric rings the found positions are
cross-checked against the analytic resonance condition and discrepancies
are reported as warnings; the check is linear in the lines of the window.
"""

from __future__ import annotations

import bisect
import functools
import hashlib
import math
import operator
import sys
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .ring import (
    DegenerateRingError,
    RingAmplitudes,
    RingConfig,
    Symmetric,
    _anti_trace,
    _solve_grid_columns,
    perfect_transmission_target,
    reflection_core,
    solve_auto,
    solve_grid,
)

#: Default scan density of the resonance finder, per decade of wavenumber.
SCAN_PER_DECADE = 2048

#: Fewest scan points find_resonances takes: one bracket of three.
_SCAN_LEAST = 3

#: Cross-check warnings of each kind written out; one line counts the rest.
_WARNINGS_KEPT = 10


class ResonanceKind(Enum):
    PERFECT_TRANSMISSION = "transmission"
    PERFECT_REFLECTION = "reflection"


@dataclass(frozen=True)
class SpectrumPoint:
    """One wavenumber sample: probabilities plus the full amplitude set."""

    k: float
    p_refl: float
    p_trans: float
    amps: RingAmplitudes | None
    degenerate: bool = False


@dataclass(frozen=True, eq=False)
class Spectrum:
    """A sweep as arrays, plus a digest identifying the configuration.

    k holds the n wavenumbers, amps the amplitudes A..F per row (n, 6) and
    degenerate the rows where the ring decouples (their amplitudes are NaN).
    The arrays are read-only.
    """

    k: np.ndarray
    amps: np.ndarray
    degenerate: np.ndarray
    fingerprint: str

    @functools.cached_property
    def points(self) -> tuple[SpectrumPoint, ...]:
        """The rows as SpectrumPoint values, built on first access."""
        points = []
        for k, row, degenerate in zip(self.k.tolist(), self.amps.tolist(), self.degenerate.tolist()):
            if degenerate:
                points.append(SpectrumPoint(k=k, p_refl=math.nan, p_trans=math.nan, amps=None, degenerate=True))
                continue
            amps = RingAmplitudes(*row)
            points.append(SpectrumPoint(k=k, p_refl=amps.p_reflection, p_trans=amps.p_transmission, amps=amps))
        return tuple(points)


@dataclass(frozen=True)
class Resonance:
    k_star: float
    kind: ResonanceKind
    residual: float


@dataclass(frozen=True)
class ResonanceSearch:
    """Resonances found by scan-and-refine, with any cross-check warnings."""

    resonances: tuple[Resonance, ...]
    warnings: tuple[str, ...] = field(default=())


def config_fingerprint(cfg: RingConfig) -> str:
    """Opaque stable digest of a ring configuration: the SHA-256 of its repr, which holds every field."""
    return hashlib.sha256(repr(cfg).encode()).hexdigest()


def _check_range(k_min: float, k_max: float) -> None:
    if not (0.0 < k_min < k_max < math.inf):
        raise ValueError(f"need 0 < k_min < k_max < inf, got k_min={k_min!r}, k_max={k_max!r}")
    if not math.isfinite(k_max / k_min):
        raise ValueError(f"k_max/k_min must be finite, got k_min={k_min!r}, k_max={k_max!r}")


def _check_count(n, least: int, name: str) -> int:
    try:
        n = operator.index(n)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {n!r}") from None
    if n < least:
        raise ValueError(f"{name} must be at least {least}")
    return n


def sweep(cfg: RingConfig, k_min: float, k_max: float, n: int) -> Spectrum:
    """Evaluate the ring on n uniformly spaced wavenumbers in [k_min, k_max]."""
    _check_range(k_min, k_max)
    k = np.linspace(k_min, k_max, _check_count(n, 2, "n"))
    amps, degenerate = solve_grid(cfg, k)
    for a in (k, amps, degenerate):
        a.setflags(write=False)
    return Spectrum(k=k, amps=amps, degenerate=degenerate, fingerprint=config_fingerprint(cfg))


def _golden_minimize(probe, k, z, f, width: float) -> tuple[float, float]:
    """Refine one scan bracket to the minimum of |z(k)|^2 by safeguarded Newton steps.

    k holds the bracket's three scan wavenumbers in increasing order, the
    middle one the lowest, z their complex amplitudes and f = |z|^2 (inf
    where the ring is degenerate); probe(k) returns (z, f) at a new
    wavenumber.  Each step fits the complex quadratic through the best probe
    and the two latest and takes Newton's step on |z|^2 from its z' and z'',
    -Re(z* z') / (|z'|^2 + Re(z* z'')).  As in Brent's minimizer (Algorithms
    for Minimization without Derivatives, 1973), a golden-section step into
    the larger part of the bracket replaces a step that leaves the bracket
    or is not shorter than half the step before last, and the bracket
    shrinks as in golden-section search; so does a step after a Newton step
    that did not lower |z|^2, where the fit is no model of z (the tail of a
    line narrower than the scan spacing).  Stops after a step no longer than
    width (a zero of z), when the Newton decrement g^2/h of |z|^2 falls to
    4 eps |z|^2 (a nonzero minimum), or at |z|^2 = 0, and returns the best
    probe and its |z|^2.

    The name predates the Newton steps: perfbench/tracing.py finds the
    refine by it.
    """
    golden = 0.5 * (3.0 - math.sqrt(5.0))
    decrement_floor = 2.0 * sys.float_info.epsilon  # g^2/h <= 4 eps f, with half-derivatives
    a, x, b = k
    zx, fx = z[1], f[1]
    latest = [(k[0], z[0]), (k[2], z[2])]  # the two latest probes other than the best
    step = before = b - a
    newton_failed = False
    while fx > 0.0:
        (k1, z1), (k2, z2) = latest
        slope = (z1 - zx) / (k1 - x)
        curve = ((z2 - z1) / (k2 - k1) - slope) / (k2 - x)  # z''/2 of the quadratic
        d1 = slope + curve * (x - k1)  # z' of the quadratic at x
        g = (zx.conjugate() * d1).real  # half of (|z|^2)'
        h = abs(d1) * abs(d1) + 2.0 * (zx.conjugate() * curve).real  # half of (|z|^2)''
        if h > 0.0 and g * g <= decrement_floor * fx * h:
            break
        newton = -g / h if h > 0.0 else math.nan
        is_newton = not newton_failed and a < x + newton < b and abs(newton) < 0.5 * abs(before)
        if is_newton:
            before, step = step, newton
        else:
            before = a - x if x >= 0.5 * (a + b) else b - x
            step = golden * before
        u = x + step
        if u == x:
            break
        zu, fu = probe(u)
        newton_failed = is_newton and not fu < fx
        if fu <= fx:
            if u >= x:
                a = x
            else:
                b = x
            latest = [(x, zx), latest[0]]
            x, zx, fx = u, zu, fu
        else:
            if u < x:
                a = u
            else:
                b = u
            latest = [(u, zu), latest[0]]
        if abs(step) <= width:
            break
    return x, fx


def _expected_resonances(
    cfg: RingConfig, kind: ResonanceKind, k_min: float, k_max: float
) -> list[float] | None:
    """Analytic resonance positions for scale-invariant rings, None when no prediction.

    The positions are sorted.  They lie on or beside the lines n pi/dxi, and
    only the n from one line below the window up are visited.
    """
    if cfg._route.forms is None:
        return None
    h = reflection_core(cfg.left)
    h11 = complex(h[0, 0])
    dxi = cfg.dxi
    first, last = int(k_min * dxi / math.pi) - 1, int(k_max * dxi / math.pi) + 2
    lattice = [
        n * math.pi / dxi
        for n in range(max(1, first), last)
        if k_min < n * math.pi / dxi < k_max
    ]
    if isinstance(cfg.mode, Symmetric):
        if kind is ResonanceKind.PERFECT_REFLECTION:
            return []  # transmitted amplitude never vanishes except for decoupled nodes
        if abs(h11) < 1e-9 or abs(abs(h11) - 1.0) < 1e-9:
            return None  # trivial cases: reflection identically zero / no transmission
        return lattice
    # AntiSymmetric
    den_at_one = 1.0 - complex(_anti_trace(h)) + abs(h11) ** 2
    if kind is ResonanceKind.PERFECT_REFLECTION:
        coupling = 2.0 * (h[2, 0].conjugate() * h[1, 0]).real
        if abs(coupling) < 1e-9 or abs(den_at_one) < 1e-9:
            return None  # transmission identically zero, or swap symmetry degenerates
        return lattice
    target = perfect_transmission_target(cfg)
    if target.status != "ok":
        return [] if target.status == "out_of_range" else None
    half = math.acos(max(-1.0, min(1.0, target.c_star)))
    # n pi/dxi - half/(2 dxi) < k_max needs n < k_max dxi/pi + 1/2, as half <= pi,
    # and n pi/dxi + half/(2 dxi) > k_min needs n > k_min dxi/pi - 1/2
    return sorted({
        cand
        for n in range(max(0, first), last)
        for cand in (n * math.pi / dxi + half / (2.0 * dxi), n * math.pi / dxi - half / (2.0 * dxi))
        if k_min < cand < k_max
    })


def find_resonances(
    cfg: RingConfig,
    k_min: float,
    k_max: float,
    kind: ResonanceKind,
    scan_n: int | None = None,
    tol: float = 1e-8,
) -> ResonanceSearch:
    """Locate wavenumbers where the targeted probability vanishes.

    Scans |A|^2 (perfect transmission) or |F|^2 (perfect reflection) on
    scan_n points, computing that amplitude alone (solve_grid's column, word
    for word), and brackets the strict local minima, except where both
    neighbours are below tol (an identically vanishing amplitude) or within
    64 eps of the minimum (rounding noise on a flat curve).  Each bracket is
    refined from its three scan samples by Newton steps on the complex
    amplitude, safeguarded by golden-section steps, down to a step of
    1e-12 * (k_max - k_min) (see _golden_minimize); minima with probability
    below tol are kept.  tol must lie strictly between 0 and 1: probabilities
    are at most 1, so with tol >= 1 no dip could have a neighbour above it.
    For scale-invariant symmetric and antisymmetric rings the result carries
    the warnings of _cross_check against the analytic positions.
    """
    if not isinstance(kind, ResonanceKind):
        raise ValueError(f"kind must be {ResonanceKind.PERFECT_TRANSMISSION} or {ResonanceKind.PERFECT_REFLECTION}, "
                         f"got {kind!r}")
    _check_range(k_min, k_max)
    if not 0.0 < tol < 1.0:
        raise ValueError(f"tol must lie strictly between 0 and 1, got {tol!r}")
    if scan_n is None:
        scan_n = max(256, int(SCAN_PER_DECADE * math.log10(k_max / k_min)))
    scan_n = _check_count(scan_n, _SCAN_LEAST, "scan_n")

    grid = np.linspace(k_min, k_max, scan_n)
    transmission = kind is ResonanceKind.PERFECT_TRANSMISSION
    column = 0 if transmission else 5  # A or F
    amps, degenerate = _solve_grid_columns(cfg, grid, tuple(i == column for i in range(6)))
    target = amps[:, 0]
    values = np.abs(target) ** 2
    values[degenerate] = math.inf
    width = 1e-12 * (k_max - k_min)

    def probe(k: float) -> tuple[complex, float]:
        try:
            amplitudes = solve_auto(cfg, k)
        except DegenerateRingError:
            return complex(math.nan, math.nan), math.inf
        z = amplitudes.A if transmission else amplitudes.F
        return z, abs(z) ** 2

    mid, lo, hi = values[1:-1], values[:-2], values[2:]
    rim = np.maximum(lo, hi)
    # strict local minima, minus two kinds of false dip: the probability is
    # already below tol on a whole neighbourhood (an identically vanishing
    # amplitude, not a zero), or the dip is rounding noise on a flat curve
    dips = (mid < lo) & (mid < hi) & (rim > tol) & (rim > (1.0 + 64.0 * sys.float_info.epsilon) * mid)
    found: list[Resonance] = []
    for i in (np.flatnonzero(dips) + 1).tolist():
        bracket = slice(i - 1, i + 2)
        k_star, residual = _golden_minimize(
            probe, grid[bracket].tolist(), target[bracket].tolist(), values[bracket].tolist(), width
        )
        if residual < tol:
            found.append(Resonance(k_star=k_star, kind=kind, residual=residual))

    expected = _expected_resonances(cfg, kind, k_min, k_max)
    warnings = () if expected is None else _cross_check(found, expected, k_min, k_max, scan_n)
    return ResonanceSearch(resonances=tuple(found), warnings=tuple(warnings))


def _near(values: list[float], centre: float, reach: float) -> list[float]:
    # The members of the sorted list values within reach of centre.
    return values[bisect.bisect_left(values, centre - reach):bisect.bisect_right(values, centre + reach)]


def _cross_check(found, expected, k_min, k_max, scan_n) -> list[str]:
    """Warnings for the analytic positions no resonance recovers, then for the resonances none explains.

    A resonance at k* and an expected position ke match when
    |k* - ke| <= 1e-6 max(1, |ke|).  Both lists are sorted, so bisection
    finds the few candidates that could match (within 2e-6 max(1, |k|), which
    holds every match) and only those are tested, so the cost is about linear
    in the lines of the window.  Positions within one scan step of the range
    edge cannot be bracketed, so they are not reported.  Each kind keeps its
    first _WARNINGS_KEPT (10) warnings; one line counts the rest and their range.
    """
    step = (k_max - k_min) / (scan_n - 1)
    stars = sorted(r.k_star for r in found)
    missed = []
    for ke in expected:
        if ke <= k_min + step or ke >= k_max - step:
            continue  # too close to the range edge to bracket
        tol = 1e-6 * max(1.0, abs(ke))
        if not any(abs(k - ke) <= tol for k in _near(stars, ke, 2.0 * tol)):
            missed.append(ke)
    unexplained = []
    for r in found:
        near = _near(expected, r.k_star, 2e-6 * max(1.0, abs(r.k_star)))
        if not any(abs(r.k_star - ke) <= 1e-6 * max(1.0, abs(ke)) for ke in near):
            unexplained.append(r)
    warnings = [f"analytic resonance near k={ke:.12g} was not recovered; scan_n={scan_n} may be too coarse"
                for ke in missed[:_WARNINGS_KEPT]]
    warnings += _rest(missed, "analytic resonances", f"were not recovered; scan_n={scan_n} may be too coarse")
    warnings += [f"found minimum at k={r.k_star:.12g} (residual {r.residual:.3e}) has no analytic counterpart"
                 for r in unexplained[:_WARNINGS_KEPT]]
    warnings += _rest([r.k_star for r in unexplained], "found minima", "have no analytic counterpart")
    return warnings


def _rest(ks: list[float], what: str, verdict: str) -> list[str]:
    # The one line that stands for the warnings beyond the first _WARNINGS_KEPT.
    rest = ks[_WARNINGS_KEPT:]
    return [f"{len(rest)} more {what} in [{min(rest):.12g}, {max(rest):.12g}] {verdict}"] if rest else []
