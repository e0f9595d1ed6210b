"""Wavenumber sweeps and resonance location for ring configurations.

A sweep evaluates the ring amplitudes on a uniform wavenumber grid with the
batched kernel `solve_grid`; isolated singular points are kept in the output
with a degenerate flag so downstream tables stay grid-aligned.  The
resonance finder scans either the reflection or the transmission
probability on the same kernel, brackets every strict
local minimum, sharpens each bracket by golden-section search, and keeps
the minima whose probability actually drops below the requested tolerance.
For scale-invariant symmetric/antisymmetric rings the found positions are
cross-checked against the analytic resonance condition and discrepancies
are reported as warnings.
"""

from __future__ import annotations

import functools
import hashlib
import math
import operator
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .junction import is_scale_invariant
from .ring import (
    AntiSymmetric,
    DegenerateRingError,
    General,
    RingAmplitudes,
    RingConfig,
    Symmetric,
    _anti_invariants,
    perfect_transmission_target,
    reflection_core,
    solve_auto,
    solve_grid,
)
from .smallmat import _square

#: Golden-section interval shrink factor per iteration.
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0

#: Default scan density of the resonance finder, per decade of wavenumber.
SCAN_PER_DECADE = 2048


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
    """Opaque stable digest of a ring configuration."""
    left = cfg.left
    parts = [
        "theta=" + ",".join(repr(t) for t in left.theta),
        f"euler={left.alpha!r},{left.beta!r},{left.gamma!r},{left.delta!r},{left.a!r},{left.b!r}",
        f"L0={left.L0!r}",
        f"mode={type(cfg.mode).__name__}",
        f"xi={cfg.xi1!r},{cfg.xi2!r}",
    ]
    if isinstance(cfg.mode, General):
        right = cfg.mode.right
        parts.append("rtheta=" + ",".join(repr(t) for t in right.theta))
        parts.append(
            f"reuler={right.alpha!r},{right.beta!r},{right.gamma!r},{right.delta!r},"
            f"{right.a!r},{right.b!r}"
        )
        parts.append(f"rL0={right.L0!r}")
    return hashlib.sha256(";".join(parts).encode()).hexdigest()


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


def _objective(cfg: RingConfig, kind: ResonanceKind):
    if kind is ResonanceKind.PERFECT_TRANSMISSION:
        def f(k: float) -> float:
            try:
                return solve_auto(cfg, k).p_reflection
            except DegenerateRingError:
                return math.inf
    else:
        def f(k: float) -> float:
            try:
                return solve_auto(cfg, k).p_transmission
            except DegenerateRingError:
                return math.inf
    return f


def _golden_minimize(f, a: float, b: float, width: float) -> tuple[float, float]:
    """Minimize f on [a, b] down to the given interval width."""
    x1 = b - _INVPHI * (b - a)
    x2 = a + _INVPHI * (b - a)
    f1, f2 = f(x1), f(x2)
    while (b - a) > width:
        if f1 < f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - _INVPHI * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + _INVPHI * (b - a)
            f2 = f(x2)
    x = 0.5 * (a + b)
    return x, f(x)


def _expected_resonances(
    cfg: RingConfig, kind: ResonanceKind, k_min: float, k_max: float
) -> list[float] | None:
    """Analytic resonance positions for scale-invariant rings, None when no prediction."""
    if isinstance(cfg.mode, General) or not is_scale_invariant(cfg.left):
        return None
    h = reflection_core(cfg.left)
    h11 = complex(h[0, 0])
    dxi = cfg.dxi
    lattice = [
        n * math.pi / dxi
        for n in range(1, int(k_max * dxi / math.pi) + 2)
        if k_min < n * math.pi / dxi < k_max
    ]
    if isinstance(cfg.mode, Symmetric):
        if kind is ResonanceKind.PERFECT_REFLECTION:
            return []  # transmitted amplitude never vanishes except for decoupled nodes
        if abs(h11) < 1e-9 or abs(abs(h11) - 1.0) < 1e-9:
            return None  # trivial cases: reflection identically zero / no transmission
        return lattice
    # AntiSymmetric
    trm, _ = _anti_invariants(h)
    den_at_one = 1.0 - complex(trm) + abs(h11) ** 2
    if kind is ResonanceKind.PERFECT_REFLECTION:
        coupling = 2.0 * (h[2, 0].conjugate() * h[1, 0]).real
        if abs(coupling) < 1e-9 or abs(den_at_one) < 1e-9:
            return None  # transmission identically zero, or swap symmetry degenerates
        return lattice
    target = perfect_transmission_target(cfg)
    if target.status != "ok":
        return [] if target.status == "out_of_range" else None
    half = math.acos(max(-1.0, min(1.0, target.c_star)))
    ks: list[float] = []
    n = 0
    while True:
        base = n * math.pi / dxi
        if base - half / (2.0 * dxi) > k_max and n > 0:
            break
        for cand in (base + half / (2.0 * dxi), base - half / (2.0 * dxi)):
            if k_min < cand < k_max:
                ks.append(cand)
        n += 1
        if n > int(k_max * dxi / math.pi) + 3:
            break
    return sorted(set(ks))


def find_resonances(
    cfg: RingConfig,
    k_min: float,
    k_max: float,
    kind: ResonanceKind,
    scan_n: int | None = None,
    tol: float = 1e-8,
) -> ResonanceSearch:
    """Locate wavenumbers where the targeted probability vanishes.

    Scans scan_n points, brackets strict local minima of |A|^2 (perfect
    transmission) or |F|^2 (perfect reflection), refines each bracket by
    golden-section search to a width of 1e-12 * (k_max - k_min), and keeps
    minima with probability below tol.
    """
    _check_range(k_min, k_max)
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    if scan_n is None:
        scan_n = max(256, int(SCAN_PER_DECADE * math.log10(k_max / k_min)))
    scan_n = _check_count(scan_n, 3, "scan_n")

    f = _objective(cfg, kind)
    grid = np.linspace(k_min, k_max, scan_n)
    amps, degenerate = solve_grid(cfg, grid)
    target = amps[:, 0 if kind is ResonanceKind.PERFECT_TRANSMISSION else 5]
    values = _square(np.hypot(target.real, target.imag))  # as p_reflection / p_transmission
    values[degenerate] = math.inf
    width = 1e-12 * (k_max - k_min)

    found: list[Resonance] = []
    for i in range(1, scan_n - 1):
        if not (values[i] < values[i - 1] and values[i] < values[i + 1]):
            continue
        if max(values[i - 1], values[i + 1]) <= tol:
            # not an isolated dip: the probability is already below tol on a
            # whole neighbourhood (identically vanishing amplitude, not a zero)
            continue
        k_star, residual = _golden_minimize(f, float(grid[i - 1]), float(grid[i + 1]), width)
        if residual < tol:
            found.append(Resonance(k_star=k_star, kind=kind, residual=residual))

    warnings: list[str] = []
    expected = _expected_resonances(cfg, kind, k_min, k_max)
    if expected is not None:
        step = (k_max - k_min) / (scan_n - 1)
        for ke in expected:
            if ke <= k_min + step or ke >= k_max - step:
                continue  # too close to the range edge to bracket
            if not any(abs(r.k_star - ke) <= 1e-6 * max(1.0, abs(ke)) for r in found):
                warnings.append(
                    f"analytic resonance near k={ke:.12g} was not recovered; "
                    f"scan_n={scan_n} may be too coarse"
                )
        for r in found:
            if not any(abs(r.k_star - ke) <= 1e-6 * max(1.0, abs(ke)) for ke in expected):
                warnings.append(
                    f"found minimum at k={r.k_star:.12g} (residual {r.residual:.3e}) "
                    "has no analytic counterpart"
                )
    return ResonanceSearch(resonances=tuple(found), warnings=tuple(warnings))
