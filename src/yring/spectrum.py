"""Wavenumber sweeps and resonance location for ring configurations.

A sweep evaluates the ring amplitudes on a uniform wavenumber grid with the
batched kernel `solve_grid`; isolated singular points are kept in the output
with a degenerate flag so downstream tables stay grid-aligned.  The
resonance finder evaluates the searched amplitude (A or F) alone, on the
same kernel.  Where the ring's minima lie on one value of cos(2 k dxi) (a
scale-invariant ring; a symmetric ring's transmission, bar nodes whose s11
can vanish), it enumerates their analytic positions, zeros or not, and keeps
those that read below the requested tolerance, in one kernel call (in none
where the minima are not zeros and their analytic value is not below it).
On every other ring it scans the probability, brackets every strict local
minimum that is not rounding noise, sharpens each bracket by safeguarded
Newton steps on the complex amplitude (whose perfect transmission or
reflection is a simple real zero), and keeps the minima whose probability
drops below the tolerance.  An analytic zero that does not read below the
tolerance, and an analytic minimum that does, are warnings.
"""

from __future__ import annotations

import functools
import hashlib
import math
import operator
import sys
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .ring import (
    DegenerateRingError,
    RingAmplitudes,
    RingConfig,
    _ROUNDING,
    _solve_grid_columns,
    solve_auto,
    solve_grid,
)

#: Default scan density of the resonance finder, per decade of wavenumber.
SCAN_PER_DECADE = 2048

#: Fewest scan points find_resonances takes: one bracket of three.
_SCAN_LEAST = 3

#: find_resonances' default tol, and yring find's where the task sets none.
_FIND_TOL = 1e-8

#: Fewest open brackets whose next probes find_resonances takes in one kernel call; smaller rounds probe on
#: solve_auto.  One column of `_solve_grid_columns` costs 31-59 us at 1 to 9 wavenumbers on the shipped configs,
#: and a prepared solve_auto 9-21 us: the grid call breaks even at 3 to 5 probes (BENCH_39.json).
_LOCKSTEP_LEAST = 4

#: Fewest scan samples per line spacing pi/dxi below which find_resonances warns that its scan may miss lines.
_SCAN_PER_SPACING = 4

#: Cross-check warnings of each kind written out; one line counts the rest.
_WARNINGS_KEPT = 10

# The early stop of _golden_minimize for a minimum that is not a line.  On
# traces of every bracket of corpus(20240613, 300), corpus(7, 300) and
# refine_batch() in tests/test_refine.py, of find-refine seeds 1-8 and of the
# shipped configs over [1, 1000] (2 vCPUs, numpy 2.4.6), it decided none of
# the 3,486 brackets that end below tol, nor with a decrement bound of 1e-1;
# on find-refine seeds 1-8 it saves 8,468 of 23,700 refine evaluations
# (BENCH_24.json).
#: |z|^2 above this many times tol can be decided: with the decrement bound
#: below, the model's minimum then lies above 99 tol.
_DECIDED_MARGIN = 100.0
#: Greatest Newton decrement g^2/h, as a share of |z|^2, that decides a
#: bracket: the model's minimum lies at or above 0.99 |z|^2.  Near a simple
#: zero g^2/h is about |z|^2, 100 times this.
_DECIDED_DECREMENT = 1e-2
#: A Newton step validates its model when the decrease it achieved lies
#: within [1/_TRUST_RATIO, _TRUST_RATIO] of the decrease g^2/h the model
#: predicted.  With any decrease taken as validating, corpus(20240613, 300)
#: lost 6 of its lines; at one (antisymmetric, theta = (0, pi, pi),
#: dxi = 3.937, k* = 3.5910891...) a step lowered |A|^2 from 0.998 to 0.943
#: where its model predicted 3.1e-5.
_TRUST_RATIO = 2.0


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
        return tuple(
            SpectrumPoint(k=k, p_refl=abs(row[0]) ** 2, p_trans=abs(row[5]) ** 2,
                          amps=None if degenerate else RingAmplitudes(*row), degenerate=degenerate)
            for k, row, degenerate in zip(self.k.tolist(), self.amps.tolist(), self.degenerate.tolist()))


@dataclass(frozen=True, slots=True)
class Resonance:
    k_star: float
    kind: ResonanceKind
    residual: float


@dataclass(frozen=True, eq=False)
class ResonanceSearch:
    """A search of one kind: its lines (k*, residual) as one read-only array, in increasing k*, and its warnings."""

    kind: ResonanceKind
    lines: np.ndarray
    warnings: tuple[str, ...] = ()

    def __post_init__(self):
        self.lines.setflags(write=False)

    @functools.cached_property
    def resonances(self) -> tuple[Resonance, ...]:
        """The rows as Resonance values, built on first access."""
        return tuple(Resonance(k_star=k, kind=self.kind, residual=r) for k, r in self.lines.tolist())


def config_fingerprint(cfg: RingConfig) -> str:
    """Opaque stable digest of a ring configuration: the SHA-256 of its repr, which holds every field."""
    return hashlib.sha256(repr(cfg).encode()).hexdigest()


def _check_range(k_min: float, k_max: float) -> None:
    if not (0.0 < k_min < k_max and math.isfinite(k_max)):
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


def _scan_count(k_min: float, k_max: float, scan_n: int | None) -> int:
    default = max(256, int(SCAN_PER_DECADE * math.log10(k_max / k_min)))  # at least 256, however narrow the window
    return _check_count(default if scan_n is None else scan_n, _SCAN_LEAST, "scan_n")


def sweep(cfg: RingConfig, k_min: float, k_max: float, n: int) -> Spectrum:
    """Evaluate the ring on n uniformly spaced wavenumbers in [k_min, k_max]."""
    _check_range(k_min, k_max)
    k = np.linspace(k_min, k_max, _check_count(n, 2, "n"))
    amps, degenerate = solve_grid(cfg, k)
    for a in (k, amps, degenerate):
        a.setflags(write=False)
    return Spectrum(k=k, amps=amps, degenerate=degenerate, fingerprint=config_fingerprint(cfg))


def _golden_minimize(k, z, fx: float, width: float, tol: float):
    """Refine one scan bracket to the minimum of |z(k)|^2 by safeguarded Newton steps.

    A generator, so that find_resonances can probe all open brackets of a
    search together: it yields each new wavenumber u, is sent (z, |z|^2) at u
    (both NaN where the ring is degenerate: never lower), and returns the best probe
    and its |z|^2 in its StopIteration.  k holds the bracket's three scan
    wavenumbers in increasing order, the middle one the lowest, z their
    complex amplitudes and fx = |z[1]|^2.  Each step fits the complex quadratic
    through the best probe and the two latest and takes Newton's step on
    |z|^2 from its z' and z'', -Re(z* z') / (|z'|^2 + Re(z* z'')).  As in Brent's minimizer (Algorithms
    for Minimization without Derivatives, 1973), a golden-section step into
    the larger part of the bracket replaces a step that leaves the bracket
    or is not shorter than half the step before last, and the bracket
    shrinks as in golden-section search; so does a step after a Newton step
    that did not lower |z|^2, where the fit is no model of z (the tail of a
    line narrower than the scan spacing).  Stops after a step no longer than
    width (a zero of z), when the Newton decrement g^2/h of |z|^2 falls to
    4 eps |z|^2 (a nonzero minimum), or at |z|^2 = 0.

    It also stops early on a minimum that cannot be a line, |z|^2 < tol: when
    |z|^2 > _DECIDED_MARGIN tol and g^2/h <= _DECIDED_DECREMENT |z|^2, the
    quadratic model puts the minimum at or above 0.99 |z|^2 > 99 tol.  The
    model is trusted only after a Newton step whose achieved decrease of
    |z|^2 lay within a factor _TRUST_RATIO of the decrease g^2/h it
    predicted (the ratio test of trust-region methods; Nocedal & Wright,
    Numerical Optimization, 2006, section 4.1).  On the tail of a line
    narrower than the scan spacing the fit sees a flat curve, a small
    decrement and no line; the first Newton step there falls far more than
    predicted, so such a bracket refines on.  A simple zero never meets the
    rule, as g^2/h is about |z|^2 near it.

    The name predates the Newton steps and the generator: perfbench/tracing.py
    finds the refine by it, and so times only the generator's creation.
    """
    golden = 0.5 * (3.0 - math.sqrt(5.0))
    decrement_floor = 2.0 * sys.float_info.epsilon  # g^2/h <= 4 eps f, with half-derivatives
    a, x, b = k
    zx = z[1]
    latest = [(k[0], z[0]), (k[2], z[2])]  # the two latest probes other than the best
    step = before = b - a
    newton_failed = trusted = False
    while fx > 0.0:
        (k1, z1), (k2, z2) = latest
        slope = (z1 - zx) / (k1 - x)
        curve = ((z2 - z1) / (k2 - k1) - slope) / (k2 - x)  # z''/2 of the quadratic
        d1 = slope + curve * (x - k1)  # z' of the quadratic at x
        g = (zx.conjugate() * d1).real  # half of (|z|^2)'
        h = abs(d1) * abs(d1) + 2.0 * (zx.conjugate() * curve).real  # half of (|z|^2)''
        # a decrement at rounding level, or one that keeps a validated model's minimum above 99 tol
        bound = _DECIDED_DECREMENT if trusted and fx > _DECIDED_MARGIN * tol else decrement_floor
        if h > 0.0 and g * g <= bound * fx * h:
            break
        newton = -g / h if h > 0.0 else math.nan
        is_newton = not newton_failed and a < x + newton < b and abs(newton) < 0.5 * abs(before)
        if is_newton:
            before, step = step, newton
            predicted = g * g / h
        else:
            before = a - x if x >= 0.5 * (a + b) else b - x
            step = golden * before
        u = x + step
        if u == x:
            break
        zu, fu = yield u
        newton_failed = is_newton and not fu < fx
        trusted = is_newton and predicted / _TRUST_RATIO <= fx - fu <= _TRUST_RATIO * predicted
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
) -> tuple[np.ndarray, float] | None:
    """Analytic positions of the minima of the searched probability, None when there is no prediction.

    Where ring._arm_minima (computed once per ring) predicts them, every
    minimum lies where cos(2 k dxi) equals a constant c of the ring (a
    scale-invariant node's matrix does not depend on k; the symmetric ring's
    A vanishes only there when |s11| is bounded away from 0): on the lines
    n pi/dxi for c = 1, halfway between them for c = -1, else acos(c)/(2 dxi)
    to either side of each line.  Returns the sorted positions in the window
    together with at least one beyond each end (those below 0 clamped to 0),
    which find_resonances takes as the outer neighbours, and the analytic
    value of the probability there: 0 where the amplitude vanishes (the
    symmetric ring's transmission, the antisymmetric ring's reflection, and
    its transmission on a target in range), the least value it takes where
    it does not (the symmetric ring's reflection, an antisymmetric
    transmission target out of range).  Only the n from one line below the
    window to two above it are visited, so the cost is linear in the lines
    of the window.
    """
    minima = cfg._minima[0 if kind is ResonanceKind.PERFECT_TRANSMISSION else 1]
    if minima is None:
        return None
    c, least = minima
    dxi = cfg.dxi
    if k_max * dxi / math.pi >= 2.0**52:  # from here the lines, pi/dxi apart, are not distinct floats
        raise ValueError(f"k_max must be below 2**52 pi/dxi = {2.0**52 * math.pi / dxi:.6g}, got k_max={k_max!r}")
    first, last = int(k_min * dxi / math.pi) - 1, int(k_max * dxi / math.pi) + 3
    try:
        n = np.arange(max(0, first), last, dtype=float)
    except MemoryError as exc:
        raise ValueError(f"too many lines in [{k_min!r}, {k_max!r}] to hold in memory ({exc})") from None
    if c == 1.0:
        return n * math.pi / dxi, least
    if c == -1.0:
        return np.maximum((n - 0.5) * math.pi / dxi, 0.0), least
    lattice = n * math.pi / dxi
    offset = math.acos(c) / (2.0 * dxi)
    both = np.sort(np.maximum(np.concatenate([lattice + offset, lattice - offset]), 0.0))
    return both[np.concatenate(([True], both[1:] > both[:-1]))], least  # each once (np.unique imports numpy.ma, 1 MB)


def find_resonances(
    cfg: RingConfig,
    k_min: float,
    k_max: float,
    kind: ResonanceKind,
    scan_n: int | None = None,
    tol: float = _FIND_TOL,
) -> ResonanceSearch:
    """Locate wavenumbers where the targeted probability vanishes.

    Evaluates |A|^2 (perfect transmission) or |F|^2 (perfect reflection),
    computing that amplitude alone (solve_grid's column, word for word).
    tol must lie strictly between 0 and 1: probabilities are at most 1, so
    with tol >= 1 no candidate could have a neighbour above it.

    Where _expected_resonances gives the positions of the minima (see
    ring._arm_minima) there is no scan.  Minima that are not zeros (the
    symmetric ring's reflection, an antisymmetric transmission target out of
    range) whose analytic value is at least tol hold no line, and nothing is
    evaluated.  Otherwise one kernel call evaluates each position in the
    window and the midpoints to its neighbours.  A position reading below
    tol is reported at its analytic float with that reading as its residual,
    unless neither midpoint exceeds tol (an identically vanishing
    amplitude); a degenerate midpoint reads NaN, no evidence of that, and
    its position stays.  A zero reading at or above tol is a warning, and so
    is one that reads degenerate (a bound state on the analytic line); so is
    each minimum reported that is not a zero, and one that reads at or above
    tol is dropped.  No line is missed however narrow or close to another,
    and scan_n is not used.  A ValueError refuses k_max dxi/pi >= 2**52 (the
    lines are not distinct floats) and a lattice too large to allocate.

    Otherwise it scans scan_n points and brackets the strict local minima,
    except where both neighbours are below tol (the vanishing rule) or within
    64 eps of the minimum (rounding noise on a flat curve).  A degenerate row
    reads NaN, as the kernel writes it, which no comparison passes: it is no
    dip, and no neighbour above tol.  A scan of fewer than _SCAN_PER_SPACING
    samples per line spacing pi/dxi can step over lines, and warns, naming the
    scan_n that reaches it.  Each bracket is refined from its three scan
    samples by Newton steps on the complex amplitude, safeguarded by
    golden-section steps, down to a step of 1e-12 * (k_max - k_min) (see
    _golden_minimize); minima with probability below tol are kept.  A bracket
    stops early, and is dropped, once a Newton model that its last step
    validated keeps the minimum above 99 tol.  Each round takes the next probe
    of every open bracket, in one kernel call while at least _LOCKSTEP_LEAST
    are open, else on solve_auto; a grid row's last bits depend on its call's
    other rows, so near a narrow line k* depends (the same on every run) on
    which brackets share a round.
    """
    if not isinstance(kind, ResonanceKind):
        raise ValueError(f"kind must be {ResonanceKind.PERFECT_TRANSMISSION} or {ResonanceKind.PERFECT_REFLECTION}, "
                         f"got {kind!r}")
    _check_range(k_min, k_max)
    if not 0.0 < tol < 1.0:
        raise ValueError(f"tol must lie strictly between 0 and 1, got {tol!r}")
    scan_n = _scan_count(k_min, k_max, scan_n)

    transmission = kind is ResonanceKind.PERFECT_TRANSMISSION
    columns = (transmission, False, False, False, False, not transmission)  # A or F

    def on_grid(ks) -> tuple[np.ndarray, np.ndarray]:
        z = _solve_grid_columns(cfg, ks, columns)[0][:, 0]  # NaN on a degenerate row
        return z, np.abs(z) ** 2

    minima = cfg._minima[0 if transmission else 1]
    if minima is not None and minima[1] >= tol:
        return ResonanceSearch(kind, np.empty((0, 2)))  # every minimum reads at least tol: nothing to evaluate
    expected = _expected_resonances(cfg, kind, k_min, k_max)
    if expected is not None:
        positions, least = expected
        # the positions in the window, each between the midpoints to its neighbours
        start, stop = positions.searchsorted(k_min, "right"), positions.searchsorted(k_max, "left")
        ks = np.empty(2 * (stop - start) + 1)
        ks[1::2] = positions[start:stop]
        ks[0::2] = 0.5 * (positions[start - 1:stop] + positions[start:stop + 1])
        values = on_grid(ks)[1]
        rows = np.column_stack((ks[1::2], values[1::2]))[~(np.maximum(values[:-1:2], values[2::2]) <= tol)]  # NaN stays
        below = rows[:, 1] < tol
        if least == 0.0:
            warnings = _cross_check(
                rows, rows[:, 1] >= tol, "analytic resonance at k={0:.12g} has residual {1:.3e}, not below tol",
                "{} more analytic resonances in [{:.12g}, {:.12g}] have residuals not below tol") + _cross_check(
                rows, np.isnan(rows[:, 1]), "analytic resonance at k={0:.12g} reads degenerate (a bound state), not confirmed",
                "{} more analytic resonances in [{:.12g}, {:.12g}] read degenerate")
        else:
            warnings = _cross_check(
                rows, below, "found minimum at k={0:.12g} (residual {1:.3e}) has no analytic counterpart",
                "{} more found minima in [{:.12g}, {:.12g}] have no analytic counterpart")
        return ResonanceSearch(kind, rows[below], warnings)

    def probe(k: float) -> tuple[complex, float]:
        try:
            amplitudes = solve_auto(cfg, k)
        except DegenerateRingError:
            return complex(math.nan, math.nan), math.nan
        z = amplitudes.A if transmission else amplitudes.F
        return z, abs(z) ** 2

    grid = np.linspace(k_min, k_max, scan_n)
    target, values = on_grid(grid)
    mid, lo, hi = values[1:-1], values[:-2], values[2:]
    rim = np.maximum(lo, hi)
    # strict local minima, minus two kinds of false dip: the probability is
    # already below tol on a whole neighbourhood (an identically vanishing
    # amplitude, not a zero), or the dip is rounding noise on a flat curve
    dips = (mid < lo) & (mid < hi) & (rim > tol) & (rim > (1.0 + _ROUNDING) * mid)
    width = 1e-12 * (k_max - k_min)
    # each bracket's refine, replaced by its (k*, |z*|^2) when it returns
    brackets = [_golden_minimize(grid[i - 1:i + 2].tolist(), target[i - 1:i + 2].tolist(), values.item(i), width, tol)
                for i in (np.flatnonzero(dips) + 1).tolist()]
    replies = dict.fromkeys(range(len(brackets)))  # each open bracket and what it is sent next
    while replies:
        asked = {}
        for j, reply in replies.items():
            try:
                asked[j] = brackets[j].send(reply)
            except StopIteration as stop:
                brackets[j] = stop.value
        ks = list(asked.values())
        lockstep = len(ks) >= _LOCKSTEP_LEAST
        replies = dict(zip(asked, zip(*(a.tolist() for a in on_grid(ks))) if lockstep else map(probe, ks)))
    rows = np.array(brackets).reshape(-1, 2)
    # about the count of lines in the window; it may underflow to 0 or, times 4, overflow
    spacings = (k_max - k_min) * cfg.dxi / math.pi
    warnings = () if scan_n - 1 >= _SCAN_PER_SPACING * spacings else (
        f"scan of [{k_min:.12g}, {k_max:.12g}] takes {(scan_n - 1) / spacings:.3g} samples per line spacing pi/dxi, "
        f"fewer than {_SCAN_PER_SPACING}, and can miss lines: scan_n (--n) "
        f"{np.ceil(_SCAN_PER_SPACING * spacings) + 1:.0f} takes {_SCAN_PER_SPACING}",)
    return ResonanceSearch(kind, rows[rows[:, 1] < tol], warnings)


def _cross_check(rows: np.ndarray, flagged: np.ndarray, each: str, rest: str) -> tuple[str, ...]:
    """Warnings for the rows (k*, residual) that flagged marks, which the analytic positions do not confirm, in order.

    each formats one row, rest the count and range of those beyond the
    first _WARNINGS_KEPT (10), which it stands for in one line.
    """
    if not np.count_nonzero(flagged):  # most searches: nothing to gather
        return ()
    flagged = rows[flagged]
    beyond = flagged[_WARNINGS_KEPT:, 0].tolist()
    counted = [rest.format(len(beyond), min(beyond), max(beyond))] if beyond else []
    return tuple([each.format(*row) for row in flagged[:_WARNINGS_KEPT].tolist()] + counted)
