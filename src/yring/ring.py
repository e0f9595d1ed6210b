"""Double-node ring solvers: bounce series, resolvent closed form, and algebraic forms.

A ring is two three-wire nodes at xi1 > xi2 joined by their interior wires;
unit flux enters on the left node's exterior wire.  The six amplitudes A..F
of the piecewise plane-wave state come from three routes that must agree:

* solve_series      -- sums the bounce series of (s s~)^n, then doubles it,
* solve_closed_form -- resums it into the 2x2 resolvent (I - s s~)^-1,
* solve_algebraic   -- eliminates the interior amplitudes explicitly.

Each formula, the bounce operator s s~ (_bounce) included, is written once on
the node entries s[i][j], t[i][j]: complex scalars at a point, arrays on a grid.

Every symmetric ring (a Fabry-Perot cavity) and the swap-antisymmetric ring
with a scale-invariant node have much simpler closed forms; those fast paths
live here too, with the perfect-transmission target of the antisymmetric ring.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .junction import (
    JunctionParams,
    Orientation,
    ScatteringMatrix,
    _Node,
    _s_array,
    _s_grid,
    build_U,
    build_V,
    is_scale_invariant,
)
from .smallmat import Mat3

#: _singular flags |det(I - s s~)| <= this * max(1, largest entry**2); the closed forms raise where |den| < this.
DEGENERATE_TOL = 1e-13

#: solve_algebraic's two forms of its determinant Delta agree to this.
_IDENTITY_TOL = 1e-12

#: Rounding level: a singular value, coupling or relative launch component at most this is zero.
_ROUNDING = 64 * sys.float_info.epsilon

#: The one message of DegenerateRingError.
_DEGENERATE = "ring is degenerate at k={!r}: I - s s~ is singular and the amplitudes are not determined"

#: Bounce count after which solve_series switches to binary doubling: the
#: measured crossover (BENCH_7.json), above the 15-20 terms that a
#: quarter-reflecting ring needs at tol 1e-10.  A sum whose end, forecast at
#: half this count, lies past twice it switches there (BENCH_35.json).
_SERIES_DOUBLING_THRESHOLD = 64

#: Wavenumbers solve_grid evaluates together; bounds its temporary arrays.
#: On the shipped configs (2-vCPU VM, numpy 2.4 on OpenBLAS 0.3.31) the
#: kernel takes 0.72-0.94 us a point at 2048, against 0.86-1.02 at 512,
#: 0.76-0.97 at 1024 and 0.82-1.07 at 4096, where a 100000-point sweep also
#: peaks up to 1.8 MB higher.
GRID_BLOCK = 2048

#: Flags for the amplitudes A..F: which ones a formula or grid route computes.
_ALL_COLUMNS = (True,) * 6


class DegenerateRingError(ArithmeticError):
    """The ring solve is singular: an interior wire has effectively decoupled."""


class ConvergenceError(ArithmeticError):
    """The bounce series did not meet its tolerance within the term budget."""

    def __init__(self, message: str, partial: "RingAmplitudes", terms: int, bound: float):
        super().__init__(message)
        self.partial = partial
        self.terms = terms
        self.bound = bound


@dataclass(frozen=True)
class Symmetric:
    """Right node identical to the left one."""


@dataclass(frozen=True)
class AntiSymmetric:
    """Right node identical to the left one with the interior wires swapped."""


@dataclass(frozen=True)
class General:
    """Independent right node."""

    right: JunctionParams


SymmetryMode = Symmetric | AntiSymmetric | General

SYMMETRIC = Symmetric()
ANTISYMMETRIC = AntiSymmetric()


@dataclass(frozen=True)
class RingConfig:
    """Two nodes at xi1 > xi2 plus the symmetry relation between them."""

    left: JunctionParams
    mode: SymmetryMode
    xi1: float
    xi2: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.xi1) and math.isfinite(self.xi2)):
            raise ValueError("node positions must be finite")
        if not self.xi1 > self.xi2:
            raise ValueError(f"xi1 must exceed xi2, got xi1={self.xi1!r}, xi2={self.xi2!r}")
        if not isinstance(self.mode, (Symmetric, AntiSymmetric, General)):
            raise ValueError(f"unknown symmetry mode {self.mode!r}")

    @property
    def dxi(self) -> float:
        """Arm length xi1 - xi2 (strictly positive)."""
        return self.xi1 - self.xi2

    @functools.cached_property
    def _route(self) -> "_Route":
        # Built on first use and kept on this instance.  It is not a field, so
        # __eq__, __hash__ and repr ignore it, and __getstate__ leaves it out
        # of pickles and copies.
        return _Route(self)

    @functools.cached_property
    def _minima(self) -> tuple:
        # find's constants of this ring (_arm_minima), built and kept like _route.
        return _arm_minima(self)

    def __getstate__(self) -> dict:
        return {name: value for name, value in self.__dict__.items() if name not in ("_route", "_minima")}


@dataclass(frozen=True)
class RingAmplitudes:
    """The six complex coefficients of the ring scattering state.

    A is the reflected and F the transmitted exterior amplitude; B..E live
    on the interior wires.  For unitary nodes |A|^2 + |F|^2 = 1.
    """

    A: complex
    B: complex
    C: complex
    D: complex
    E: complex
    F: complex

    @property
    def p_reflection(self) -> float:
        return abs(self.A) ** 2

    @property
    def p_transmission(self) -> float:
        return abs(self.F) ** 2

    def to_array(self) -> np.ndarray:
        return np.array([self.A, self.B, self.C, self.D, self.E, self.F], dtype=complex)


def flux_defect(amps: RingAmplitudes) -> float:
    """| |A|^2 + |F|^2 - 1 |, zero for any ring built from unitary nodes."""
    return abs(amps.p_reflection + amps.p_transmission - 1.0)


def ring_matrices(cfg: RingConfig, k: float) -> tuple[ScatteringMatrix, ScatteringMatrix]:
    """Left inward matrix at xi1 and the effective right outward matrix at xi2."""
    m1, m2 = cfg._route.arrays(k)
    return (
        ScatteringMatrix(m=m1, k=float(k), xi=float(cfg.xi1), orientation=Orientation.INWARD),
        ScatteringMatrix(m=m2, k=float(k), xi=float(cfg.xi2), orientation=Orientation.OUTWARD),
    )


def _check_pair(S1: ScatteringMatrix, S2eff: ScatteringMatrix) -> None:
    if not (S1.k == S2eff.k and S1.orientation is Orientation.INWARD and S2eff.orientation is Orientation.OUTWARD):
        raise ValueError(f"a ring needs an INWARD and an OUTWARD matrix at one k, got {S1.orientation.name} "
                         f"at k={S1.k!r} and {S2eff.orientation.name} at k={S2eff.k!r}")


def _bounce(s, t) -> tuple:
    # The entries (m00, m01, m10, m11) of the bounce operator s s~ on the interior wires,
    # from the node entries s[i][j], t[i][j]: complex scalars, or arrays over a grid.
    (_, s11, s12), (_, s21, s22) = s[1], s[2]
    (_, t11, t12), (_, t21, t22) = t[1], t[2]
    return s11 * t11 + s12 * t21, s11 * t12 + s12 * t22, s21 * t11 + s22 * t21, s21 * t12 + s22 * t22


def _amplitudes(s, t, v, columns=_ALL_COLUMNS) -> tuple:
    # The amplitudes A..F that columns flags (None for the others) from the node
    # entries s[i][j], t[i][j] and v, the resolvent (or a partial bounce sum)
    # applied to (s21, s31): complex scalars, or arrays over a grid.
    a, b, c, d, e, f = columns
    # only A, B and D read sv = t[1:, 1:] v
    sv = (t[1][1] * v[0] + t[1][2] * v[1], t[2][1] * v[0] + t[2][2] * v[1]) if a or b or d else None
    return (
        s[0][0] + s[0][1] * sv[0] + s[0][2] * sv[1] if a else None,
        s[1][0] + s[1][1] * sv[0] + s[1][2] * sv[1] if b else None,
        t[1][1] * v[0] + t[1][2] * v[1] if c else None,
        s[2][0] + s[2][1] * sv[0] + s[2][2] * sv[1] if d else None,
        t[2][1] * v[0] + t[2][2] * v[1] if e else None,
        t[0][1] * v[0] + t[0][2] * v[1] if f else None,
    )


def _singular(gap, det):
    """Whether the gap I - s s~ is left to the rule of _solved_grid, elementwise: a cheap prefilter.

    gap holds the entries (g00, g01, g10, g11), det their determinant (scalars or
    grid arrays): |det| <= DEGENERATE_TOL * max(1, largest entry**2), absolute below
    entry 1, relative above, and at most 4 DEGENERATE_TOL on unitary nodes (|gap| <= 2).
    """
    largest = functools.reduce(np.maximum, map(abs, gap))  # NaN if an entry is NaN
    return abs(det) <= DEGENERATE_TOL * np.maximum(1.0, largest ** 2)


def _solved_grid(s, t, singular, amplitudes) -> tuple[tuple, np.ndarray]:
    """amplitudes() on node entries (3, 3, n) under the singular-gap rule, and the degenerate mask.

    The flagged rows (a flagged point is a one-row block) are settled together from one
    stacked SVD of their gaps I - s s~.  An unexcited bound state (the launch (s21, s31) has
    a rounding-level part along the left null direction, and the right null direction reaches
    neither A nor F) is solved on the gap's range, which a gap of rank zero lacks; a gap
    regular to working precision keeps amplitudes(); any other row is degenerate.
    """
    values, degenerate = amplitudes(), np.zeros_like(singular)
    rows = np.flatnonzero(singular)
    if not rows.size:  # most blocks: no SVD
        return values, degenerate
    m1, m2 = np.moveaxis(s, -1, 0)[rows], np.moveaxis(t, -1, 0)[rows]  # one node matrix per row
    u, sv, vh = np.linalg.svd(np.eye(2) - np.einsum("nij,njk->nik", m1[:, 1:, 1:], m2[:, 1:, 1:]))  # rounds as _bounce
    launch, null = m1[:, 1:, :1], vh[:, 1:].conj().swapaxes(1, 2)  # columns
    part = (u.conj().swapaxes(1, 2)[:, :, None] @ launch[:, None])[..., 0, 0]  # one dot per left singular vector
    reach = np.maximum(abs(m2[:, :1, 1:] @ null), abs(m1[:, :1, 1:] @ m2[:, 1:, 1:] @ null))  # to F and A
    norm = np.sqrt(sum(x.swapaxes(1, 2) @ x for x in (launch.real, launch.imag)))[:, 0, 0]  # as linalg.norm, per row
    solved = (sv[:, 0] > _ROUNDING) & (reach[:, 0, 0] <= _ROUNDING) & (abs(part[:, 1]) <= _ROUNDING * norm)
    degenerate[rows] = ~solved & (sv[:, 1] <= _ROUNDING)
    v = vh[:, 0].conj().T * (part[:, 0] / sv[:, 0])  # divides by 0 on a gap of rank zero, never solved
    for z, a in zip(values, _amplitudes(m1.transpose(1, 2, 0), m2.transpose(1, 2, 0), v)):
        if z is not None:  # a column not computed
            z[rows[solved]] = a[solved]
    return values, degenerate


def _resolvent_forms(s, t, columns=_ALL_COLUMNS):
    # The resolvent (I - s s~)^-1 on the node entries s[i][j], t[i][j] (complex
    # scalars, or arrays over a grid): _singular of the gap, and the amplitudes
    # that columns flags as a function, which divides by det(I - s s~).
    m00, m01, m10, m11 = _bounce(s, t)
    g00, g01, g10, g11 = gap = (1.0 - m00, 0.0 - m01, 0.0 - m10, 1.0 - m11)  # 0.0 - m, not -m, keeps +0
    det = g00 * g11 - g01 * g10

    def amplitudes():
        v = (g11 / det * s[1][0] + -g01 / det * s[2][0], -g10 / det * s[1][0] + g00 / det * s[2][0])
        return _amplitudes(s, t, v, columns)

    return _singular(gap, det), amplitudes


def _ruled_point(singular, amplitudes, m1: Mat3, m2: Mat3, k: float, forms) -> RingAmplitudes:
    # A point route: amplitudes(), or where singular, forms (as _resolvent_forms) on m1, m2 as a one-row block.
    if not singular:  # tested first: CPython raises on a complex division by an exact zero
        return RingAmplitudes(*amplitudes())
    with np.errstate(all="ignore"):  # a degenerate row divides by ~0
        values, degenerate = _solved_grid(m1[..., None], m2[..., None], *forms(m1[..., None], m2[..., None]))
    if degenerate[0]:
        raise DegenerateRingError(_DEGENERATE.format(k))
    return RingAmplitudes(*np.concatenate(values).tolist())


def _resolve(m1: Mat3, m2: Mat3, k: float) -> RingAmplitudes:
    return _ruled_point(*_resolvent_forms(m1.tolist(), m2.tolist()), m1, m2, k, _resolvent_forms)


def solve_closed_form(S1: ScatteringMatrix, S2eff: ScatteringMatrix) -> RingAmplitudes:
    """Resum the bounce series: apply the 2x2 resolvent (I - s s~)^-1 exactly."""
    _check_pair(S1, S2eff)
    return _resolve(S1.m, S2eff.m, S1.k)


def solve_series(
    S1: ScatteringMatrix,
    S2eff: ScatteringMatrix,
    tol: float = 1e-12,
    max_terms: int = 100_000,
) -> tuple[RingAmplitudes, int]:
    """Sum the multiple-bounce expansion: term by term, then by exact doubling.

    Term n applies (s s~)^(n-1) to the launch vector (s21, s31); summation
    stops once a geometric bound on the remaining tail drops below tol.
    Two bounds are tried each step and either may certify the stop:

    * block bound -- with P = (s s~)^n and q = |P|_inf < 1, the exact
      identity tail = sum_b P^b * partial gives |tail| <= q/(1-q) * |partial|;
    * ratio bound -- |next increment| / (1 - rho), with rho the matrix
      infinity norm when it certifies contraction, else the worst observed
      increment ratio.  This handles rings where the matrix powers never
      decay but the launch vector lies in the contracting eigenspace
      (symmetric rings keep a unimodular eigenvalue orthogonal to the
      launch vector).

    A sum that neither bound ends within _SERIES_DOUBLING_THRESHOLD terms is
    finished by exact binary doubling of the same series: partial sums over
    2n terms follow from n via S_2n = S_n + (s s~)^n S_n, so the term count
    in the result stays the true number of bounce terms summed: phase 1's
    count times a power of two.  When max_terms allows the full phase 1, the
    sum is forecast at half of it: with r the faster of the spectral radius
    of s s~ and rho, the tail falls below tol after about
    log(tol (1 - r) / |increment|) / log r more terms.  A sum forecast to end
    past twice _SERIES_DOUBLING_THRESHOLD would be doubled anyway, so the
    doubling starts there.  The forecast is optimistic, not a bound: on the
    test corpora it takes no sum that phase 1 ends, and every sum it takes
    ends at the term count it had when doubled from the full phase 1.

    Returns the amplitudes and the number of terms used.
    """
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    if max_terms < 1:
        raise ValueError("max_terms must be at least 1")
    _check_pair(S1, S2eff)
    s, t = S1.m.tolist(), S2eff.m.tolist()
    m11, m12, m21, m22 = _bounce(s, t)
    rho_matrix = max(abs(m11) + abs(m12), abs(m21) + abs(m22))
    noise_floor = 1e-3 * tol  # rounding noise in increments sits near 1e-16

    d1, d2 = s[1][0], s[2][0]
    u1 = u2 = 0.0 + 0.0j
    p11, p12, p21, p22 = 1.0 + 0j, 0j, 0j, 1.0 + 0j  # running power of s s~
    terms = 0
    nd = prev = 0.0  # increment norms of this term and the one before (0 before term 1)
    phase1 = min(max_terms, _SERIES_DOUBLING_THRESHOLD)
    # A budget below the hand-off is never gated: terms is at least 1 in the loop.
    gate = _SERIES_DOUBLING_THRESHOLD // 2 if max_terms >= _SERIES_DOUBLING_THRESHOLD else 0
    # The loop body runs once per bounce term, so it avoids interpreter work:
    # each row of the power is updated on its own (the rows are independent),
    # and `b if b > a else a` is what max(a, b) returns, NaN included.
    while terms < phase1:
        u1 += d1
        u2 += d2
        terms += 1
        d1, d2 = m11 * d1 + m12 * d2, m21 * d1 + m22 * d2
        p11, p12 = p11 * m11 + p12 * m21, p11 * m12 + p12 * m22
        p21, p22 = p21 * m11 + p22 * m21, p21 * m12 + p22 * m22
        prev2 = prev
        prev = nd
        nd = abs(d1)
        a = abs(d2)
        if a > nd:
            nd = a
        if nd <= noise_floor:
            break
        # Either bound may certify the stop; the block bound is computed only
        # when the ratio bound has not.
        rho = rho_matrix
        if rho >= 1.0 and prev2 > 0.0:  # three increments seen
            rho = nd / prev
            a = prev / prev2
            if a > rho:
                rho = a
        if rho < 1.0 and nd / (1.0 - rho) <= tol:
            break
        q = abs(p11) + abs(p12)
        a = abs(p21) + abs(p22)
        if a > q:
            q = a
        if q < 1.0:
            a = abs(u1)
            b = abs(u2)
            if q / (1.0 - q) * (b if b > a else a) <= tol:
                break
        if terms == gate:
            # Forecast the end at the faster of two rates, the spectral radius
            # of s s~ and rho; a sum forecast past twice the hand-off is doubled
            # from here, with the same term counts: 32 * 2**(j+1) = 64 * 2**j.
            tr = m11 + m22
            root = cmath.sqrt(tr * tr - 4.0 * (m11 * m22 - m12 * m21))
            a = max(abs(tr + root), abs(tr - root)) / 2.0
            if rho < a:
                a = rho
            if 0.0 < a < 1.0 and gate + math.log(tol * (1.0 - a) / nd) / math.log(a) > 2 * _SERIES_DOUBLING_THRESHOLD:
                phase1 = terms  # ends the loop without a break: the doubling takes the sum
    else:
        return _series_doubling(s, t, (p11, p12, p21, p22), (u1, u2), terms, tol, max_terms)
    return RingAmplitudes(*_amplitudes(s, t, (u1, u2))), terms


def _series_doubling(s, t, p, u, terms, tol, max_terms):
    """Finish a slowly contracting bounce series by doubling partial sums.

    p is the power (s s~)**terms and u the sum of the first `terms` terms,
    as phase 1 of solve_series leaves them; the products are phase 1's 2x2
    formulas on complex scalars.
    """
    p11, p12, p21, p22 = p
    u1, u2 = u
    prev_inc = math.inf
    bound = math.inf
    while True:
        # series terms [terms, 2*terms), summed
        i1, i2 = p11 * u1 + p12 * u2, p21 * u1 + p22 * u2
        inc_norm = max(abs(i1), abs(i2))
        if inc_norm == 0.0:
            bound = 0.0
            break
        if inc_norm <= tol:
            # certify with a per-block decay factor: the matrix norm of P when
            # it contracts (rigorous), else the observed block-to-block decay
            rate = max(abs(p11) + abs(p12), abs(p21) + abs(p22))
            if prev_inc < math.inf:
                rate = min(rate, inc_norm / prev_inc)
            if rate < 1.0:
                bound = inc_norm / (1.0 - rate)
                if bound <= tol:
                    break
        if 2 * terms > max_terms:
            partial = RingAmplitudes(*_amplitudes(s, t, (u1, u2)))
            raise ConvergenceError(
                f"bounce series did not reach tol={tol:g} within {max_terms} terms "
                f"(block increment {inc_norm:g})",
                partial=partial,
                terms=terms,
                bound=bound if math.isfinite(bound) else inc_norm,
            )
        u1 += i1
        u2 += i2
        p11, p12, p21, p22 = (
            p11 * p11 + p12 * p21,
            p11 * p12 + p12 * p22,
            p21 * p11 + p22 * p21,
            p21 * p12 + p22 * p22,
        )
        terms *= 2
        prev_inc = inc_norm
    return RingAmplitudes(*_amplitudes(s, t, (u1, u2))), terms


def solve_algebraic(S1: ScatteringMatrix, S2eff: ScatteringMatrix) -> RingAmplitudes:
    """Explicit component solution obtained by eliminating the interior amplitudes.

    Independent of the resolvent route: everything is spelled out through
    the pair sums over the interior wires and a common 2x2 determinant Delta.
    Where _singular flags Delta, the point is a one-row block of _solved_grid.
    """
    _check_pair(S1, S2eff)
    s, t = S1.m.tolist(), S2eff.m.tolist()
    delta, delta_b, singular, amplitudes = _algebraic_forms(s, t)
    if not abs(delta - delta_b) <= _IDENTITY_TOL:
        raise ArithmeticError(f"determinant identity violated by {abs(delta - delta_b):.3e}")
    return _ruled_point(singular, amplitudes, S1.m, S2eff.m, S1.k, lambda s, t: _algebraic_forms(s, t)[2:])


def _algebraic_grid(s, t) -> tuple[tuple, np.ndarray]:
    """solve_algebraic on node entries (3, 3, n): A..F, and the rows where it does not raise."""
    delta, delta_b, singular, amplitudes = _algebraic_forms(s, t)
    values, degenerate = _solved_grid(s, t, singular, amplitudes)
    return values, (abs(delta - delta_b) <= _IDENTITY_TOL) & ~degenerate


def _algebraic_forms(m1, m2):
    # The elimination of solve_algebraic on the node entries m1[i][j], m2[i][j]:
    # complex scalars, or arrays over a grid.  Returns Delta, its second form
    # Delta_b from the B, D system, _singular of that system's gap I - s s~
    # with Delta, and the amplitudes A..F as a function.

    def pair_a(i: int, j: int):
        # sum over interior wires of s[wire, i] * s~[j, wire]
        return m1[1][i] * m2[j][1] + m1[2][i] * m2[j][2]

    def pair_b(i: int, j: int):
        return m2[1][i] * m1[j][1] + m2[2][i] * m1[j][2]

    a12, a13 = pair_a(0, 1), pair_a(0, 2)
    a22, a23, a32, a33 = pair_a(1, 1), pair_a(1, 2), pair_a(2, 1), pair_a(2, 2)
    b22, b23, b32, b33 = pair_b(1, 1), pair_b(1, 2), pair_b(2, 1), pair_b(2, 2)
    delta = (1.0 - a22) * (1.0 - a33) - a23 * a32
    delta_b = (1.0 - b22) * (1.0 - b33) - b23 * b32

    def amplitudes():
        c_num = a12 * (1.0 - a33) + a13 * a32
        e_num = a13 * (1.0 - a22) + a12 * a23
        b_num = m1[2][0] * b32 + m1[1][0] * (1.0 - b33)
        d_num = m1[1][0] * b23 + m1[2][0] * (1.0 - b22)
        return (
            m1[0][0] + (m1[0][1] * c_num + m1[0][2] * e_num) / delta,
            b_num / delta,
            c_num / delta,
            d_num / delta,
            e_num / delta,
            (m2[0][1] * b_num + m2[0][2] * d_num) / delta,
        )

    return delta, delta_b, _singular((1.0 - b22, 0.0 - b32, 0.0 - b23, 1.0 - b33), delta), amplitudes


def _closed_form_route(cfg: RingConfig, forms) -> "_Route":
    route = cfg._route
    if route.forms is not forms:
        ring = "a symmetric ring" if forms is _symmetric_forms else "an antisymmetric ring with a scale-invariant node"
        raise ValueError(f"this closed form requires {ring}")
    return route


def solve_symmetric_scale_invariant(cfg: RingConfig, k: float) -> RingAmplitudes:
    """Fabry-Perot closed form of every symmetric ring: Symmetric, or General with right == left.

    Any node gives t0 = s0^dagger, so s s~ has the eigenvalues g and g |s11|^2 (g = exp(2ik(xi1-xi2))),
    the common denominator is 1 - g |s11|^2, and perfect transmission (A = 0) happens at g = 1
    unless |s11| = 1 (a decoupled exterior wire), and where s11(k) = 0.  It needs no scale
    invariance; it keeps its name because the benchmark's tracer times it by that name.
    """
    return _closed_form_route(cfg, _symmetric_forms).closed_form(k)


def _symmetric_forms(s, g, columns=_ALL_COLUMNS):
    # Denominator and the formulas of the symmetric closed form for the
    # amplitudes that columns flags (as _amplitudes), from the node entries
    # s[i][j] and g: complex scalars, or arrays over a grid.
    s11, s12, s13 = s[0]
    s21, s31 = s[1][0], s[2][0]
    p11 = abs(s11) ** 2
    den = 1.0 - g * p11

    def amplitudes():
        a, b, c, d, e, f = columns
        return (
            (1.0 - g) * s11 / den if a else None,
            s21 / den if b else None,
            -g * s11 * s12.conjugate() / den if c else None,
            s31 / den if d else None,
            -g * s11 * s13.conjugate() / den if e else None,
            g * (1.0 - p11) / den if f else None,
        )

    return den, amplitudes


def _cj(z):
    return z.conjugate()


def _anti_trace(s):
    """Trace term of the antisymmetric denominator, from s[i][j] (complex scalars or arrays)."""
    cj = _cj
    (_, s22, s23), (_, s32, s33) = s[1], s[2]
    return s22 * cj(s33) + s23 * cj(s32) + s32 * cj(s23) + s33 * cj(s22)


def _anti_lambda(s, trm):
    """Coupling combination of the antisymmetric A, from s[i][j] and _anti_trace(s)."""
    cj = _cj
    (s11, s12, s13), (s21, s22, s23), (s31, s32, s33) = s
    return (
        -s11 * trm
        + s12 * (cj(s33) * s21 + cj(s23) * s31)
        + s13 * (cj(s32) * s21 + cj(s22) * s31)
    )


def solve_antisymmetric_scale_invariant(cfg: RingConfig, k: float) -> RingAmplitudes:
    """Closed forms for the swap-antisymmetric ring with a scale-invariant node.

    With g = exp(2ik(xi1-xi2)) the denominator is
    den = 1 - g * (s22 s33* + s23 s32* + s32 s23* + s33 s22*) + |s11|^2 g^2.
    Perfect reflection (F = 0) happens exactly at g = 1 whenever the
    interior couplings s21, s31 are both nonzero (and den is not).
    """
    return _closed_form_route(cfg, _antisymmetric_forms).closed_form(k)


def _antisymmetric_forms(s, g, columns=_ALL_COLUMNS):
    # Denominator and the formulas of the antisymmetric closed form for the
    # amplitudes that columns flags (as _amplitudes), from the node entries
    # s[i][j] and g: complex scalars, or arrays over a grid.
    cj = _cj
    (s11, s12, s13), (s21, s22, s23), (s31, s32, s33) = s
    trm = _anti_trace(s)
    den = 1.0 - g * trm + abs(s11) ** 2 * g * g

    def amplitudes():
        a, b, c, d, e, f = columns
        return (
            (s11 + s11 * g * g + g * _anti_lambda(s, trm)) / den if a else None,
            (s21 + g * (-s21 * (s32 * cj(s23) + s33 * cj(s22)) + s31 * (s22 * cj(s23) + cj(s22) * s23))) / den
            if b else None,
            g * ((cj(s33) * s21 + cj(s23) * s31) + s11 * cj(s12) * g) / den if c else None,
            (s31 + g * (-s31 * (s22 * cj(s33) + s23 * cj(s32)) + s21 * (s32 * cj(s33) + s33 * cj(s32)))) / den
            if d else None,
            g * ((cj(s32) * s21 + cj(s22) * s31) + s11 * cj(s13) * g) / den if e else None,
            g * (cj(s31) * s21 + cj(s21) * s31) * (1.0 - g) / den if f else None,
        )

    return den, amplitudes


@dataclass(frozen=True)
class TransmissionTarget:
    """Outcome of the antisymmetric perfect-transmission condition.

    status is "ok" when c_star holds the value cos(2 k (xi1-xi2)) must take
    for the reflected amplitude to vanish; "out_of_range" when the required
    cosine has modulus above one (no wavenumber works); "degenerate" when
    the condition collapses because the node's exterior reflection vanishes
    (s11 = 0) or the exterior wire decouples entirely (|s11| = 1, where the
    nominal cosine root is a denominator zero, not a transmission zero).
    """

    c_star: float | None
    status: str


def reflection_core(p: JunctionParams) -> Mat3:
    """Position-independent part of a scale-invariant node's scattering matrix.

    V diag(+-1) V^dagger with the signs read off the eigenphases; Hermitian
    as well as unitary.
    """
    if not is_scale_invariant(p):
        raise ValueError("reflection_core requires a scale-invariant node")
    v = build_V(p)
    signs = np.array([1.0 if t == 0.0 else -1.0 for t in p.theta])  # exp(i theta), exactly
    return (v * signs) @ v.conj().T


def perfect_transmission_target(cfg: RingConfig) -> TransmissionTarget:
    """Target value of cos(2k(xi1-xi2)) for zero reflection on the antisymmetric ring.

    Computed from the position-independent node matrix, so it needs no
    wavenumber.  The underlying ratio is real for every scale-invariant
    node (the core matrix is Hermitian); ArithmeticError is raised if
    rounding breaks this.
    """
    _closed_form_route(cfg, _antisymmetric_forms)
    ratio = _transmission_ratio(reflection_core(cfg.left).tolist())
    if ratio is None:
        return TransmissionTarget(c_star=None, status="degenerate")
    if abs(ratio) <= 1.0:
        return TransmissionTarget(c_star=ratio, status="ok")
    return TransmissionTarget(c_star=None, status="out_of_range")


def _transmission_ratio(s) -> float | None:
    # -lambda/(2 h11) from the core's entries s[i][j], None where the target degenerates.
    # Both are real on a Hermitian core: their imaginary rounding is checked before dividing.
    h11 = s[0][0]
    if abs(h11) < 1e-12 or abs(h11) > 1.0 - 1e-12:
        return None
    lam = _anti_lambda(s, _anti_trace(s))
    if not (abs(h11.imag) <= _ROUNDING and abs(lam.imag) <= _ROUNDING):
        raise ArithmeticError(f"transmission target ratio is not real: h11={h11!r}, lambda={lam!r}")
    return -lam.real / (2.0 * h11.real)


def _arm_minima(cfg: RingConfig) -> tuple:
    """Where |A|^2 and |F|^2 of a ring on a closed form (its route's forms) are least, and how low.

    Returns one entry for A and one for F: None where there is no prediction
    (the resolvent, a trivial or degenerate node), else (c, least): every
    minimum lies on c = cos(2k(xi1-xi2)), and reads least there (0 for a zero).
    A node is trivial when the exterior wire lies in one eigenspace of U, so
    |A| = 1 identically (||U00| - 1| < 1e-9), or when it is scale invariant
    and A = 0 identically (|U00| < 1e-9); U00 is then h11 of reflection_core.

    * Symmetric: A = (1 - g) s11 / (1 - g |s11|^2) vanishes at c = 1 and where
      s11 does.  On a scale-invariant node s11 = h11, and |F| = (1 - rho) /
      |1 - rho g| (rho = |h11|^2) is least at c = -1.  Another node predicts A
      alone, if |s11(k)| >= m = 2 max_j |V0j|^2 - 1 > 0.1: |A|^2 >= m^2 sin^2(k dxi).
    * Antisymmetric: F vanishes at c = 1 unless the interior couplings or the
      denominator there vanish, and A at perfect_transmission_target's
      cosine c*.  With c* out of range (and the node not trivial), |A|^2 =
      4 rho (c - c*)^2 / Q(c), Q = 4 rho c^2 - 2 (1 + rho) trm c + trm^2 +
      (1 - rho)^2 (trm = _anti_trace, real for these nodes), is least at
      c = -1, at c = 1, or where its derivative vanishes, at
      c_m = -(2 q0 + q1 c*) / (q1 + 2 q2 c*).
    """
    forms, scale_invariant = cfg._route.forms, is_scale_invariant(cfg.left)
    if forms is None:
        return None, None
    s = (reflection_core(cfg.left) if scale_invariant else build_U(cfg.left)).tolist()
    h11 = s[0][0]
    rho = abs(h11) ** 2
    trivial = abs(abs(h11) - 1.0) < 1e-9 or (scale_invariant and abs(h11) < 1e-9)
    if forms is _symmetric_forms:
        lattice = scale_invariant or 2.0 * float(np.abs(build_V(cfg.left)[0]).max()) ** 2 - 1.0 > 0.1
        reflection = (-1.0, ((1.0 - rho) / (1.0 + rho)) ** 2) if scale_invariant else None
        return (None, None) if trivial else ((1.0, 0.0) if lattice else None, reflection)
    trm = _anti_trace(s)
    coupling = 2.0 * (s[2][0].conjugate() * s[1][0]).real
    reflection = None if abs(coupling) < 1e-9 or abs(1.0 - trm + rho) < 1e-9 else (1.0, 0.0)
    c_star = _transmission_ratio(s)
    if c_star is None:
        return None, reflection
    if abs(c_star) <= 1.0:
        return (c_star, 0.0), reflection
    if trivial:
        return None, reflection
    trm = trm.real
    q2, q1, q0 = 4.0 * rho, -2.0 * (1.0 + rho) * trm, trm * trm + (1.0 - rho) ** 2
    candidates = [-1.0, 1.0]
    top, bottom = -(2.0 * q0 + q1 * c_star), q1 + 2.0 * q2 * c_star
    if abs(top) < abs(bottom):
        candidates.append(top / bottom)
    # the least |A|^2 is at the greatest Q / (c - c*)^2, whose divisor cannot vanish
    inverse, c = max((((q2 * c + q1) * c + q0) / (c - c_star) ** 2, c) for c in candidates)
    return (c, 4.0 * rho / inverse), reflection


def solve_auto(cfg: RingConfig, k: float) -> RingAmplitudes:
    """Solve one ring at one wavenumber by exactly one route.

    Every symmetric ring and the scale-invariant antisymmetric ring use their
    closed forms (well conditioned at their lines, where the resolvent's gap
    holds a bound state); everything else goes through the resolvent.  The
    routes are not compared at run time: `yring check` and the tests hold
    them against the series and algebraic solvers.  The route and the node
    constants are prepared once per configuration (`_Route`); each call
    repeats only the per-wavenumber arithmetic.
    """
    route = cfg._route
    if route.forms is None:
        return _resolve(*route.arrays(k), k)
    if route.forms is _symmetric_forms:
        return solve_symmetric_scale_invariant(cfg, k)
    return solve_antisymmetric_scale_invariant(cfg, k)


def solve_grid(cfg: RingConfig, ks) -> tuple[np.ndarray, np.ndarray]:
    """solve_auto on a whole grid of wavenumbers, GRID_BLOCK (2048) at a time.

    Returns the amplitudes, shape (n, 6) with columns A..F, and the
    degenerate mask: the rows where solve_auto raises DegenerateRingError, a
    real decoupling (a closed form's den, or ring._solved_grid's rule on the
    resolvent), whose amplitudes are NaN.  Raises the ValueError solve_auto
    raises at the first wavenumber it rejects (not positive and finite, k*L0
    not finite or zero, or k*xi not finite).  The scan of find_resonances
    runs the same kernel on the one column it searches.

    The grid/point contract: the kernel runs solve_auto's formula bodies on
    arrays, not complex scalars, and numpy rounds them unlike CPython: every
    other row agrees with solve_auto within 256 eps / min(|det|, 1), det
    being the resolvent's det(I - s s~) (squared on the antisymmetric closed
    form, the less well conditioned route); the tests hold the grid to it
    against solve_auto and a 50-digit solve of the same node matrices.  The
    last bits can depend on the numpy and BLAS build, never on the run.
    """
    return _solve_grid_columns(cfg, ks, _ALL_COLUMNS)


def _solve_grid_columns(cfg: RingConfig, ks, columns) -> tuple[np.ndarray, np.ndarray]:
    """solve_grid for the amplitudes that columns flags (six flags for A..F).

    Returns an (n, m) array holding those m columns of solve_grid, word for
    word, and the degenerate mask; the others are not computed.
    """
    ks = np.asarray(ks, dtype=float)
    if ks.ndim != 1:
        raise ValueError(f"ks must be one-dimensional, got shape {ks.shape}")
    route = cfg._route
    solve_block = route.resolve_grid if route.forms is None else route.closed_form_grid
    amps = np.empty((ks.size, sum(columns)), dtype=complex)
    degenerate = np.empty(ks.size, dtype=bool)
    with np.errstate(all="ignore"):  # overflowing products, and degenerate rows dividing by ~0
        for start in range(0, ks.size, GRID_BLOCK):
            block = slice(start, start + GRID_BLOCK)
            # each block checks its own wavenumbers, in grid order: the first rejected k raises
            values, degenerate[block] = solve_block(ks[block], columns)
            for j, z in enumerate(itertools.compress(values, columns)):
                amps[block, j] = z
    amps[degenerate] = complex(math.nan, math.nan)
    return amps, degenerate


class _Route:
    """The wavenumber-independent half of solve_auto and solve_grid for one ring.

    Built once per RingConfig (its `_route`), the one place that picks the route
    by ring class: `forms` is _symmetric_forms for every symmetric ring (both ends
    share one node), _antisymmetric_forms for an antisymmetric ring with a
    scale-invariant node, else None (the resolvent).  The antisymmetric ring's right
    node is the left one with the interior wires 1 and 2 swapped, built so once.
    The methods do the per-wavenumber half, at one wavenumber or on a block of them.
    """

    __slots__ = ("left", "right", "forms", "xi1", "xi2", "dxi")

    def __init__(self, cfg: RingConfig) -> None:
        self.left = self.right = _Node(cfg.left)
        self.forms = _symmetric_forms  # Symmetric, or General with right == left
        if isinstance(cfg.mode, General) and cfg.mode.right != cfg.left:
            self.right, self.forms = _Node(cfg.mode.right), None
        elif isinstance(cfg.mode, AntiSymmetric):
            self.right = _Node(cfg.left, swap=True)
            self.forms = _antisymmetric_forms if is_scale_invariant(cfg.left) else None
        self.xi1, self.xi2, self.dxi = cfg.xi1, cfg.xi2, cfg.dxi

    def arrays(self, k: float) -> tuple[Mat3, Mat3]:
        # Left inward array at xi1 and effective right outward array at xi2.
        # Index 0 is the exterior wire of each node; 1 and 2 are the interior wires.
        return (
            _s_array(self.left, k, self.xi1, Orientation.INWARD),
            _s_array(self.right, k, self.xi2, Orientation.OUTWARD),
        )

    def closed_form(self, k: float) -> RingAmplitudes:
        m = _s_array(self.left, k, self.xi1, Orientation.INWARD)
        z = 2j * k * self.dxi
        if not cmath.isfinite(z):
            raise ValueError(f"k*xi overflows in the arm phase at k={k!r}, xi1-xi2={self.dxi!r}")
        den, amplitudes = self.forms(m.tolist(), cmath.exp(z))
        if abs(den) < DEGENERATE_TOL:
            raise DegenerateRingError(_DEGENERATE.format(k))
        return RingAmplitudes(*amplitudes())

    def _check_grid(self, ks: np.ndarray, accepted: np.ndarray) -> None:
        # Raises what the per-point route raises at the first wavenumber it
        # rejects; accepted repeats its checks on the whole grid.
        if not accepted.all():
            k = ks[np.argmin(accepted)].item()
            if self.forms is None:
                self.arrays(k)
            else:
                self.closed_form(k)

    def closed_form_grid(self, ks: np.ndarray, columns):
        # The amplitudes that columns flags (as _amplitudes) and the degenerate
        # mask.  The arm-phase exponent, as closed_form computes it, serves both
        # the check and np.exp.
        z = 2j * ks * self.dxi
        accepted, m = _s_grid(self.left, ks, self.xi1, Orientation.INWARD)
        self._check_grid(ks, accepted & np.isfinite(z))
        den, amplitudes = self.forms(m, np.exp(z), columns)
        return amplitudes(), abs(den) < DEGENERATE_TOL

    def node_entries(self, ks: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        # Where the per-point route accepts the wavenumbers ks, as a mask, and
        # both nodes' entries over them, each of shape (3, 3, n).
        accepted, s = _s_grid(self.left, ks, self.xi1, Orientation.INWARD)
        right, t = _s_grid(self.right, ks, self.xi2, Orientation.OUTWARD)
        return accepted & right, s, t

    def resolve_grid(self, ks: np.ndarray, columns):
        accepted, s, t = self.node_entries(ks)
        self._check_grid(ks, accepted)
        return _solved_grid(s, t, *_resolvent_forms(s, t, columns))
