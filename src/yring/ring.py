"""Double-node ring solvers: bounce series, resolvent closed form, and algebraic forms.

A ring is two three-wire nodes at positions xi1 > xi2 joined by the two
interior wires; unit flux enters on the exterior wire of the left node.
The six amplitudes (A, B, C, D, E, F) of the piecewise plane-wave state
are obtained by three independent routes that must agree:

* solve_series      -- sums the multiple-bounce expansion term by term,
* solve_closed_form -- resums the bounce series into a 2x2 resolvent,
* solve_algebraic   -- explicit component formulas from eliminating the
                       interior amplitudes.

Scale-invariant nodes admit much simpler closed forms for the symmetric
and swap-antisymmetric ring variants; those fast paths live here too,
together with the perfect-transmission target for the antisymmetric ring.
"""

from __future__ import annotations

import cmath
import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .junction import (
    JunctionParams,
    Orientation,
    ScatteringMatrix,
    _accepted,
    _Node,
    _s_array,
    _s_grid,
    build_V,
    is_scale_invariant,
)
from .smallmat import (
    SINGULAR_RTOL,
    Mat3,
    SingularMatrixError,
    _entries,
    _PyComplexArray,
    _square,
    inverse2,
)

#: Interior-wire swap used by the antisymmetric ring variant.
PERM_23: Mat3 = np.array([[1, 0, 0], [0, 0, 1], [0, 1, 0]], dtype=complex)
PERM_23.setflags(write=False)

_EYE2 = np.eye(2, dtype=complex)
_EYE2.setflags(write=False)

#: |denominator| below this is treated as a decoupled (degenerate) ring.
DEGENERATE_TOL = 1e-13

#: Size of a rounding-level component of O(1) node entries (solve_algebraic).
_ROUNDING = 64 * sys.float_info.epsilon

#: Bounce count after which solve_series switches to binary doubling.
_SERIES_DOUBLING_THRESHOLD = 4096

#: Wavenumbers solve_grid evaluates together; bounds its temporary arrays.
GRID_BLOCK = 512


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

    def __getstate__(self) -> dict:
        return {name: value for name, value in self.__dict__.items() if name != "_route"}


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


def _assemble(m1: Mat3, m2: Mat3, v: np.ndarray) -> RingAmplitudes:
    # v is the resolvent (or partial bounce sum) applied to (s21, s31).
    sv = m2[1:, 1:] @ v
    return RingAmplitudes(*_amplitudes(m1.tolist(), m2.tolist(), v.tolist(), sv.tolist()))


def _amplitudes(s, t, v, sv) -> tuple:
    # A..F from the node entries s[i][j], t[i][j], v and sv = t[1:, 1:] v; the
    # entries are complex scalars, or _PyComplexArray for a whole grid.
    return (
        s[0][0] + s[0][1] * sv[0] + s[0][2] * sv[1],
        s[1][0] + s[1][1] * sv[0] + s[1][2] * sv[1],
        t[1][1] * v[0] + t[1][2] * v[1],
        s[2][0] + s[2][1] * sv[0] + s[2][2] * sv[1],
        t[2][1] * v[0] + t[2][2] * v[1],
        t[0][1] * v[0] + t[0][2] * v[1],
    )


def _resolve(m1: Mat3, m2: Mat3, k: float) -> RingAmplitudes:
    gap = _EYE2 - m1[1:, 1:] @ m2[1:, 1:]
    # gap entries are O(1) by unitarity, so the degeneracy test is absolute;
    # a uniformly tiny gap (fully decoupled ring at resonance) must not pass
    # the scale-relative singularity test inside inverse2.
    det = gap[0, 0] * gap[1, 1] - gap[0, 1] * gap[1, 0]
    if abs(det) < DEGENERATE_TOL:
        raise DegenerateRingError(
            f"ring is degenerate at k={k!r}: |det(I - s s~)|={abs(det):.3e}"
        )
    try:
        resolvent = inverse2(gap)
    except SingularMatrixError as exc:
        raise DegenerateRingError(f"ring is degenerate at k={k!r}: {exc}") from exc
    return _assemble(m1, m2, resolvent @ m1[1:, 0])


def solve_closed_form(S1: ScatteringMatrix, S2eff: ScatteringMatrix) -> RingAmplitudes:
    """Resum the bounce series: apply the 2x2 resolvent (I - s s~)^-1 exactly."""
    return _resolve(S1.m, S2eff.m, S1.k)


def solve_series(
    S1: ScatteringMatrix,
    S2eff: ScatteringMatrix,
    tol: float = 1e-12,
    max_terms: int = 100_000,
) -> tuple[RingAmplitudes, int]:
    """Sum the multiple-bounce expansion term by term.

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

    Slowly contracting rings (thousands of bounces) are finished by exact
    binary doubling of the same series: partial sums over 2n terms follow
    from n via S_2n = S_n + (s s~)^n S_n, so the term count in the result
    stays the true number of bounce terms summed.

    Returns the amplitudes and the number of terms used.
    """
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    if max_terms < 1:
        raise ValueError("max_terms must be at least 1")
    m1, m2 = S1.m, S2eff.m
    prod = m1[1:, 1:] @ m2[1:, 1:]
    m11, m12 = complex(prod[0, 0]), complex(prod[0, 1])
    m21, m22 = complex(prod[1, 0]), complex(prod[1, 1])
    rho_matrix = max(abs(m11) + abs(m12), abs(m21) + abs(m22))
    noise_floor = 1e-3 * tol  # rounding noise in increments sits near 1e-16

    d1, d2 = complex(m1[1, 0]), complex(m1[2, 0])
    u1 = u2 = 0.0 + 0.0j
    p11, p12, p21, p22 = 1.0 + 0j, 0j, 0j, 1.0 + 0j  # running power of s s~
    terms = 0
    nd = prev = 0.0  # increment norms of this term and the one before (0 before term 1)
    phase1 = min(max_terms, _SERIES_DOUBLING_THRESHOLD)
    while terms < phase1:
        u1 += d1
        u2 += d2
        terms += 1
        d1, d2 = m11 * d1 + m12 * d2, m21 * d1 + m22 * d2
        p11, p12, p21, p22 = (
            p11 * m11 + p12 * m21,
            p11 * m12 + p12 * m22,
            p21 * m11 + p22 * m21,
            p21 * m12 + p22 * m22,
        )
        prev2, prev, nd = prev, nd, max(abs(d1), abs(d2))
        if nd <= noise_floor:
            break
        # Either bound may certify the stop; the block bound is computed only
        # when the ratio bound has not.
        rho = rho_matrix
        if rho >= 1.0 and prev2 > 0.0:  # three increments seen
            rho = max(nd / prev, prev / prev2)
        if rho < 1.0 and nd / (1.0 - rho) <= tol:
            break
        q = max(abs(p11) + abs(p12), abs(p21) + abs(p22))
        if q < 1.0 and q / (1.0 - q) * max(abs(u1), abs(u2)) <= tol:
            break
    else:
        return _series_doubling(
            m1, m2, (m11, m12, m21, m22), (p11, p12, p21, p22), (u1, u2), terms, tol, max_terms
        )
    return _assemble(m1, m2, np.array([u1, u2], dtype=complex)), terms


def _series_doubling(m1, m2, m, p, u, terms, tol, max_terms):
    """Finish a slowly contracting bounce series by doubling partial sums."""
    M = np.array([[m[0], m[1]], [m[2], m[3]]], dtype=complex)
    P = np.array([[p[0], p[1]], [p[2], p[3]]], dtype=complex)  # M**terms
    S = np.array([u[0], u[1]], dtype=complex)
    prev_inc = math.inf
    bound = math.inf
    while True:
        inc = P @ S  # series terms [terms, 2*terms), summed
        inc_norm = float(np.abs(inc).max())
        if inc_norm == 0.0:
            bound = 0.0
            break
        if inc_norm <= tol:
            # certify with a per-block decay factor: the matrix norm of P when
            # it contracts (rigorous), else the observed block-to-block decay
            ratios = []
            q = float(np.abs(P).sum(axis=1).max())
            if q < 1.0:
                ratios.append(q)
            if math.isfinite(prev_inc) and prev_inc > 0.0:
                ratios.append(inc_norm / prev_inc)
            if ratios and min(ratios) < 1.0:
                bound = inc_norm / (1.0 - min(ratios))
                if bound <= tol:
                    break
        if 2 * terms > max_terms:
            partial = _assemble(m1, m2, S)
            raise ConvergenceError(
                f"bounce series did not reach tol={tol:g} within {max_terms} terms "
                f"(block increment {inc_norm:g})",
                partial=partial,
                terms=terms,
                bound=bound if math.isfinite(bound) else inc_norm,
            )
        S = S + inc
        P = P @ P
        terms *= 2
        prev_inc = inc_norm
    return _assemble(m1, m2, S), terms


def solve_algebraic(S1: ScatteringMatrix, S2eff: ScatteringMatrix) -> RingAmplitudes:
    """Explicit component solution obtained by eliminating the interior amplitudes.

    Independent of the resolvent route: everything is spelled out through
    the pair sums over the interior wires and a common 2x2 determinant.
    """
    m1, m2 = S1.m, S2eff.m

    def pair_a(i: int, j: int) -> complex:
        # sum over interior wires of s[wire, i] * s~[j, wire]
        return m1[1, i] * m2[j, 1] + m1[2, i] * m2[j, 2]

    def pair_b(i: int, j: int) -> complex:
        return m2[1, i] * m1[j, 1] + m2[2, i] * m1[j, 2]

    a12, a13 = pair_a(0, 1), pair_a(0, 2)
    a22, a23, a32, a33 = pair_a(1, 1), pair_a(1, 2), pair_a(2, 1), pair_a(2, 2)
    b22, b23, b32, b33 = pair_b(1, 1), pair_b(1, 2), pair_b(2, 1), pair_b(2, 2)
    delta = (1.0 - a22) * (1.0 - a33) - a23 * a32
    delta_b = (1.0 - b22) * (1.0 - b33) - b23 * b32
    if not abs(delta - delta_b) <= 1e-12:
        raise ArithmeticError(f"determinant identity violated by {abs(delta - delta_b):.3e}")
    if abs(delta) < DEGENERATE_TOL:
        gap = np.array([[1.0 - b22, -b32], [-b23, 1.0 - b33]])  # I - s s~, the B, D system
        amps = _unexcited_bound_state(m1, m2, gap)
        if amps is None:
            raise DegenerateRingError(f"ring is degenerate at k={S1.k!r}: |Delta|={abs(delta):.3e}")
        return amps

    c_num = a12 * (1.0 - a33) + a13 * a32
    e_num = a13 * (1.0 - a22) + a12 * a23
    b_num = m1[2, 0] * b32 + m1[1, 0] * (1.0 - b33)
    d_num = m1[1, 0] * b23 + m1[2, 0] * (1.0 - b22)
    return RingAmplitudes(
        A=m1[0, 0] + (m1[0, 1] * c_num + m1[0, 2] * e_num) / delta,
        B=b_num / delta,
        C=c_num / delta,
        D=d_num / delta,
        E=e_num / delta,
        F=(m2[0, 1] * b_num + m2[0, 2] * d_num) / delta,
    )


def _unexcited_bound_state(m1: Mat3, m2: Mat3, gap: np.ndarray) -> RingAmplitudes | None:
    """The ring amplitudes at a bound state the launch does not excite, else None.

    At a bound state embedded in the continuum the gap I - s s~ has rank
    one.  When the launch (s21, s31) has no component along its left null
    direction and the right null direction reaches neither A nor F (both at
    rounding level), the exterior amplitudes are determined: B, D solve the
    gap system on its rank-one part, C, E and F follow from the right node
    and A from the left one.  A fully decoupled ring (gap of rank zero), or
    a launch that reaches the null space, gives None.
    """
    u, sv, vh = np.linalg.svd(gap)
    null = vh[1].conj()
    launch = m1[1:, 0]
    if not (
        sv[1] <= _ROUNDING * sv[0]
        and abs(u[:, 1].conj() @ launch) <= _ROUNDING
        and abs(m2[0, 1:] @ null) <= _ROUNDING
        and abs(m1[0, 1:] @ (m2[1:, 1:] @ null)) <= _ROUNDING
    ):
        return None
    bd = vh[0].conj() * ((u[:, 0].conj() @ launch) / sv[0])
    ce = m2[1:, 1:] @ bd
    return RingAmplitudes(
        A=m1[0, 0] + m1[0, 1:] @ ce, B=bd[0], C=ce[0], D=bd[1], E=ce[1], F=m2[0, 1:] @ bd
    )


def _closed_form_route(cfg: RingConfig, expected_mode: type) -> "_Route":
    if not isinstance(cfg.mode, expected_mode):
        raise ValueError(f"this fast path requires {expected_mode.__name__} mode")
    route = cfg._route
    if route.forms is None:
        raise ValueError("this fast path requires a scale-invariant left node")
    return route


def solve_symmetric_scale_invariant(cfg: RingConfig, k: float) -> RingAmplitudes:
    """Closed forms for the symmetric ring with a scale-invariant node.

    Everything reduces to the left matrix components and the arm phase
    g = exp(2ik(xi1-xi2)); the common denominator is 1 - g |s11|^2.
    Perfect transmission (A = 0) happens exactly at g = 1.
    """
    den, amplitudes = _closed_form_route(cfg, Symmetric).closed_form(k)
    if abs(den) < DEGENERATE_TOL:
        raise DegenerateRingError(f"symmetric ring is degenerate at k={k!r}")
    return RingAmplitudes(*amplitudes())


def _symmetric_forms(s, g):
    # Denominator and the A..F formulas of the symmetric closed form, from
    # the node entries s[i][j] and g: complex scalars, or _PyComplexArray.
    s11, s12, s13 = s[0]
    s21, s31 = s[1][0], s[2][0]
    p11 = _square(abs(s11))
    den = 1.0 - g * p11

    def amplitudes():
        return (
            (1.0 - g) * s11 / den,
            s21 / den,
            -g * s11 * s12.conjugate() / den,
            s31 / den,
            -g * s11 * s13.conjugate() / den,
            g * (1.0 - p11) / den,
        )

    return den, amplitudes


def _cj(z):
    return z.conjugate()


def _anti_invariants(s) -> tuple[complex, complex]:
    """Denominator trace term and coupling combination for the antisymmetric forms.

    s holds the node entries s[i][j] (complex scalars, or _PyComplexArray).
    """
    cj = _cj
    (s11, s12, s13), (s21, s22, s23), (s31, s32, s33) = s
    trm = s22 * cj(s33) + s23 * cj(s32) + s32 * cj(s23) + s33 * cj(s22)
    lam = (
        -s11 * trm
        + s12 * (cj(s33) * s21 + cj(s23) * s31)
        + s13 * (cj(s32) * s21 + cj(s22) * s31)
    )
    return trm, lam


def solve_antisymmetric_scale_invariant(cfg: RingConfig, k: float) -> RingAmplitudes:
    """Closed forms for the swap-antisymmetric ring with a scale-invariant node.

    With g = exp(2ik(xi1-xi2)) the denominator is
    den = 1 - g * (s22 s33* + s23 s32* + s32 s23* + s33 s22*) + |s11|^2 g^2.
    Perfect reflection (F = 0) happens exactly at g = 1 whenever the
    interior couplings s21, s31 are both nonzero (and den is not).
    """
    den, amplitudes = _closed_form_route(cfg, AntiSymmetric).closed_form(k)
    if abs(den) < DEGENERATE_TOL:
        raise DegenerateRingError(f"antisymmetric ring is degenerate at k={k!r}")
    return RingAmplitudes(*amplitudes())


def _antisymmetric_forms(s, g):
    # Denominator and the A..F formulas of the antisymmetric closed form, from
    # the node entries s[i][j] and g: complex scalars, or _PyComplexArray.
    cj = _cj
    (s11, s12, s13), (s21, s22, s23), (s31, s32, s33) = s
    trm, lam = _anti_invariants(s)
    den = 1.0 - g * trm + _square(abs(s11)) * g * g

    def amplitudes():
        return (
            (s11 + s11 * g * g + g * lam) / den,
            (
                s21
                + g * (-s21 * (s32 * cj(s23) + s33 * cj(s22)) + s31 * (s22 * cj(s23) + cj(s22) * s23))
            )
            / den,
            g * ((cj(s33) * s21 + cj(s23) * s31) + s11 * cj(s12) * g) / den,
            (
                s31
                + g * (-s31 * (s22 * cj(s33) + s23 * cj(s32)) + s21 * (s32 * cj(s33) + s33 * cj(s32)))
            )
            / den,
            g * ((cj(s32) * s21 + cj(s22) * s31) + s11 * cj(s13) * g) / den,
            g * (cj(s31) * s21 + cj(s21) * s31) * (1.0 - g) / den,
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
    signs = np.array([1.0 if _dist0(t) <= _distpi(t) else -1.0 for t in p.theta])
    return (v * signs) @ v.conj().T


def _dist0(theta: float) -> float:
    return min(theta, 2.0 * math.pi - theta)


def _distpi(theta: float) -> float:
    return abs(theta - math.pi)


def perfect_transmission_target(cfg: RingConfig) -> TransmissionTarget:
    """Target value of cos(2k(xi1-xi2)) for zero reflection on the antisymmetric ring.

    Computed from the position-independent node matrix, so it needs no
    wavenumber.  The underlying ratio is real for every scale-invariant
    node (the core matrix is Hermitian); ArithmeticError is raised if
    rounding breaks this.
    """
    _closed_form_route(cfg, AntiSymmetric)
    h = reflection_core(cfg.left)
    h11 = complex(h[0, 0])
    if abs(h11) < 1e-12 or abs(h11) > 1.0 - 1e-12:
        return TransmissionTarget(c_star=None, status="degenerate")
    _, lam = _anti_invariants(h.tolist())
    ratio = -lam / (2.0 * h11)
    if not abs(ratio.imag) < 1e-10:
        raise ArithmeticError(f"transmission target ratio is not real: {ratio!r}")
    c_star = ratio.real
    if abs(c_star) <= 1.0:
        return TransmissionTarget(c_star=c_star, status="ok")
    return TransmissionTarget(c_star=None, status="out_of_range")


def solve_auto(cfg: RingConfig, k: float) -> RingAmplitudes:
    """Solve one ring at one wavenumber by exactly one route.

    Scale-invariant symmetric/antisymmetric rings use their dedicated closed
    forms (well conditioned at their resonances, where the general resolvent
    becomes singular); everything else goes through the resolvent.  The
    routes are not compared at run time: `yring check` and the tests hold
    them against the series and algebraic solvers.  The route and the node
    constants are prepared once per configuration (`_Route`); each call
    repeats only the per-wavenumber arithmetic.
    """
    route = cfg._route
    if route.forms is None:
        return route.resolve(k)
    if isinstance(cfg.mode, Symmetric):
        return solve_symmetric_scale_invariant(cfg, k)
    return solve_antisymmetric_scale_invariant(cfg, k)


def solve_grid(cfg: RingConfig, ks) -> tuple[np.ndarray, np.ndarray]:
    """solve_auto on a whole grid of wavenumbers, GRID_BLOCK of them at a time.

    Returns the amplitudes, shape (n, 6) with columns A..F, and the
    degenerate mask: the rows where solve_auto raises DegenerateRingError,
    whose amplitudes are NaN.  Every other row equals solve_auto(cfg, k) bit
    for bit.  The route is the one solve_auto takes, and each step repeats
    the per-point arithmetic: scalar complex operations run as
    _PyComplexArray, and numpy operations keep the per-point shapes.
    Raises the ValueError solve_auto raises at the first wavenumber it
    rejects (not positive and finite, k*L0 not finite or zero, or k*xi not
    finite).
    """
    ks = np.asarray(ks, dtype=float)
    if ks.ndim != 1:
        raise ValueError(f"ks must be one-dimensional, got shape {ks.shape}")
    route = cfg._route
    solve_block = route.resolve_grid if route.forms is None else route.closed_form_grid
    amps = np.empty((ks.size, 6), dtype=complex)
    degenerate = np.empty(ks.size, dtype=bool)
    with np.errstate(all="ignore"):  # overflowing products, and degenerate rows dividing by ~0
        for start in range(0, ks.size, GRID_BLOCK):
            block = slice(start, start + GRID_BLOCK)
            route.check_grid(ks[block])  # blocks go in grid order: the first rejected k raises
            amps[block], degenerate[block] = solve_block(ks[block])
    amps[degenerate] = complex(math.nan, math.nan)
    return amps, degenerate


def _stack(columns) -> np.ndarray:
    return np.stack([z.to_numpy() for z in columns], axis=-1)


class _Route:
    """The wavenumber-independent half of solve_auto and solve_grid for one ring.

    Built once per RingConfig (its `_route`): the route choice (`forms` is the
    closed form of a scale-invariant symmetric or antisymmetric ring, None
    for the resolvent) and the constants of both nodes.  The methods do the
    per-wavenumber half, operation for operation as the per-point code.
    """

    __slots__ = ("left", "right", "swap", "forms", "xi1", "xi2", "dxi")

    def __init__(self, cfg: RingConfig) -> None:
        self.left = _Node(cfg.left)
        self.right = _Node(cfg.mode.right) if isinstance(cfg.mode, General) else self.left
        self.swap = isinstance(cfg.mode, AntiSymmetric)
        self.forms = None
        if not isinstance(cfg.mode, General) and is_scale_invariant(cfg.left):
            self.forms = _antisymmetric_forms if self.swap else _symmetric_forms
        self.xi1, self.xi2, self.dxi = cfg.xi1, cfg.xi2, cfg.dxi

    def arrays(self, k: float) -> tuple[Mat3, Mat3]:
        # Left inward array at xi1 and effective right outward array at xi2.
        # Index 0 is the exterior wire of each node; 1 and 2 are the interior wires.
        m1 = _s_array(self.left, k, self.xi1, Orientation.INWARD)
        m2 = _s_array(self.right, k, self.xi2, Orientation.OUTWARD)
        if self.swap:
            m2 = PERM_23 @ m2 @ PERM_23
        return m1, m2

    def resolve(self, k: float) -> RingAmplitudes:
        m1, m2 = self.arrays(k)
        return _resolve(m1, m2, k)

    def closed_form(self, k: float):
        # Denominator and amplitude formulas of the closed form at k.
        m = _s_array(self.left, k, self.xi1, Orientation.INWARD)
        z = 2j * k * self.dxi
        if not cmath.isfinite(z):
            raise ValueError(f"k*xi overflows in the arm phase at k={k!r}, xi1-xi2={self.dxi!r}")
        return self.forms(m.tolist(), cmath.exp(z))

    def check_grid(self, ks: np.ndarray) -> None:
        # Raises what the per-point route raises at the first wavenumber it
        # rejects; the masks repeat its checks on the whole grid.
        accepted = _accepted(self.left, ks, self.xi1, Orientation.INWARD)
        if self.forms is None:
            accepted &= _accepted(self.right, ks, self.xi2, Orientation.OUTWARD)
        else:
            z = _PyComplexArray._lift(2j) * ks * self.dxi
            accepted &= np.isfinite(z.re) & np.isfinite(z.im)
        if not accepted.all():
            k = ks[np.argmin(accepted)].item()
            if self.forms is None:
                self.arrays(k)
            else:
                self.closed_form(k)

    def closed_form_grid(self, ks: np.ndarray):
        m = _s_grid(self.left, ks, self.xi1, Orientation.INWARD)
        dxi = self.dxi
        g = np.array([cmath.exp(2j * k * dxi) for k in ks.tolist()])
        den, amplitudes = self.forms(_entries(m), _PyComplexArray.of(g))
        return _stack(amplitudes()), abs(den) < DEGENERATE_TOL

    def resolve_grid(self, ks: np.ndarray):
        # _resolve on a grid: BLAS products per point as in _resolve, and the
        # scalar steps (determinant, assembly) as _PyComplexArray.
        m1 = _s_grid(self.left, ks, self.xi1, Orientation.INWARD)
        m2 = _s_grid(self.right, ks, self.xi2, Orientation.OUTWARD)
        if self.swap:
            m2 = PERM_23 @ m2 @ PERM_23
        gap = _EYE2 - m1[:, 1:, 1:] @ m2[:, 1:, 1:]
        entries = _entries(gap)
        (g00, g01), (g10, g11) = entries
        det = g00 * g11 - g01 * g10
        size = abs(det)
        degenerate = size < DEGENERATE_TOL
        # inverse2's relative test, run as it stands wherever it could fail
        # (the margin covers last-bit differences between np.abs and hypot)
        scale = np.max([abs(z) for row in entries for z in row], axis=0)
        for i in np.flatnonzero(~degenerate & (size <= 2.0 * SINGULAR_RTOL * scale * scale)):
            try:
                inverse2(gap[i])
            except SingularMatrixError:
                degenerate[i] = True
        adjugate = np.stack([gap[:, 1, 1], -gap[:, 0, 1], -gap[:, 1, 0], gap[:, 0, 0]], axis=-1)
        resolvent = (adjugate / det.to_numpy()[:, None]).reshape(-1, 2, 2)
        v = resolvent @ m1[:, 1:, 0:1]
        sv = m2[:, 1:, 1:] @ v
        (v0,), (v1,) = _entries(v)
        (sv0,), (sv1,) = _entries(sv)
        return _stack(_amplitudes(_entries(m1), _entries(m2), (v0, v1), (sv0, sv1))), degenerate
