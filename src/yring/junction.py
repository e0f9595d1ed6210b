"""A single three-wire node: U(3) boundary matrix, scattering matrices, predicates.

The node condition couples boundary values and derivatives of the wave
function through a unitary matrix U and a length scale L0:

    (U - I) Psi + i L0 (U + I) Psi' = 0.

U is parametrized by three eigenphases theta_i and six Euler angles
(alpha, beta, gamma, delta, a, b) of the diagonalizing SU(3) element.
The scattering matrix for a plane wave of wavenumber k at node position
xi follows in closed form; `junction_residual` checks any candidate
scattering relation directly against the node condition and is the
ground truth for everything else in this package.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .smallmat import (
    Mat3,
    UNITARITY_TOL,
    Vec3,
    _identity,
    as_complex_matrix,
    as_vec3,
    exp_i_generator,
    max_norm,
    unitarity_error,
)

TWO_PI = 2.0 * math.pi

#: Tolerance of is_time_reversal on max |U - U^T|.
PREDICATE_TOL = 1e-9


def canonical_angle(x: float) -> float:
    """Reduce an angle to the canonical storage range [0, 2*pi)."""
    v = math.fmod(float(x), TWO_PI)
    if v < 0.0:
        v += TWO_PI
    # v is -0.0 for -0.0 and negative multiples of 2*pi, and 2*pi where a tiny
    # negative v rounds up: both are stored as +0.0, so equal angles repr alike
    return 0.0 if v == 0.0 or v >= TWO_PI else v


#: The six Euler angles of JunctionParams, in the order of the factorization.
EULER_ANGLES = ("alpha", "beta", "gamma", "delta", "a", "b")


class Orientation(Enum):
    """Wire axis convention at a node: axes pointing toward or away from it."""

    INWARD = "inward"
    OUTWARD = "outward"


@dataclass(frozen=True)
class JunctionParams:
    """The nine angles plus gauge length defining one U(3) node.

    theta holds the three eigenphases of U; the six Euler angles fix the
    diagonalizing unitary.  Two further Euler angles of the general
    factorization commute with the eigenphase diagonal and cancel in
    U = V D V^dagger, so they are deliberately not stored.  All angles are
    reduced to [0, 2*pi) on construction.
    """

    theta: tuple[float, float, float] = (0.0, 0.0, 0.0)
    alpha: float = 0.0
    beta: float = 0.0
    gamma: float = 0.0
    delta: float = 0.0
    a: float = 0.0
    b: float = 0.0
    L0: float = 1.0

    def __post_init__(self) -> None:
        th = tuple(float(t) for t in self.theta)
        if len(th) != 3:
            raise ValueError("theta must hold exactly three eigenphases")
        euler = [getattr(self, name) for name in EULER_ANGLES]
        if not all(math.isfinite(x) for x in (*th, *euler)):
            raise ValueError("all angles must be finite")
        if not (math.isfinite(self.L0) and self.L0 > 0.0):
            raise ValueError(f"L0 must be positive and finite, got {self.L0!r}")
        object.__setattr__(self, "theta", tuple(canonical_angle(t) for t in th))
        for name, x in zip(EULER_ANGLES, euler):
            object.__setattr__(self, name, canonical_angle(x))
        object.__setattr__(self, "L0", float(self.L0))


@dataclass(frozen=True)
class ScatteringMatrix:
    """A 3x3 unitary node scattering matrix tagged with its wave context."""

    m: Mat3
    k: float
    xi: float
    orientation: Orientation

    def __post_init__(self) -> None:
        # A private copy (frozen below), checked for its shape, then finite entries, then unitarity.
        m = as_complex_matrix(np.array(self.m, dtype=complex), (3, 3))
        err = unitarity_error(m)
        if not err <= UNITARITY_TOL:
            raise ValueError(f"scattering matrix is not unitary (error {err:.3e})")
        m.setflags(write=False)
        object.__setattr__(self, "m", m)


@functools.lru_cache(maxsize=128)
def build_V(p: JunctionParams) -> Mat3:
    """Diagonalizing unitary from the six Euler angles (product of generator exponentials)."""
    v = exp_i_generator(3, p.alpha)
    v = v @ exp_i_generator(2, p.beta)
    v = v @ exp_i_generator(3, p.gamma)
    v = v @ exp_i_generator(5, p.delta)
    v = v @ exp_i_generator(3, p.a)
    v = v @ exp_i_generator(2, p.b)
    v.setflags(write=False)
    return v


def build_U(p: JunctionParams) -> Mat3:
    """Boundary matrix U = V diag(exp(i*theta_i)) V^dagger."""
    v = build_V(p)
    d = np.exp(1j * np.array(p.theta))
    return (v * d) @ v.conj().T


class _Node:
    """The wavenumber-independent part of _s_array for one junction.

    V, V^dagger, (cos, sin) of each half eigenphase and L0, computed once.
    With swap, rows 1 and 2 of V are interchanged: the node with its interior
    wires relabelled, as the antisymmetric ring's right node.  _s_grid reads
    nodes through the constants of a stack of node ends (_ends), built apart.
    """

    __slots__ = ("v", "vh", "half", "L0")

    def __init__(self, p: JunctionParams, swap: bool = False) -> None:
        self.v = build_V(p)[[0, 2, 1]] if swap else build_V(p)
        self.vh = self.v.conj().T
        self.half = tuple((math.cos(t / 2.0), math.sin(t / 2.0)) for t in p.theta)
        self.L0 = p.L0


#: 2i times the sign that each orientation gives k: the position phase is exp(_PHASE * k * xi).
_PHASE = {Orientation.INWARD: 1j * 2.0, Orientation.OUTWARD: 1j * -2.0}


def _factor(lk, c, s, i, hypot):
    # The diagonal factor (i k L_j + 1) / (i k L_j - 1) of the node matrix, with
    # L_j = L0 cot(theta_j / 2) written through c, s = cos, sin of theta_j / 2 and
    # i = +-1j the sign of k at the node: ((x - i s) / h)^2 with x = k L0 c and
    # h = |x - i s|.  Only reals are divided, so it is exactly 1 at theta_j = 0
    # and no subnormal divisor overflows.  Scalars with math.hypot, or arrays with np.hypot.
    x = lk * c
    h = hypot(x, s)
    q = x / h - i * (s / h)
    return q * q


def s_matrix(
    p: JunctionParams,
    k: float,
    xi: float,
    orientation: Orientation = Orientation.INWARD,
) -> ScatteringMatrix:
    """Scattering matrix of the node at position xi for wavenumber k > 0.

    Inward orientation carries the exp(+2ik xi) position phase and maps
    incoming amplitudes (coefficients of exp(+ik x)) to outgoing ones;
    outward orientation flips the sign of k throughout.
    """
    m = _s_array(_Node(p), k, xi, orientation)
    return ScatteringMatrix(m=m, k=float(k), xi=float(xi), orientation=orientation)


def _phase_exponent(node: _Node, k: float, xi: float, orientation: Orientation) -> complex:
    # Exponent of the position phase, after the checks of every node matrix:
    # k positive and finite, xi finite, and finite products k*L0 and k*xi.
    # Both products enter through modulus-1 factors, so the matrix is then
    # finite too.  k*L0 must also be nonzero: at an eigenphase 0, _factor
    # would divide 0 by 0.
    if not (math.isfinite(k) and k > 0.0):
        raise ValueError(f"k must be positive and finite, got {k!r}")
    if not math.isfinite(xi):
        raise ValueError("xi must be finite")
    lk = node.L0 * k
    if not math.isfinite(lk):
        raise ValueError(f"k*L0 overflows at k={k!r}, L0={node.L0!r}: the node matrix is not finite")
    if lk == 0.0:
        raise ValueError(f"k*L0 underflows to zero at k={k!r}, L0={node.L0!r}: the node matrix is not defined")
    z = _PHASE[orientation] * k * xi
    if not cmath.isfinite(z):
        raise ValueError(
            f"k*xi overflows in the position phase at k={k!r}, xi={xi!r}: the node matrix is not finite"
        )
    return z


def _s_array(node: _Node, k: float, xi: float, orientation: Orientation) -> Mat3:
    # The arithmetic of s_matrix on a plain array, unitary by construction.
    z = _phase_exponent(node, k, xi, orientation)
    i, lk = _PHASE[orientation] / 2, node.L0 * k
    d = np.array([_factor(lk, c, s, i, math.hypot) for c, s in node.half])
    return np.exp(z) * ((node.v * d) @ node.vh)


def _ends(*ends) -> tuple:
    # The constants of _s_grid for a stack of e node ends, each a (node, xi, orientation)
    # triple, one row per end, read-only: L0, the phase 2i and the sign i of k, each (e, 1, 1);
    # xi, (e, 1, 1) or (e, 1, n) with one position per wavenumber; cos and sin of the half
    # eigenphases, (e, 3, 1); and V's rank-one projectors v_j v_j^dagger, a row per entry
    # (i, l) of the node matrix and a column per j, (e, 9, 3).
    nodes, xis, orientations = zip(*ends)
    rows = lambda values: np.array(values).reshape(len(ends), 1, -1)  # one row per end
    v = np.array([node.v for node in nodes])
    stack = (rows([node.L0 for node in nodes]), rows([_PHASE[o] for o in orientations]),
             rows([_PHASE[o] / 2 for o in orientations]), rows(xis),  # i as _s_array divides it
             *np.array([node.half for node in nodes]).transpose(2, 0, 1)[..., None],
             (v[:, :, None, :] * v.conj()[:, None, :, :]).reshape(len(ends), 9, 3))
    for a in stack:
        a.setflags(write=False)
    return stack


def _s_grid(ends: tuple, ks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # _s_array at each node end of the stack ends (_ends) on a grid of wavenumbers, in one pass: where
    # _phase_exponent accepts them at every end, as a mask, and each end's entries s[i][j], shape (e, 3, 3, n)
    # with the wavenumbers last (meaningless where rejected; the caller silences numpy's overflow warnings).
    # As L0 > 0 is finite, k*L0 > 0 is finite only where k is, and z is finite only where xi is (its real part
    # is 0 * xi).  The entries are _factor's diagonal times the position phase times V's rank-one projectors,
    # in one batched product; an end's words do not depend on the other ends.
    L0, phase, i, xi, cos, sin, projectors = ends
    lk = L0 * ks
    z = phase * ks * xi
    accepted = (np.isfinite(lk) & (lk > 0.0) & np.isfinite(z)).all(axis=(0, 1))
    d = _factor(lk, cos, sin, i, np.hypot)
    d *= np.exp(z)
    return accepted, (projectors @ d).reshape(len(projectors), 3, 3, -1)


def junction_residual(
    U: Mat3,
    L0: float,
    k: float,
    xi: float,
    phi: Vec3,
    psi: Vec3,
    orientation: Orientation = Orientation.INWARD,
) -> float:
    """Max-norm defect of the node condition for given incoming/outgoing amplitudes.

    Builds the boundary vector and its derivative from plane waves
    phi * exp(+-ik x) + psi * exp(-+ik x) evaluated at xi and returns
    max | (U - I) Psi + i L0 (U + I) Psi' |.  A correct scattering relation
    psi = S phi drives this to rounding level; it is the oracle every
    scattering matrix here is tested against.
    """
    if not (math.isfinite(k) and k > 0.0):
        raise ValueError(f"k must be positive and finite, got {k!r}")
    U = as_complex_matrix(U, (3, 3))
    return float(_residual(U, L0, k, xi, as_vec3(phi), as_vec3(psi), orientation))


def _residual(U: Mat3, L0: float, k, xi, phi: np.ndarray, psi: np.ndarray, orientation: Orientation):
    # The defect of junction_residual, unchecked: for one sample, or for n at
    # once with k and xi of shape (n,) and phi, psi of shape (3, n), a column
    # per sample, giving n defects.
    i = _PHASE[orientation] / 2  # 1j inward, -1j outward: the sign of k at the node
    e_in, e_out = np.exp(i * k * xi), np.exp(-i * k * xi)
    big_psi = e_in * phi + e_out * psi
    big_dpsi = i * k * (e_in * phi - e_out * psi)
    eye = _identity(3)
    res = (U - eye) @ big_psi + 1j * L0 * (U + eye) @ big_dpsi
    return np.abs(res).max(axis=0)


def probabilities(S: ScatteringMatrix) -> np.ndarray:
    """Real 3x3 table with entry (j, i) = |S_ji|^2, the probability for i -> j.

    Diagonal entries are reflection probabilities; rows and columns each sum
    to one by unitarity.
    """
    return np.abs(S.m) ** 2


def is_time_reversal(p: JunctionParams) -> bool:
    """True when the boundary matrix is symmetric (U = U^T).

    A sufficient parameter condition is alpha, gamma, a each in {0, pi}
    mod 2*pi, which makes V real and the scattering matrix symmetric.
    """
    u = build_U(p)
    return max_norm(u - u.T) <= PREDICATE_TOL


def is_scale_invariant(p: JunctionParams) -> bool:
    """True when every canonical eigenphase is exactly 0.0 or math.pi, with no tolerance.

    For such nodes the boundary condition splits into value and derivative
    parts, the length scale drops out, and scattering probabilities become
    independent of k.  A config's 'pi:<n>' stores every integer n exactly so.
    """
    return all(t in (0.0, math.pi) for t in p.theta)


def buttiker_matrix(b: float) -> Mat3:
    """The classic symmetric three-port beam-splitter scattering matrix.

    One real parameter b sets the split; b = pi/4 is the balanced coupler
    with zero back-reflection on port 1.  Equals the node construction with
    eigenphases (0, pi, pi) and Euler angles (0, 3*pi/2, pi, pi/4, 0, b),
    up to the position phase.
    """
    c, s = math.cos(2.0 * b), math.sin(2.0 * b)
    r = s / math.sqrt(2.0)
    return np.array(
        [
            [-c, r, r],
            [r, (c - 1.0) / 2.0, (c + 1.0) / 2.0],
            [r, (c + 1.0) / 2.0, (c - 1.0) / 2.0],
        ],
        dtype=complex,
    )


def gauge_shift(p: JunctionParams, new_L0: float) -> JunctionParams:
    """Rescale the gauge length, absorbing the change into the eigenphases.

    The eigenphases transform so that L0 * cot(theta_i / 2) is preserved,
    which leaves the scattering matrix invariant at every wavenumber.
    Eigenphases 0 and pi are fixed points, returned unchanged.
    """
    if not (math.isfinite(new_L0) and new_L0 > 0.0):
        raise ValueError(f"new_L0 must be positive and finite, got {new_L0!r}")
    ratio = p.L0 / new_L0
    new_theta = tuple(
        t if t in (0.0, math.pi) else 2.0 * math.atan2(math.sin(t / 2.0), ratio * math.cos(t / 2.0))
        for t in p.theta
    )
    return replace(p, theta=new_theta, L0=new_L0)
