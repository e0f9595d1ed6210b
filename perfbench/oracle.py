"""Independent reference for node and ring amplitudes.

Nothing here calls the yring solvers.  The boundary matrix U is rebuilt
from the junction angles with eigendecomposition-based exponentials of the
Gell-Mann generators, each node scattering matrix is solved directly from
the node condition (U - I) Psi + i L0 (U + I) Psi' = 0, and the ring is a
dense 6x6 linear solve of the two node relations.
"""

from __future__ import annotations

import math

import numpy as np

_GENERATORS = {
    2: np.array([[0, -1j, 0], [1j, 0, 0], [0, 0, 0]], dtype=complex),
    3: np.diag([1.0, -1.0, 0.0]).astype(complex),
    5: np.array([[0, 0, -1j], [0, 0, 0], [1j, 0, 0]], dtype=complex),
}
_EIGEN = {index: np.linalg.eigh(g) for index, g in _GENERATORS.items()}
_EULER_ORDER = (("alpha", 3), ("beta", 2), ("gamma", 3), ("delta", 5), ("a", 3), ("b", 2))
_SWAP_23 = np.array([[1, 0, 0], [0, 0, 1], [0, 1, 0]], dtype=complex)
_EYE3 = np.eye(3, dtype=complex)

#: A 6x6 ring system with a larger 2-norm condition number is singular.
SINGULAR_COND = 1e12


def _exp_i(index: int, angle: float) -> np.ndarray:
    w, v = _EIGEN[index]
    return (v * np.exp(1j * angle * w)) @ v.conj().T


def boundary_matrix(p) -> np.ndarray:
    """U = V diag(exp(i theta)) V^dagger for a JunctionParams-like object."""
    v = _EYE3
    for name, index in _EULER_ORDER:
        v = v @ _exp_i(index, getattr(p, name))
    return (v * np.exp(1j * np.asarray(p.theta, dtype=float))) @ v.conj().T


def node_s(u: np.ndarray, L0: float, k: float, xi: float, inward: bool) -> np.ndarray:
    """Scattering matrix solved from the node condition for plane waves at xi.

    Inward: Psi = e^{ik xi} phi + e^{-ik xi} psi, Psi' = ik (e^{ik xi} phi - e^{-ik xi} psi);
    outward flips the sign of k.  Both (1 +- k L0) U - (1 -+ k L0) I are
    invertible for k L0 > 0 because U has unimodular eigenvalues.
    """
    p = u - _EYE3
    q = k * L0 * (u + _EYE3)
    if inward:
        return -np.exp(2j * k * xi) * np.linalg.solve(p + q, p - q)
    return -np.exp(-2j * k * xi) * np.linalg.solve(p - q, p + q)


class RingOracle:
    """Reference solver for one ring: left node, right node relation, positions."""

    def __init__(self, ring):
        self.xi1 = ring.xi1
        self.xi2 = ring.xi2
        self.mode = type(ring.mode).__name__
        self.left = ring.left
        self.u_left = boundary_matrix(ring.left)
        if self.mode == "General":
            self.right = ring.mode.right
            self.u_right = boundary_matrix(self.right)
        else:
            self.right = ring.left
            self.u_right = self.u_left
            if self.mode == "AntiSymmetric":
                self.u_right = _SWAP_23 @ self.u_left @ _SWAP_23

    def node_matrices(self, k: float) -> tuple[np.ndarray, np.ndarray]:
        s1 = node_s(self.u_left, self.left.L0, k, self.xi1, inward=True)
        s2 = node_s(self.u_right, self.right.L0, k, self.xi2, inward=False)
        return s1, s2

    def solve(self, k: float) -> tuple[np.ndarray, float]:
        """Amplitudes (A, B, C, D, E, F) and the 2-norm condition number of the system.

        The left node maps incoming (1, C, E) to outgoing (A, B, D); the
        right node maps incoming (0, B, D) to outgoing (F, C, E).  When the
        system is singular (a bound state on the ring) the interior
        amplitudes are not determined and come back NaN; A and F stay
        determined, and are returned, when the bound state has no weight on
        the exterior wires and the launch is consistent with it.
        """
        s1, s2 = self.node_matrices(k)
        m = np.zeros((6, 6), dtype=complex)
        rhs = np.zeros(6, dtype=complex)
        for row, (out, i) in enumerate(((0, 0), (1, 1), (3, 2))):
            m[row, out] = 1.0
            m[row, 2] = -s1[i, 1]
            m[row, 4] = -s1[i, 2]
            rhs[row] = s1[i, 0]
        for row, (out, i) in enumerate(((5, 0), (2, 1), (4, 2)), start=3):
            m[row, out] = 1.0
            m[row, 1] = -s2[i, 1]
            m[row, 3] = -s2[i, 2]
        u, sv, vh = np.linalg.svd(m)
        cond = float(sv[0] / sv[-1]) if sv[-1] > 0.0 else math.inf
        if cond <= SINGULAR_COND:
            return np.linalg.solve(m, rhs), cond
        keep = sv > sv[0] / SINGULAR_COND
        x = vh[keep].conj().T @ ((u[:, keep].conj().T @ rhs) / sv[keep])
        null = vh[~keep]
        amps = np.full(6, np.nan, dtype=complex)
        consistent = np.abs(m @ x - rhs).max() <= 1e-10
        if consistent and np.abs(null[:, [0, 5]]).max() <= 1e-8:
            amps[0], amps[5] = x[0], x[5]
        return amps, cond

    def probability(self, k: float, kind: str) -> float:
        """|A|^2 for kind "transmission" (it must vanish), |F|^2 for "reflection"."""
        amps, _ = self.solve(k)
        return float(abs(amps[0] if kind == "transmission" else amps[5]) ** 2)

    def exterior_reflection(self, k: float) -> float:
        """|s11| of the left node at k; the same at every k for a scale-invariant node."""
        return float(abs(node_s(self.u_left, self.left.L0, k, 0.0, inward=True)[0, 0]))


def amplitude_tolerance(cond: float) -> float:
    """Allowed amplitude difference between the program and the oracle."""
    return 1e-9 + 1e-14 * min(cond, SINGULAR_COND)
