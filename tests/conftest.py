"""Shared helpers and independent oracles for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from yring import JunctionParams, ScatteringMatrix


def expm_power_series(G: np.ndarray, terms: int = 30) -> np.ndarray:
    """Truncated power series for expm; the oracle for the closed-form exponentials."""
    out = np.eye(G.shape[0], dtype=complex)
    acc = np.eye(G.shape[0], dtype=complex)
    for j in range(1, terms):
        acc = acc @ G / j
        out = out + acc
    return out


def char_poly_eigenvalues(U: np.ndarray) -> np.ndarray:
    """Eigenvalues of a 3x3 matrix from hand-built characteristic polynomial coefficients."""
    tr = U[0, 0] + U[1, 1] + U[2, 2]
    minors = (
        U[1, 1] * U[2, 2] - U[1, 2] * U[2, 1]
        + U[0, 0] * U[2, 2] - U[0, 2] * U[2, 0]
        + U[0, 0] * U[1, 1] - U[0, 1] * U[1, 0]
    )
    det = (
        U[0, 0] * (U[1, 1] * U[2, 2] - U[1, 2] * U[2, 1])
        - U[0, 1] * (U[1, 0] * U[2, 2] - U[1, 2] * U[2, 0])
        + U[0, 2] * (U[1, 0] * U[2, 1] - U[1, 1] * U[2, 0])
    )
    return np.roots([1.0, -tr, minors, -det])


def linear_ring_solve(S1: np.ndarray, S2: np.ndarray) -> np.ndarray:
    """Direct 6x6 solve of the two node relations; the brute-force ring oracle.

    Unknown order (A, B, C, D, E, F): the left node maps (1, C, E) to
    (A, B, D), the right one maps (0, B, D) to (F, C, E).
    """
    M = np.zeros((6, 6), dtype=complex)
    rhs = np.zeros(6, dtype=complex)
    M[0] = [1, 0, -S1[0, 1], 0, -S1[0, 2], 0]
    rhs[0] = S1[0, 0]
    M[1] = [0, 1, -S1[1, 1], 0, -S1[1, 2], 0]
    rhs[1] = S1[1, 0]
    M[2] = [0, 0, -S1[2, 1], 1, -S1[2, 2], 0]
    rhs[2] = S1[2, 0]
    M[3] = [0, -S2[0, 1], 0, -S2[0, 2], 0, 1]
    M[4] = [0, -S2[1, 1], 1, -S2[1, 2], 0, 0]
    M[5] = [0, -S2[2, 1], 0, -S2[2, 2], 1, 0]
    return np.linalg.solve(M, rhs)


def mp_resolvent_amplitudes(m1: np.ndarray, m2: np.ndarray, dps: int = 50) -> np.ndarray:
    """A..F from the resolvent (I - s s~)^-1 of the float node matrices m1, m2, in dps digits.

    The shared high-precision reference: the float solvers are measured
    against it, each within the error bound its route claims.
    """
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(dps):
        s = mpmath.matrix(m1.tolist())
        t = mpmath.matrix(m2.tolist())
        inner_s = s[1:3, 1:3]
        inner_t = t[1:3, 1:3]
        v = (mpmath.eye(2) - inner_s * inner_t) ** -1 * s[1:3, 0]
        sv = inner_t * v
        amps = (
            s[0, 0] + s[0, 1] * sv[0] + s[0, 2] * sv[1],
            s[1, 0] + s[1, 1] * sv[0] + s[1, 2] * sv[1],
            t[1, 1] * v[0] + t[1, 2] * v[1],
            s[2, 0] + s[2, 1] * sv[0] + s[2, 2] * sv[1],
            t[2, 1] * v[0] + t[2, 2] * v[1],
            t[0, 1] * v[0] + t[0, 2] * v[1],
        )
        return np.array([complex(z) for z in amps])


def random_params(rng: np.random.Generator, scale_invariant: bool = False) -> JunctionParams:
    """Random junction draw; eigenphases restricted to {0, pi} when scale_invariant."""
    if scale_invariant:
        theta = tuple(rng.choice([0.0, np.pi], size=3))
    else:
        theta = tuple(rng.uniform(0.0, 2.0 * np.pi, size=3))
    e = rng.uniform(0.0, 2.0 * np.pi, size=6)
    return JunctionParams(
        theta=theta,
        alpha=e[0],
        beta=e[1],
        gamma=e[2],
        delta=e[3],
        a=e[4],
        b=e[5],
        L0=float(rng.uniform(0.2, 5.0)),
    )


def random_incoming(rng: np.random.Generator) -> np.ndarray:
    return rng.normal(size=3) + 1j * rng.normal(size=3)


def max_diff(a: ScatteringMatrix | np.ndarray, b: ScatteringMatrix | np.ndarray) -> float:
    am = a.m if isinstance(a, ScatteringMatrix) else a
    bm = b.m if isinstance(b, ScatteringMatrix) else b
    return float(np.abs(np.asarray(am) - np.asarray(bm)).max())
