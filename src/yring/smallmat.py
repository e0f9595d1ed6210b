"""Fixed-shape complex linear algebra: 3x3 matrices and SU(3) generator exponentials.

All matrices are plain numpy arrays of dtype complex128; the module never
infers shapes.  Only three generator exponentials are provided, in closed
form, because only those three appear in the Euler-angle factorization used
by the junction module.
"""

from __future__ import annotations

import functools
import math

import numpy as np

# Aliases for readability of signatures; these are ordinary ndarrays.
Mat3 = np.ndarray
Vec3 = np.ndarray

#: Default tolerance for unitarity checks.  Entries are O(1) everywhere.
UNITARITY_TOL = 1e-12


def _finite(m: np.ndarray) -> np.ndarray:
    if not np.isfinite(m).all():
        raise ValueError("matrix entries must be finite (no NaN/Inf)")
    return m


def as_complex_matrix(entries, shape: tuple[int, int]) -> np.ndarray:
    """Coerce to a complex array of the given shape, rejecting non-finite entries."""
    m = np.asarray(entries, dtype=complex)
    if m.shape != shape:
        raise ValueError(f"expected shape {shape}, got {m.shape}")
    return _finite(m)


def as_vec3(entries) -> Vec3:
    v = np.asarray(entries, dtype=complex).reshape(3)
    return _finite(v)


def exp_i_generator(index: int, angle: float) -> Mat3:
    """Return exp(i * angle * generator) for index in {2, 3, 5}, in closed form.

    Generators 2 and 5 exponentiate to real rotation blocks, 3 to diagonal
    phases.  The remaining generators are not needed and are rejected.
    """
    t = float(angle)
    if not math.isfinite(t):
        raise ValueError("angle must be finite")
    if index == 2:
        c, s = math.cos(t), math.sin(t)
        return np.array([[c, s, 0], [-s, c, 0], [0, 0, 1]], dtype=complex)
    if index == 3:
        p = np.exp(1j * t)
        return np.diag([p, p.conjugate(), 1.0 + 0j])
    if index == 5:
        c, s = math.cos(t), math.sin(t)
        return np.array([[c, 0, s], [0, 1, 0], [-s, 0, c]], dtype=complex)
    raise ValueError(f"no closed-form exponential for generator {index!r}")


def max_norm(a: np.ndarray) -> float:
    """Largest entry modulus."""
    return float(np.abs(a).max())


@functools.lru_cache(maxsize=8)
def _identity(n: int) -> np.ndarray:
    # np.eye(n), built once per size and shared, hence read-only.
    eye = np.eye(n)
    eye.setflags(write=False)
    return eye


def unitarity_error(a: np.ndarray) -> float:
    """Max-norm of a @ a^dagger - I for a square matrix, the largest over a stack of them."""
    n = a.shape[-1]
    if a.ndim < 2 or a.shape[-2] != n:
        raise ValueError("unitarity_error expects a square matrix")
    return max_norm(a @ a.conj().swapaxes(-1, -2) - _identity(n))
