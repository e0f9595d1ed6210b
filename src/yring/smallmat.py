"""Fixed-shape complex linear algebra: 3x3 matrices and SU(3) generator exponentials.

All matrices are plain numpy arrays of dtype complex128; the module never
infers shapes.  Only three generator exponentials are provided, in closed
form, because only those three appear in the Euler-angle factorization used
by the junction module.  `_PyComplexArray`, `_square` and `_stack_times`
are the array steps of the grid kernel under ring.solve_grid's grid/point
contract.
"""

from __future__ import annotations

import functools
import itertools
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


class _PyComplexArray:
    """Complex arrays that round exactly as CPython's complex scalars do.

    numpy's vectorised complex multiply, divide and abs can differ from
    CPython's scalar arithmetic in the last bit.  This type keeps the real and
    imaginary parts as float arrays and repeats CPython's formulas operation
    for operation: real operands are first promoted to (x, 0.0), as CPython
    up to 3.13 does, and division is CPython's scaled quotient.  One
    expression evaluated on Python complex scalars and on these arrays
    therefore gives bit-identical results, element by element.
    """

    __slots__ = ("re", "im")
    __array_ufunc__ = None  # ndarray (op) this -> this.__rop__, never elementwise on objects

    def __init__(self, re, im):
        self.re = re
        self.im = im

    @classmethod
    def of(cls, z: np.ndarray) -> "_PyComplexArray":
        return cls(z.real, z.imag)

    def to_numpy(self) -> np.ndarray:
        out = np.empty(np.broadcast(self.re, self.im).shape, dtype=complex)
        out.real = self.re
        out.imag = self.im
        return out

    @classmethod
    def _lift(cls, x) -> "_PyComplexArray":
        if isinstance(x, cls):
            return x
        if isinstance(x, complex):
            return cls(x.real, x.imag)
        return cls(x, 0.0)

    def __add__(self, other):
        o = self._lift(other)
        return _PyComplexArray(self.re + o.re, self.im + o.im)

    def __sub__(self, other):
        o = self._lift(other)
        return _PyComplexArray(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        return self._lift(other) - self

    def __mul__(self, other):
        o = self._lift(other)
        return _PyComplexArray(
            self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re
        )

    def __rmul__(self, other):
        return self._lift(other) * self

    def __truediv__(self, other):
        o = self._lift(other)
        ar, ai, br, bi = (np.asarray(x) for x in (self.re, self.im, o.re, o.im))
        by_re = np.abs(br) >= np.abs(bi)
        with np.errstate(divide="ignore", invalid="ignore"):  # both branches are evaluated
            ratio = bi / br
            denom = br + bi * ratio
            ratio_i = br / bi
            denom_i = br * ratio_i + bi
            return _PyComplexArray(
                np.where(by_re, (ar + ai * ratio) / denom, (ar * ratio_i + ai) / denom_i),
                np.where(by_re, (ai - ar * ratio) / denom, (ai * ratio_i - ar) / denom_i),
            )

    def __neg__(self):
        return _PyComplexArray(-self.re, -self.im)

    def __abs__(self) -> np.ndarray:
        return np.hypot(self.re, self.im)

    def conjugate(self):
        return _PyComplexArray(self.re, -self.im)


def _entries(m: np.ndarray) -> list[list[_PyComplexArray]]:
    """Entry (i, j) of a stack of matrices (..., rows, cols), as nested lists."""
    return [[_PyComplexArray.of(m[..., i, j]) for j in range(m.shape[-1])] for i in range(m.shape[-2])]


#: Dekker's splitting constant for doubles, 2**27 + 1.
_SPLIT = 134217729.0
#: The exponent bits of a double: h & _EXPONENT is 2**floor(log2 h) for normal h > 0.
_EXPONENT = np.int64(0x7FF0000000000000)


def _square(x):
    """x ** 2 as CPython computes it (libm pow), elementwise on arrays.

    numpy squares by multiplication, which is correctly rounded; pow is not
    quite, and differs from it in the last bit when x**2 lies near a rounding
    midpoint.  So h = x*x is kept where Dekker's error-free product (Dekker,
    Numer. Math. 18, 224, 1971) puts the exact x**2 within 0.45 ulp of h,
    which leaves pow more than half an ulp of its own error before it could
    round elsewhere.  pow computes the rest: values nearer the midpoint
    (about a tenth of uniform inputs), squares that are powers of two (the
    spacing below them is half; only exact squares land there), squares
    outside [2**-900, 2**1024), where the error term is not exact or the
    square overflows, and values that are not finite.
    """
    if not isinstance(x, np.ndarray):
        return x**2
    v = x.ravel()
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        h = v * v
        c = v * _SPLIT
        hi = c - (c - v)
        lo = v - hi
        err = ((hi * hi - h) + 2.0 * hi * lo) + lo * lo  # exactly x**2 - h
        top = (h.view(np.int64) & _EXPONENT).view(float)
        certified = (np.abs(err) < 0.45 * 2.0**-52 * top) & (h != top) & (top >= 2.0**-900)
    rest = np.flatnonzero(~certified)
    if len(rest):
        h[rest] = list(map(pow, v[rest].tolist(), itertools.repeat(2.0)))
    return h.reshape(x.shape)


def _stack_times(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a[i] @ b for every matrix of a stack a (..., rows, cols), as one tall BLAS product.

    Equal to the per-matrix products bit for bit only on the BLAS builds that
    ring.solve_grid's grid/point contract names.
    """
    return (a.reshape(-1, a.shape[-1]) @ b).reshape(a.shape[:-1] + b.shape[-1:])


@functools.lru_cache(maxsize=8)
def _identity(n: int) -> np.ndarray:
    # np.eye(n), built once per size and shared, hence read-only.
    eye = np.eye(n)
    eye.setflags(write=False)
    return eye


def unitarity_error(a: np.ndarray) -> float:
    """Max-norm of a @ a^dagger - I for a square matrix."""
    n = a.shape[0]
    if a.shape != (n, n):
        raise ValueError("unitarity_error expects a square matrix")
    return max_norm(a @ a.conj().T - _identity(n))
