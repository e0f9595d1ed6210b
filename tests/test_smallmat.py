import math
from pathlib import Path

import numpy as np
import pytest

from conftest import expm_power_series, random_params
from yring import build_U, smallmat, unitarity_error
from yring.cli import main
from yring.smallmat import (
    _PyComplexArray,
    _finite,
    _identity,
    _square,
    as_complex_matrix,
    as_vec3,
    exp_i_generator,
    max_norm,
)

SQ3 = math.sqrt(3.0)
CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

# The eight Gell-Mann matrices; the inputs of the exp_i_generator oracle.
_GELL_MANN = tuple(
    np.array(m, dtype=complex)
    for m in (
        [[0, 1, 0], [1, 0, 0], [0, 0, 0]],
        [[0, -1j, 0], [1j, 0, 0], [0, 0, 0]],
        [[1, 0, 0], [0, -1, 0], [0, 0, 0]],
        [[0, 0, 1], [0, 0, 0], [1, 0, 0]],
        [[0, 0, -1j], [0, 0, 0], [1j, 0, 0]],
        [[0, 0, 0], [0, 0, 1], [0, 1, 0]],
        [[0, 0, 0], [0, 0, -1j], [0, 1j, 0]],
        [
            [1 / math.sqrt(3), 0, 0],
            [0, 1 / math.sqrt(3), 0],
            [0, 0, -2 / math.sqrt(3)],
        ],
    )
)
for _m in _GELL_MANN:
    _m.setflags(write=False)


def gell_mann(index: int) -> np.ndarray:
    """Return the SU(3) generator with the given 1-based index (1..8)."""
    if not isinstance(index, (int, np.integer)) or not 1 <= index <= 8:
        raise ValueError(f"generator index must be in 1..8, got {index!r}")
    return _GELL_MANN[index - 1].copy()


REFERENCE_GENERATORS = {
    1: [[0, 1, 0], [1, 0, 0], [0, 0, 0]],
    2: [[0, -1j, 0], [1j, 0, 0], [0, 0, 0]],
    3: [[1, 0, 0], [0, -1, 0], [0, 0, 0]],
    4: [[0, 0, 1], [0, 0, 0], [1, 0, 0]],
    5: [[0, 0, -1j], [0, 0, 0], [1j, 0, 0]],
    6: [[0, 0, 0], [0, 0, 1], [0, 1, 0]],
    7: [[0, 0, 0], [0, 0, -1j], [0, 1j, 0]],
    8: [[1 / SQ3, 0, 0], [0, 1 / SQ3, 0], [0, 0, -2 / SQ3]],
}


@pytest.mark.parametrize("index", range(1, 9))
def test_gell_mann_reference_values(index):
    assert np.array_equal(gell_mann(index), np.array(REFERENCE_GENERATORS[index], dtype=complex))


def test_gell_mann_traceless_hermitian_orthonormal():
    for i in range(1, 9):
        gi = gell_mann(i)
        assert abs(np.trace(gi)) == 0.0
        assert np.abs(gi - gi.conj().T).max() == 0.0
        for j in range(1, 9):
            expected = 2.0 if i == j else 0.0
            assert np.trace(gell_mann(i) @ gell_mann(j)) == pytest.approx(expected, abs=1e-15)


@pytest.mark.parametrize("index", [0, 9, -1, "3"])
def test_gell_mann_rejects_bad_index(index):
    with pytest.raises(ValueError):
        gell_mann(index)


def test_exp_generator3_at_pi_is_diagonal_sign_flip():
    expected = np.diag([-1.0, -1.0, 1.0]).astype(complex)
    assert np.abs(exp_i_generator(3, math.pi) - expected).max() < 1e-15


@pytest.mark.parametrize("index", [2, 3, 5])
@pytest.mark.parametrize("angle", [0.0, 0.3, 1.0, math.pi / 2, 2.5])
def test_exp_matches_power_series_oracle(index, angle):
    oracle = expm_power_series(1j * angle * gell_mann(index), terms=30)
    assert np.abs(exp_i_generator(index, angle) - oracle).max() < 1e-13


@pytest.mark.parametrize("index", [2, 3, 5])
@pytest.mark.parametrize("angle", [math.pi, 4.4, 6.0, -2.7])
def test_exp_matches_long_series_at_large_angles(index, angle):
    # 30 terms truncate too early for |angle| near 2*pi; extend the oracle
    oracle = expm_power_series(1j * angle * gell_mann(index), terms=60)
    assert np.abs(exp_i_generator(index, angle) - oracle).max() < 1e-13


@pytest.mark.parametrize("index", [2, 5])
def test_exp_rotation_blocks(index):
    # explicit block-rotation form for the two real-rotation generators
    t = 0.77
    c, s = math.cos(t), math.sin(t)
    if index == 2:
        expected = np.array([[c, s, 0], [-s, c, 0], [0, 0, 1]], dtype=complex)
    else:
        expected = np.array([[c, 0, s], [0, 1, 0], [-s, 0, c]], dtype=complex)
    assert np.abs(exp_i_generator(index, t) - expected).max() < 1e-15


@pytest.mark.parametrize("index", [2, 3, 5])
def test_exp_group_law_and_inverse(index):
    rng = np.random.default_rng(11)
    for _ in range(25):
        t1, t2 = rng.uniform(-6, 6, size=2)
        left = exp_i_generator(index, t1 + t2)
        right = exp_i_generator(index, t1) @ exp_i_generator(index, t2)
        assert np.abs(left - right).max() < 1e-13
        prod = exp_i_generator(index, t1) @ exp_i_generator(index, -t1)
        assert np.abs(prod - np.eye(3)).max() < 1e-13
        assert unitarity_error(exp_i_generator(index, t1)) < 1e-14


@pytest.mark.parametrize("index", [1, 4, 6, 7, 8, 0, 9])
def test_exp_rejects_unsupported_generator(index):
    with pytest.raises(ValueError):
        exp_i_generator(index, 0.5)


def test_unitarity_error_examples():
    assert unitarity_error(np.eye(3, dtype=complex)) == 0.0
    assert unitarity_error(2.0 * np.eye(3, dtype=complex)) == pytest.approx(3.0, abs=1e-15)


def test_unitarity_error_of_built_boundary_matrices():
    rng = np.random.default_rng(23)
    worst = 0.0
    for _ in range(300):
        worst = max(worst, unitarity_error(build_U(random_params(rng))))
    assert worst < 1e-13


# -- the previous validation helpers, kept as references -----------------------


def reference_finite(m):
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite (no NaN/Inf)")
    return m


def reference_unitarity_error(a):
    n = a.shape[0]
    if a.shape != (n, n):
        raise ValueError("unitarity_error expects a square matrix")
    return max_norm(a @ a.conj().T - np.eye(n))


def random_matrices(rng, n: int, count: int = 40) -> list:
    """Random unitary matrices (QR of complex Gaussians), complex Gaussians, and
    unitary matrices perturbed by 1e-13 (errors near UNITARITY_TOL)."""
    out = []
    for _ in range(count):
        g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        q, r = np.linalg.qr(g)
        out += [q * (np.diag(r) / np.abs(np.diag(r))), g, q + 1e-13 * g]
    return out


def with_non_finite(m, value):
    bad = m.copy()
    bad.flat[bad.size // 2] = value
    return bad


@pytest.mark.parametrize("n", [2, 3, 4])
def test_unitarity_error_matches_previous_body(n):
    rng = np.random.default_rng([41, n])
    for m in random_matrices(rng, n):
        assert unitarity_error(m).hex() == reference_unitarity_error(m).hex()
    with np.errstate(invalid="ignore"):  # inf * 0 in the product
        for value in (np.nan, np.inf, complex(0.0, -np.inf)):
            m = with_non_finite(np.eye(n, dtype=complex), value)
            assert unitarity_error(m).hex() == reference_unitarity_error(m).hex()
    assert not _identity(n).flags.writeable
    assert np.array_equal(_identity(n), np.eye(n)) and _identity(n).dtype == np.eye(n).dtype


@pytest.mark.parametrize("n", [2, 3, 4])
def test_finite_matches_previous_body(n):
    rng = np.random.default_rng([42, n])
    for m in random_matrices(rng, n, count=10):
        assert _finite(m) is m and reference_finite(m) is m
        for value in (np.nan, np.inf, -np.inf, complex(np.nan, 0.0), complex(0.0, np.inf)):
            bad = with_non_finite(m, value)
            for check in (_finite, reference_finite):
                with pytest.raises(ValueError, match=r"^matrix entries must be finite \(no NaN/Inf\)$"):
                    check(bad)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, complex(np.nan, 0.0), complex(0.0, -np.inf)])
def test_coercions_reject_non_finite_entries(value):
    m = np.eye(3, dtype=complex)
    m[2, 1] = value
    with pytest.raises(ValueError, match="finite"):
        as_complex_matrix(m, (3, 3))
    with pytest.raises(ValueError, match="finite"):
        as_complex_matrix(m.tolist(), (3, 3))
    with pytest.raises(ValueError, match="finite"):
        as_vec3([1.0, value, 0.0])
    assert np.array_equal(as_complex_matrix(np.eye(3), (3, 3)), np.eye(3))
    assert np.array_equal(as_vec3([1, 2j, 3]), np.array([1, 2j, 3]))


def _python_complex_cases(n: int = 20000):
    rng = np.random.default_rng(7)
    z = rng.normal(size=n) * 10.0 ** rng.integers(-6, 6, n) + 1j * rng.normal(size=n)
    z[:40] = z[:40].real  # zero imaginary parts
    z[40:80] = 1j * z[40:80].imag  # zero real parts
    z[80:90] = -0.0 - 0.0j  # negative zeros
    return z


def bits(a) -> list:
    return np.asarray(a, dtype=complex).view(np.int64).tolist()


def test_py_complex_array_rounds_like_python_complex():
    a = _python_complex_cases()
    b = np.roll(a, 1234)[::-1]
    x = np.random.default_rng(8).normal(size=a.size)
    za, zb = _PyComplexArray.of(a), _PyComplexArray.of(b)
    pa, pb, px = a.tolist(), b.tolist(), x.tolist()
    cases = [
        (za * zb, [u * v for u, v in zip(pa, pb)]),
        (za + zb, [u + v for u, v in zip(pa, pb)]),
        (za - zb, [u - v for u, v in zip(pa, pb)]),
        (za * x, [u * t for u, t in zip(pa, px)]),
        (x * za, [t * u for u, t in zip(pa, px)]),
        (1.0 - za, [1.0 - u for u in pa]),
        (-za, [-u for u in pa]),
        (za.conjugate(), [u.conjugate() for u in pa]),
        (_PyComplexArray(0.0, 1.0) * x, [1j * t for t in px]),
    ]
    for got, expected in cases:
        assert bits(got.to_numpy()) == bits(expected)
    nonzero = b != 0
    quotient = _PyComplexArray.of(a[nonzero]) / _PyComplexArray.of(b[nonzero])
    assert bits(quotient.to_numpy()) == bits([u / v for u, v in zip(a[nonzero].tolist(), b[nonzero].tolist())])
    assert abs(za).tolist() == [abs(u) for u in pa]


def test_square_rounds_like_python_pow():
    x = np.abs(_python_complex_cases().real)
    assert _square(x).tolist() == [t**2 for t in x.tolist()]
    assert _square(1.5) == 2.25


def _square_error_ulps(x: np.ndarray) -> np.ndarray:
    """|x**2 - fl(x*x)| in units of the spacing of fl(x*x), exact by Dekker's split (the corpus selector)."""
    h = x * x
    c = x * 134217729.0
    hi = c - (c - x)
    lo = x - hi
    return np.abs(((hi * hi - h) + 2.0 * hi * lo) + lo * lo) / np.spacing(h)


def _square_corpus() -> np.ndarray:
    rng = np.random.default_rng(1971)
    uniform = rng.random(400_000)
    candidates = rng.random(2_000_000) * 10.0 ** rng.uniform(-8.0, 8.0, 2_000_000)
    near_midpoint = candidates[(_square_error_ulps(candidates) >= 0.44)]  # 0.44..0.5 ulp, about 12%
    assert near_midpoint.size > 200_000
    # the lowest binades of normal squares, where x*x's own error term is not
    # exact (the selector runs on x * 2**600, which leaves the ratio unchanged)
    low = np.ldexp(rng.random(1_500_000) + 1.0, rng.integers(-512, -509, 1_500_000))
    low_near_midpoint = low[_square_error_ulps(low * 2.0**600) >= 0.49]
    powers = 2.0 ** np.arange(-1074.0, 512.0)
    tiny = np.ldexp(rng.random(20_000) + 0.5, rng.integers(-560, -440, 20_000))  # squares subnormal, or near 2**-900
    huge = np.ldexp(rng.random(20_000) + 0.5, rng.integers(480, 512, 20_000))  # squares up to just below overflow
    special = np.array([0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324, -5e-324])
    x = np.concatenate([
        uniform, uniform**8, near_midpoint, low_near_midpoint,
        powers, np.nextafter(powers, 0.0), np.nextafter(powers, math.inf),
        tiny, huge, special, -rng.random(50_000),
    ])
    assert x.size >= 1_000_000
    return x


def test_square_certificate_matches_pow_on_a_large_corpus():
    x = _square_corpus()
    expected = np.array([t**2 for t in x.tolist()])
    with np.errstate(all="ignore"):
        assert np.count_nonzero(x * x != expected) > 1000  # pow and x*x do differ here
    np.testing.assert_array_equal(_square(x).view(np.int64), expected.view(np.int64))
    # any shape: the 2-d result too, and a non-contiguous input
    grid = x[: 600_000].reshape(-1, 6)
    np.testing.assert_array_equal(_square(grid[:, ::2]).view(np.int64), expected[: 600_000].reshape(-1, 6)[:, ::2].view(np.int64))


def test_square_overflow_raises_as_pow_does():
    for x in (1.4e154, 1e200, 1e300, np.finfo(float).max):
        with pytest.raises(OverflowError):
            float(x) ** 2
        with pytest.raises(OverflowError):
            _square(np.array([0.5, x, 2.0]))


def test_square_shapes():
    zero_d = _square(np.array(1.5))
    assert isinstance(zero_d, np.ndarray) and zero_d.shape == () and zero_d == 2.25
    assert _square(np.array(0.1)).item() == 0.1**2
    for shape in ((0,), (0, 6), (3, 0)):
        empty = _square(np.empty(shape))
        assert empty.shape == shape and empty.dtype == float


@pytest.mark.parametrize("config", ["symmetric_buttiker", "antisymmetric_generic", "general_ring"])
def test_most_sweep_squares_skip_pow(config, monkeypatch, capsys):
    # The certificate keeps x*x for most |z|^2 cells of a real sweep: the
    # fallback is not where the time goes.  Counted over the whole sweep,
    # the closed forms' |s11|^2 included, against the CSV's six cells a row.
    calls = 0

    def counting_pow(x, y):
        nonlocal calls
        calls += 1
        return pow(x, y)

    monkeypatch.setattr(smallmat, "pow", counting_pow, raising=False)
    assert main(["sweep", "--config", str(CONFIG_DIR / f"{config}.json"), "--n", "4096"]) == 0
    capsys.readouterr()
    assert 0 < calls < 0.15 * 4096 * 6
