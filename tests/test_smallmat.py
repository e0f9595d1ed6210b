import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from conftest import expm_power_series, random_params
from yring import build_U, unitarity_error
from yring.cli import main
from yring.smallmat import (
    _finite,
    _identity,
    as_complex_matrix,
    as_vec3,
    exp_i_generator,
    max_norm,
)

SQ3 = math.sqrt(3.0)
EPS = np.finfo(float).eps
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


@pytest.mark.parametrize("index", [2, 3, 5])
@pytest.mark.parametrize("angle", [math.inf, -math.inf, math.nan])
def test_exp_rejects_non_finite_angle(index, angle):
    with pytest.raises(ValueError) as err:
        exp_i_generator(index, angle)
    assert str(err.value) == "angle must be finite"


def test_coercion_rejects_wrong_shape():
    with pytest.raises(ValueError) as err:
        as_complex_matrix(np.eye(2), (3, 3))
    assert str(err.value) == "expected shape (3, 3), got (2, 2)"


@pytest.mark.parametrize("shape", [(2, 3), (3, 2), (3,)])
def test_unitarity_error_rejects_non_square(shape):
    with pytest.raises(ValueError) as err:
        unitarity_error(np.ones(shape, dtype=complex))
    assert str(err.value) == "unitarity_error expects a square matrix"


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


@pytest.mark.parametrize("config", ["symmetric_buttiker", "antisymmetric_generic", "general_ring"])
def test_most_sweep_squares_skip_pow(config, tmp_path):
    # The sweep squares |z| as numpy's |z| ** 2, with no pow of its own:
    # parsed back from '%.17g', each |A|^2 and |F|^2 cell of a real sweep
    # lies within 4 eps of the exact re^2 + im^2 of its row's own cells.
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", str(CONFIG_DIR / f"{config}.json"), "--n", "4096", "--out", str(out)]) == 0
    cells = np.loadtxt(out, delimiter=",", skiprows=1)
    rows = cells[cells[:, 11] == 0]
    assert rows.shape[0] > 4000
    for square, re, im in ((1, 7, 8), (6, 9, 10)):
        for got, x, y in zip(rows[:, square].tolist(), rows[:, re].tolist(), rows[:, im].tolist()):
            exact = Fraction(x) ** 2 + Fraction(y) ** 2
            assert abs(Fraction(got) - exact) <= 4 * EPS * exact
