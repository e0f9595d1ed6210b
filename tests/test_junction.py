import math
import warnings

import numpy as np
import pytest

from conftest import char_poly_eigenvalues, max_diff, random_incoming, random_params
from yring import (
    JunctionParams,
    Orientation,
    ScatteringMatrix,
    build_U,
    build_V,
    buttiker_matrix,
    gauge_shift,
    is_scale_invariant,
    is_time_reversal,
    junction_residual,
    probabilities,
    s_matrix,
    unitarity_error,
)
from yring.config import parse_angle
from yring.junction import canonical_angle
from yring.smallmat import as_complex_matrix, as_vec3

PI = math.pi

# Appendix-style beam-splitter parameter assignment (everything but b fixed).
BEAM_SPLITTER = dict(theta=(0.0, PI, PI), alpha=0.0, beta=3 * PI / 2, gamma=PI, delta=PI / 4, a=0.0)

# Frozen instance with alpha = pi/3 whose boundary matrix is visibly asymmetric.
ASYM_INSTANCE = JunctionParams(
    theta=(0.53815, 1.487924, 5.034556),
    alpha=PI / 3,
    beta=3.657832,
    gamma=0.591428,
    delta=2.721417,
    a=3.009968,
    b=1.003669,
)


class TestJunctionParams:
    def test_canonical_angle_range(self):
        p = JunctionParams(theta=(-PI, 2 * PI, 5 * PI), alpha=-0.5, b=7.0)
        assert p.theta[0] == pytest.approx(PI)
        assert p.theta[1] == 0.0
        assert p.theta[2] == pytest.approx(PI)
        assert 0.0 <= p.alpha < 2 * PI
        assert 0.0 <= p.b < 2 * PI

    @pytest.mark.parametrize("x", [0.0, -0.0, 2 * PI, -2 * PI, -4 * PI, -1e-300])
    def test_canonical_zero_is_positive(self, x):
        # -0.0 and negative multiples of 2 pi leave fmod's remainder at -0.0
        assert math.copysign(1.0, canonical_angle(x)) == 1.0
        assert canonical_angle(x) == 0.0

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            JunctionParams(L0=0.0)
        with pytest.raises(ValueError):
            JunctionParams(L0=-1.0)
        with pytest.raises(ValueError):
            JunctionParams(alpha=math.nan)
        with pytest.raises(ValueError):
            JunctionParams(theta=(0.0, 0.0))

    def test_boundary_matrix_mod_2pi(self):
        rng = np.random.default_rng(2)
        p = random_params(rng)
        shifted = JunctionParams(
            theta=tuple(t + 2 * PI for t in p.theta),
            alpha=p.alpha + 2 * PI,
            beta=p.beta,
            gamma=p.gamma - 2 * PI,
            delta=p.delta,
            a=p.a,
            b=p.b + 4 * PI,
            L0=p.L0,
        )
        assert np.abs(build_U(p) - build_U(shifted)).max() < 1e-12


class TestBuildV:
    def test_zero_angles_give_identity(self):
        assert np.abs(build_V(JunctionParams()) - np.eye(3)).max() == 0.0

    def test_unitary(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            v = build_V(random_params(rng))
            assert unitarity_error(v) < 1e-13

    @pytest.mark.parametrize("b", [0.0, PI / 12, PI / 6, PI / 4, 0.3])
    def test_reproduces_beam_splitter_with_sign_eigenphases(self, b):
        p = JunctionParams(b=b, **BEAM_SPLITTER)
        v = build_V(p)
        d = np.diag([1.0, -1.0, -1.0]).astype(complex)
        assert np.abs(v @ d @ v.conj().T - buttiker_matrix(b)).max() < 1e-12


class TestBuildU:
    def test_identity_and_sign_flip(self):
        rng = np.random.default_rng(4)
        e = rng.uniform(0, 2 * PI, 6)
        euler = dict(alpha=e[0], beta=e[1], gamma=e[2], delta=e[3], a=e[4], b=e[5])
        assert np.abs(build_U(JunctionParams(theta=(0, 0, 0), **euler)) - np.eye(3)).max() < 1e-14
        assert np.abs(build_U(JunctionParams(theta=(PI, PI, PI), **euler)) + np.eye(3)).max() < 1e-14

    def test_eigenphase_multiset(self):
        rng = np.random.default_rng(6)
        for _ in range(30):
            p = random_params(rng)
            got = sorted(char_poly_eigenvalues(build_U(p)), key=lambda z: np.angle(z))
            expected = sorted(np.exp(1j * np.array(p.theta)), key=lambda z: np.angle(z))
            # roots may wrap around -pi; compare as multisets
            remaining = list(got)
            for ze in expected:
                j = int(np.argmin([abs(z - ze) for z in remaining]))
                assert abs(remaining[j] - ze) < 1e-8
                remaining.pop(j)

    def test_unitary(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            assert unitarity_error(build_U(random_params(rng))) < 1e-12


class TestSMatrix:
    def test_full_reflector(self):
        rng = np.random.default_rng(8)
        p = random_params(rng)
        p = JunctionParams(theta=(PI, PI, PI), alpha=p.alpha, beta=p.beta, gamma=p.gamma,
                           delta=p.delta, a=p.a, b=p.b, L0=p.L0)
        k, xi = 1.7, 0.4
        S = s_matrix(p, k, xi, Orientation.INWARD)
        expected = -np.exp(2j * k * xi) * np.eye(3)
        assert max_diff(S, expected) < 1e-13

    def test_full_transmitter_phase(self):
        rng = np.random.default_rng(9)
        p = random_params(rng)
        p = JunctionParams(theta=(0, 0, 0), alpha=p.alpha, beta=p.beta, gamma=p.gamma,
                           delta=p.delta, a=p.a, b=p.b, L0=p.L0)
        k, xi = 0.9, -1.2
        S = s_matrix(p, k, xi, Orientation.INWARD)
        assert max_diff(S, np.exp(2j * k * xi) * np.eye(3)) < 1e-13

    @pytest.mark.parametrize("xi", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("orientation", list(Orientation))
    def test_rejects_non_finite_position(self, xi, orientation):
        with pytest.raises(ValueError) as err:
            s_matrix(JunctionParams(**BEAM_SPLITTER), 1.0, xi, orientation)
        assert str(err.value) == "xi must be finite"

    def test_rejects_nonpositive_k(self):
        p = JunctionParams()
        for bad in (0.0, -1.0, math.nan):
            with pytest.raises(ValueError):
                s_matrix(p, bad, 0.0)

    def test_unitarity_both_orientations(self):
        rng = np.random.default_rng(10)
        for _ in range(200):
            p = random_params(rng)
            k = float(rng.uniform(0.1, 20.0))
            xi = float(rng.uniform(-2.0, 2.0))
            for orientation in Orientation:
                assert unitarity_error(s_matrix(p, k, xi, orientation).m) <= 1e-12

    def test_solves_node_condition(self):
        rng = np.random.default_rng(12)
        worst = 0.0
        for _ in range(300):
            p = random_params(rng)
            k = float(rng.uniform(0.1, 20.0))
            xi = float(rng.uniform(-2.0, 2.0))
            phi = random_incoming(rng)
            U = build_U(p)
            for orientation in Orientation:
                S = s_matrix(p, k, xi, orientation)
                res = junction_residual(U, p.L0, k, xi, phi, S.m @ phi, orientation)
                worst = max(worst, res)
        assert worst < 1e-10

    def test_outward_is_dagger_of_inward(self):
        # same node, same position: reversing every axis conjugate-transposes S
        rng = np.random.default_rng(13)
        for _ in range(50):
            p = random_params(rng)
            k = float(rng.uniform(0.1, 20.0))
            xi = float(rng.uniform(-2.0, 2.0))
            s_in = s_matrix(p, k, xi, Orientation.INWARD)
            s_out = s_matrix(p, k, xi, Orientation.OUTWARD)
            assert max_diff(s_out, s_in.m.conj().T) < 1e-12

    def test_scale_invariant_probabilities_k_independent(self):
        rng = np.random.default_rng(14)
        for _ in range(50):
            p = random_params(rng, scale_invariant=True)
            k = float(rng.uniform(0.1, 2.0))
            pr1 = probabilities(s_matrix(p, k, 0.7))
            pr2 = probabilities(s_matrix(p, 10.0 * k, 0.7))
            assert np.abs(pr1 - pr2).max() < 1e-12

    def test_matrix_is_read_only(self):
        S = s_matrix(JunctionParams(), 1.0, 0.0)
        with pytest.raises(ValueError):
            S.m[0, 0] = 0.0

    def test_leaves_the_callers_matrix_writable(self):
        a = buttiker_matrix(0.3)
        S = ScatteringMatrix(m=a, k=1.0, xi=0.0, orientation=Orientation.INWARD)
        assert a.flags.writeable and not S.m.flags.writeable
        a[0, 0] = 0.0  # the caller's edit does not reach S
        assert S.m[0, 0] == buttiker_matrix(0.3)[0, 0]

    def test_rejects_non_unitary_matrix(self):
        with pytest.raises(ValueError):
            ScatteringMatrix(m=2.0 * np.eye(3), k=1.0, xi=0.0, orientation=Orientation.INWARD)

    def test_rejects_non_finite_matrix(self):
        bad = np.eye(3, dtype=complex)
        bad[1, 1] = np.nan
        with pytest.raises(ValueError, match="finite"):
            ScatteringMatrix(m=bad, k=1.0, xi=0.0, orientation=Orientation.INWARD)

    @pytest.mark.parametrize("entries, message", [
        (np.full((2, 2), np.nan), r"^expected shape \(3, 3\), got \(2, 2\)$"),
        (np.ones(9), r"^expected shape \(3, 3\), got \(9,\)$"),
        (np.diag([2.0, np.inf, 1.0]), r"^matrix entries must be finite \(no NaN/Inf\)$"),
        (np.diag([2.0, 1.0, np.nan]), r"^matrix entries must be finite \(no NaN/Inf\)$"),
        (np.diag([2.0, 1.0, 1.0]), r"^scattering matrix is not unitary \(error 3\.000e\+00\)$"),
        (np.eye(3) * (1.0 + 1e-12), r"^scattering matrix is not unitary \(error 2\.000e-12\)$"),
    ], ids=["shape", "flat", "inf", "nan", "non_unitary", "just_outside"])
    def test_checks_shape_then_finiteness_then_unitarity(self, entries, message):
        # one pass, in this order: an infinite entry never reaches the unitarity
        # product, where inf * 0 would warn (numpy 2 does) before the error
        with warnings.catch_warnings(record=True) as caught, pytest.raises(ValueError, match=message):
            warnings.simplefilter("always")
            ScatteringMatrix(m=entries, k=1.0, xi=0.0, orientation=Orientation.INWARD)
        assert not caught


def reference_junction_residual(U, L0, k, xi, phi, psi, orientation=Orientation.INWARD):
    """The previous junction_residual body, which built np.eye(3) on every call."""
    if not (math.isfinite(k) and k > 0.0):
        raise ValueError(f"k must be positive and finite, got {k!r}")
    U = as_complex_matrix(U, (3, 3))
    phi = as_vec3(phi)
    psi = as_vec3(psi)
    if orientation is Orientation.INWARD:
        e_in, e_out = np.exp(1j * k * xi), np.exp(-1j * k * xi)
        big_psi = e_in * phi + e_out * psi
        big_dpsi = 1j * k * (e_in * phi - e_out * psi)
    else:
        e_in, e_out = np.exp(-1j * k * xi), np.exp(1j * k * xi)
        big_psi = e_in * phi + e_out * psi
        big_dpsi = -1j * k * (e_in * phi - e_out * psi)
    eye = np.eye(3)
    res = (U - eye) @ big_psi + 1j * L0 * (U + eye) @ big_dpsi
    return float(np.abs(res).max())


class TestJunctionResidual:
    @pytest.mark.parametrize("orientation", list(Orientation))
    def test_matches_previous_body(self, orientation):
        rng = np.random.default_rng([43, orientation is Orientation.INWARD])
        for _ in range(60):
            p = random_params(rng)
            k, xi = float(rng.uniform(0.1, 20.0)), float(rng.uniform(-2.0, 2.0))
            phi, noise = random_incoming(rng), random_incoming(rng)
            S = s_matrix(p, k, xi, orientation)
            g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            # a unitary U with psi = S phi (rounding-level residual), with a wrong psi,
            # and a non-unitary U
            for U, psi in ((build_U(p), S.m @ phi), (build_U(p), S.m @ phi + noise), (g, noise)):
                args = (U, p.L0, k, xi, phi, psi, orientation)
                assert junction_residual(*args).hex() == reference_junction_residual(*args).hex()

    def test_zero_vectors(self):
        U = build_U(JunctionParams())
        assert junction_residual(U, 1.0, 1.0, 0.0, np.zeros(3), np.zeros(3)) == 0.0

    def test_rejects_non_finite_input(self):
        U = build_U(JunctionParams())
        bad = np.array([np.nan, 0.0, 0.0], dtype=complex)
        with pytest.raises(ValueError, match="finite"):
            junction_residual(U, 1.0, 1.0, 0.0, bad, np.zeros(3))
        with pytest.raises(ValueError):
            junction_residual(U, 1.0, 0.0, 0.0, np.zeros(3), np.zeros(3))  # k = 0

    def test_identity_boundary_matrix_form(self):
        # with U = I the residual reduces to 2 L0 k * max|e^{ik xi} phi - e^{-ik xi} psi|
        rng = np.random.default_rng(15)
        U = np.eye(3, dtype=complex)
        for _ in range(20):
            L0, k, xi = rng.uniform(0.2, 3.0), rng.uniform(0.1, 5.0), rng.uniform(-1, 1)
            phi, psi = random_incoming(rng), random_incoming(rng)
            got = junction_residual(U, L0, k, xi, phi, psi)
            expected = 2 * L0 * k * np.abs(np.exp(1j * k * xi) * phi - np.exp(-1j * k * xi) * psi).max()
            assert got == pytest.approx(expected, rel=1e-12)
            closing = junction_residual(U, L0, k, xi, phi, np.exp(2j * k * xi) * phi)
            assert closing < 1e-13


class TestProbabilities:
    def test_full_reflector_is_identity(self):
        p = JunctionParams(theta=(PI, PI, PI), beta=1.1, delta=0.3)
        S = s_matrix(p, 2.0, 0.5)
        assert np.abs(probabilities(S) - np.eye(3)).max() < 1e-13

    def test_balanced_beam_splitter_row(self):
        p = JunctionParams(b=PI / 4, **BEAM_SPLITTER)
        probs = probabilities(s_matrix(p, 3.0, 0.0))
        assert probs[0, 0] == pytest.approx(0.0, abs=1e-15)
        assert probs[1, 0] == pytest.approx(0.5, abs=1e-13)
        assert probs[2, 0] == pytest.approx(0.5, abs=1e-13)

    def test_rows_and_columns_sum_to_one(self):
        rng = np.random.default_rng(16)
        for _ in range(50):
            probs = probabilities(
                s_matrix(random_params(rng), float(rng.uniform(0.1, 10)), 0.3)
            )
            assert np.abs(probs.sum(axis=0) - 1.0).max() < 1e-12
            assert np.abs(probs.sum(axis=1) - 1.0).max() < 1e-12


class TestTimeReversal:
    def test_real_rotation_angles_give_symmetric_s_matrix(self):
        rng = np.random.default_rng(18)
        for _ in range(50):
            p = random_params(rng)
            for special in ("alpha", "gamma", "a"):
                p = JunctionParams(**{**_fields(p), special: float(rng.choice([0.0, PI]))})
            assert is_time_reversal(p)
            S = s_matrix(p, float(rng.uniform(0.1, 10)), 0.4).m
            assert np.abs(S - S.T).max() < 1e-12

    def test_frozen_counterexample(self):
        assert not is_time_reversal(ASYM_INSTANCE)
        S = s_matrix(ASYM_INSTANCE, 1.7, 0.3).m
        assert np.abs(S - S.T).max() > 1e-3

    def test_diagonal_boundary_matrix(self):
        p = JunctionParams(theta=(0.3, 1.2, 4.0), alpha=0.7, gamma=2.2, a=5.0)
        assert is_time_reversal(p)  # beta = delta = b = 0 keeps U diagonal


class TestScaleInvariance:
    def test_examples(self):
        assert is_scale_invariant(JunctionParams(theta=(0.0, PI, PI)))
        assert not is_scale_invariant(JunctionParams(theta=(0.3, PI, PI)))
        assert is_scale_invariant(JunctionParams(theta=(2 * PI, PI, 3 * PI)))

    def test_exact_on_integer_multiples_of_pi(self):
        # no tolerance: every 'pi:<n>' is stored as exactly 0 or pi, gauge_shift
        # keeps them, and one ulp off pi is not scale invariant
        for n in range(-101, 102):
            p = JunctionParams(theta=(parse_angle(f"pi:{n}", "theta"), 0.0, PI), beta=0.4)
            assert is_scale_invariant(p), n
            for new_L0 in (1e-3, 0.1, 10.0, 1e3):
                assert is_scale_invariant(gauge_shift(p, new_L0)), (n, new_L0)
        for off in (math.nextafter(PI, 0.0), math.nextafter(PI, 4.0)):
            assert not is_scale_invariant(JunctionParams(theta=(0.0, off, PI)))


class TestButtikerMatrix:
    def test_b_zero(self):
        expected = np.array([[-1, 0, 0], [0, 0, 1], [0, 1, 0]], dtype=complex)
        assert np.abs(buttiker_matrix(0.0) - expected).max() == 0.0

    def test_balanced(self):
        r = 1 / math.sqrt(2)
        expected = np.array(
            [[0, r, r], [r, -0.5, 0.5], [r, 0.5, -0.5]], dtype=complex
        )
        assert np.abs(buttiker_matrix(PI / 4) - expected).max() < 1e-15

    @pytest.mark.parametrize("b", [0.0, 0.2, PI / 6, PI / 4, 1.2])
    def test_matches_node_construction(self, b):
        p = JunctionParams(b=b, **BEAM_SPLITTER)
        S = s_matrix(p, 4.2, 0.0)  # xi = 0 strips the position phase
        assert max_diff(S, buttiker_matrix(b)) < 1e-12


class TestGaugeShift:
    def test_fixed_points(self):
        p = JunctionParams(theta=(0.0, PI, 1.0), L0=1.0)
        q = gauge_shift(p, 17.0)
        assert q.theta[:2] == (0.0, PI)
        assert q.L0 == 17.0

    def test_half_pi_eigenphase_doubling(self):
        p = JunctionParams(theta=(PI / 2, PI / 2, PI / 2), L0=1.0)
        q = gauge_shift(p, 2.0)
        assert q.theta[0] == pytest.approx(2.0 * math.atan(2.0), rel=1e-14)
        for k in (0.5, 1.0, 7.0):
            assert max_diff(s_matrix(p, k, 0.3), s_matrix(q, k, 0.3)) < 1e-12

    def test_s_matrix_invariant_for_random_params(self):
        rng = np.random.default_rng(19)
        for _ in range(50):
            p = random_params(rng)
            for new_L0 in (p.L0 / 10.0, 10.0 * p.L0):
                q = gauge_shift(p, new_L0)
                k = float(rng.uniform(0.1, 15.0))
                for orientation in Orientation:
                    assert max_diff(
                        s_matrix(p, k, 0.8, orientation), s_matrix(q, k, 0.8, orientation)
                    ) < 1e-12

    def test_rejects_bad_length(self):
        with pytest.raises(ValueError):
            gauge_shift(JunctionParams(), 0.0)
        with pytest.raises(ValueError):
            gauge_shift(JunctionParams(), -2.0)


def _fields(p: JunctionParams) -> dict:
    return dict(theta=p.theta, alpha=p.alpha, beta=p.beta, gamma=p.gamma,
                delta=p.delta, a=p.a, b=p.b, L0=p.L0)
