import cmath
import dataclasses
import math

import numpy as np
import pytest

from conftest import linear_ring_solve, mp_resolvent_amplitudes, random_params
from test_grid import CONFIG_DIR, DEGENERATE_MESSAGE, ONE_WIRE_K, ONE_WIRE_RING, contract_ratios
from yring import (
    ANTISYMMETRIC,
    SYMMETRIC,
    AntiSymmetric,
    ConvergenceError,
    DegenerateRingError,
    General,
    JunctionParams,
    Orientation,
    RingAmplitudes,
    RingConfig,
    ScatteringMatrix,
    Symmetric,
    build_U,
    flux_defect,
    junction_residual,
    perfect_transmission_target,
    reflection_core,
    ring_matrices,
    s_matrix,
    solve_algebraic,
    solve_antisymmetric_scale_invariant,
    solve_auto,
    solve_closed_form,
    solve_grid,
    solve_series,
    solve_symmetric_scale_invariant,
)
from yring.config import load_config
from yring.ring import (
    DEGENERATE_TOL,
    _ROUNDING,
    _SERIES_DOUBLING_THRESHOLD,
    _algebraic_grid,
    _amplitudes,
    _resolve,
    _resolvent_forms,
    _singular,
    _solved_grid,
)
from yring.smallmat import max_norm

PI = math.pi

BEAM_SPLITTER = dict(theta=(0.0, PI, PI), alpha=0.0, beta=3 * PI / 2, gamma=PI, delta=PI / 4, a=0.0)

#: Scale-invariant node with nonzero interior couplings and a non-degenerate
#: swap denominator; its antisymmetric ring shows perfect reflection.
GENERIC_SI = JunctionParams(
    theta=(PI, 0.0, PI),
    alpha=1.643758,
    beta=1.875475,
    gamma=5.115931,
    delta=0.577525,
    a=3.770543,
    b=4.577681,
)

#: Scale-invariant node whose antisymmetric transmission target lies outside [-1, 1].
NO_TARGET_SI = JunctionParams(
    theta=(0.0, PI, 0.0),
    alpha=3.21587,
    beta=5.97194,
    gamma=0.905782,
    delta=5.96054,
    a=1.959295,
    b=2.659839,
)

FULL_REFLECTOR = JunctionParams(theta=(PI, PI, PI), beta=0.8, delta=1.9)

#: Nearly decoupled scale-invariant node (|h11| = 0.99996) on a long arm: its
#: antisymmetric ring at NEAR_DECOUPLED_K sits in a narrow line where
#: |det(I - s s~)| = 5.8e-6 and the interior amplitudes reach about 120.
NEAR_DECOUPLED_SI = JunctionParams(
    theta=(0.0, 0.0, PI),
    alpha=2.449000130684714,
    beta=1.4797401392661587,
    gamma=4.436587033332203,
    delta=3.093836498631062,
    a=2.260307483563785,
    b=2.2453003850227615,
    L0=1.6876893831786663,
)
NEAR_DECOUPLED_XI = dict(xi1=6.272473373531876, xi2=0.48038018688212514)
NEAR_DECOUPLED_K = 4.061309927365186


def beam_splitter(b: float) -> JunctionParams:
    return JunctionParams(b=b, **BEAM_SPLITTER)


def assert_matches_resolvent_near_singularity(cfg: RingConfig, k: float, fast) -> float:
    """Compare a fast-path answer with the resolvent where I - s s~ is nearly singular.

    A and F are bounded by flux and must agree absolutely; B..E grow like
    1/|det|, so their tolerance does too.  Both answers must satisfy the node
    condition at both nodes.  Returns |det(I - s s~)|.
    """
    s1, s2 = ring_matrices(cfg, k)
    det = abs(np.linalg.det(np.eye(2) - s1.m[1:, 1:] @ s2.m[1:, 1:]))
    ref = solve_closed_form(s1, s2).to_array()
    fast = fast.to_array()
    diff = np.abs(fast - ref)
    assert diff[[0, 5]].max() < 1e-9
    assert diff[1:5].max() < 1e-12 / det
    U = build_U(cfg.left)
    swapped = isinstance(cfg.mode, AntiSymmetric)
    for A, B, C, D, E, F in (fast, ref):
        tol = 1e-10 * max(1.0, abs(B), abs(C), abs(D), abs(E))
        assert junction_residual(U, cfg.left.L0, k, cfg.xi1, [1, C, E], [A, B, D]) < tol
        into, out = ([0, D, B], [F, E, C]) if swapped else ([0, B, D], [F, C, E])
        assert junction_residual(U, cfg.left.L0, k, cfg.xi2, into, out, Orientation.OUTWARD) < tol
    return det


def random_ring(rng, mode_cycle: int):
    left = random_params(rng)
    if mode_cycle % 3 == 0:
        mode = SYMMETRIC
    elif mode_cycle % 3 == 1:
        mode = ANTISYMMETRIC
    else:
        mode = General(right=random_params(rng))
    xi2 = float(rng.uniform(-1.0, 1.0))
    xi1 = xi2 + float(rng.uniform(0.1, 3.0))
    return RingConfig(left=left, mode=mode, xi1=xi1, xi2=xi2)


class TestRingConfig:
    def test_rejects_bad_positions(self):
        with pytest.raises(ValueError):
            RingConfig(left=JunctionParams(), mode=SYMMETRIC, xi1=0.0, xi2=0.0)
        with pytest.raises(ValueError):
            RingConfig(left=JunctionParams(), mode=SYMMETRIC, xi1=-1.0, xi2=2.0)

    @pytest.mark.parametrize("xi1, xi2", [(math.inf, 0.0), (1.0, -math.inf), (math.nan, 0.0), (1.0, math.nan)])
    def test_rejects_non_finite_positions(self, xi1, xi2):
        with pytest.raises(ValueError) as err:
            RingConfig(left=JunctionParams(), mode=SYMMETRIC, xi1=xi1, xi2=xi2)
        assert str(err.value) == "node positions must be finite"

    def test_rejects_unknown_mode_object(self):
        with pytest.raises(ValueError) as err:
            RingConfig(left=JunctionParams(), mode="symmetric", xi1=1.0, xi2=0.0)
        assert str(err.value) == "unknown symmetry mode 'symmetric'"

    def test_reflection_core_rejects_a_node_that_is_not_scale_invariant(self):
        with pytest.raises(ValueError) as err:
            reflection_core(JunctionParams(theta=(0.0, PI, 1.0)))
        assert str(err.value) == "reflection_core requires a scale-invariant node"

    def test_mode_variants(self):
        cfg = RingConfig(left=JunctionParams(), mode=General(right=FULL_REFLECTOR), xi1=1, xi2=0)
        assert isinstance(cfg.mode, General)
        assert cfg.dxi == 1.0


class TestRingMatrices:
    def test_symmetric_scale_invariant_relation(self):
        # right matrix equals the dagger of the left one up to the arm phase
        cfg = RingConfig(left=GENERIC_SI, mode=SYMMETRIC, xi1=1.3, xi2=0.2)
        for k in (0.7, 2.9, 11.0):
            s1, s2 = ring_matrices(cfg, k)
            expected = np.exp(2j * k * cfg.dxi) * s1.m.conj().T
            assert np.abs(s2.m - expected).max() < 1e-12

    def test_antisymmetric_equals_symmetric_for_swap_symmetric_node(self):
        left = beam_splitter(PI / 6)
        k = 1.4
        sym = ring_matrices(RingConfig(left=left, mode=SYMMETRIC, xi1=1, xi2=0), k)
        anti = ring_matrices(RingConfig(left=left, mode=ANTISYMMETRIC, xi1=1, xi2=0), k)
        assert np.abs(sym[1].m - anti[1].m).max() < 1e-14

    def test_general_with_same_node_equals_symmetric(self):
        rng = np.random.default_rng(21)
        left = random_params(rng)
        k = 2.2
        sym = ring_matrices(RingConfig(left=left, mode=SYMMETRIC, xi1=0.9, xi2=-0.4), k)
        gen = ring_matrices(RingConfig(left=left, mode=General(right=left), xi1=0.9, xi2=-0.4), k)
        assert np.abs(sym[1].m - gen[1].m).max() == 0.0

    def test_identities_for_scale_invariant_symmetric_ring(self):
        cfg = RingConfig(left=GENERIC_SI, mode=SYMMETRIC, xi1=0.8, xi2=-0.3)
        k = 3.7
        s1, s2 = ring_matrices(cfg, k)
        eye = np.eye(3)
        assert np.abs(s1.m @ s1.m.conj().T - eye).max() < 1e-12
        assert np.abs(s2.m @ s2.m.conj().T - eye).max() < 1e-12
        assert np.abs(s1.m @ s1.m - np.exp(4j * k * cfg.xi1) * eye).max() < 1e-12
        assert np.abs(s2.m @ s2.m - np.exp(-4j * k * cfg.xi2) * eye).max() < 1e-12
        assert np.abs(s2.m - np.exp(2j * k * cfg.dxi) * s1.m.conj().T).max() < 1e-12


class TestSolveClosedForm:
    def test_fully_reflecting_nodes(self):
        cfg = RingConfig(left=FULL_REFLECTOR, mode=SYMMETRIC, xi1=1.0, xi2=0.0)
        k = 1.15
        amps = solve_closed_form(*ring_matrices(cfg, k))
        assert amps.A == pytest.approx(-cmath.exp(2j * k * cfg.xi1), abs=1e-13)
        assert abs(amps.F) < 1e-13
        assert abs(amps.B) < 1e-13 and abs(amps.C) < 1e-13

    def test_balanced_beam_splitter_transmits_everything(self):
        cfg = RingConfig(left=beam_splitter(PI / 4), mode=SYMMETRIC, xi1=1.0, xi2=0.0)
        for k in (0.5, 1.1, 4.4, 9.3):
            amps = solve_closed_form(*ring_matrices(cfg, k))
            assert abs(amps.A) < 1e-13
            assert abs(abs(amps.F) - 1.0) < 1e-13

    def test_matches_algebraic_on_random_rings(self):
        rng = np.random.default_rng(22)
        for i in range(100):
            cfg = random_ring(rng, i)
            k = float(rng.uniform(0.1, 20.0))
            s1, s2 = ring_matrices(cfg, k)
            diff = np.abs(
                solve_closed_form(s1, s2).to_array() - solve_algebraic(s1, s2).to_array()
            ).max()
            assert diff < 1e-12

    def test_degenerate_ring_raises(self):
        cfg = RingConfig(left=FULL_REFLECTOR, mode=SYMMETRIC, xi1=1.0, xi2=0.0)
        with pytest.raises(DegenerateRingError):
            solve_closed_form(*ring_matrices(cfg, PI))  # arm phase hits unity


def determinant(gap: np.ndarray) -> complex:
    return gap[0, 0] * gap[1, 1] - gap[0, 1] * gap[1, 0]


def arrays_with_gap(rng, gap: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Node arrays (not unitary) whose interior blocks give I - s s~ = gap, with s~ = I."""
    m1 = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    m2 = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    m1[1:, 1:] = np.eye(2) - gap
    m2[1:, 1:] = np.eye(2)
    return m1, m2


def entries(gap: np.ndarray) -> tuple:
    """The four entries (g00, g01, g10, g11) of a 2x2 gap, or of a (2, 2, n) stack of them."""
    return gap[0, 0], gap[0, 1], gap[1, 0], gap[1, 1]


def assembled(m1: np.ndarray, m2: np.ndarray, v: np.ndarray) -> np.ndarray:
    """A..F of the node arrays m1, m2 with v = (I - s s~)^-1 (s21, s31)."""
    return np.array(_amplitudes(m1.tolist(), m2.tolist(), v.tolist()))


class TestSingular:
    """ring._singular: the one singularity test of the resolvent, on the point and grid routes."""

    def test_identity_gap(self):
        eye = np.eye(2, dtype=complex)
        assert not _singular(entries(eye), determinant(eye))
        # s s~ = 0: the resolvent is the identity, exactly
        m1, m2 = arrays_with_gap(np.random.default_rng(3), eye)
        got = _resolve(m1, m2, 1.0).to_array()
        assert np.array_equal(got, assembled(m1, m2, m1[1:, 0]))

    def test_matches_gauss_elimination_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            gap = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            assert not _singular(entries(gap), determinant(gap))
            m1, m2 = arrays_with_gap(rng, gap)
            gap = np.eye(2) - m1[1:, 1:] @ m2[1:, 1:]
            expected = assembled(m1, m2, np.linalg.solve(gap, m1[1:, 0]))
            got = _resolve(m1, m2, 1.0).to_array()
            assert np.abs(got - expected).max() < 1e-12 * max(1.0, np.abs(expected).max())

    def test_rejects_singular(self):
        singular = [np.array([[1.0, 2.0], [0.5, 1.0]], dtype=complex), np.zeros((2, 2), dtype=complex)]
        for gap in singular:
            assert _singular(entries(gap), determinant(gap))
        # elementwise on a stack of gaps (2, 2, n), as the grid route calls it
        gaps = np.stack(singular + [np.eye(2, dtype=complex), np.array([[1.0, 0.5], [2.0, 1.0 + 5e-14]])], axis=-1)
        assert _singular(entries(gaps), determinant(gaps)).tolist() == [True, True, False, True]

    def test_stacked_mask_equals_each_gap(self):
        # the grid route's one call on (2, 2, n) against one call per gap, on
        # nearly rank-one gaps from 1e-16 to 10 whose determinants straddle
        # the threshold, and on diagonal gaps whose largest entry sits on
        # either side of 1 with |det| on either side of the threshold.  The
        # reference is the two-part test that the one threshold replaced,
        # |det| < 1e-13 or |det| <= 1e-13 * largest**2: the two differ only
        # where |det| is exactly 1e-13 and every entry is below 1
        def two_part(gap, det):
            return abs(det) < 1e-13 or abs(det) <= 1e-13 * max_norm(gap) ** 2

        rng = np.random.default_rng(41)
        n = 4000
        u = rng.normal(size=(2, n)) + 1j * rng.normal(size=(2, n))
        v = rng.normal(size=(2, n)) + 1j * rng.normal(size=(2, n))
        gaps = u[:, None, :] * v[None, :, :] * 10.0 ** rng.uniform(-8.0, 0.5, n)
        gaps[[0, 1], [0, 1]] += 10.0 ** rng.uniform(-16.0, -11.0, (2, n))
        edges = [np.diag([big, DEGENERATE_TOL * max(1.0, big * big) / big * (1.0 + j * np.finfo(float).eps)])
                 for big in (0.5, np.nextafter(1.0, 0.0), 1.0, np.nextafter(1.0, 2.0), 2.0)
                 for j in range(-3, 4)]
        gaps = np.concatenate([gaps, np.stack(edges, axis=-1).astype(complex)], axis=-1)
        mask = _singular(entries(gaps), determinant(gaps))
        expected, differ = [], 0
        for gap in np.moveaxis(gaps, -1, 0):
            det = determinant(gap)
            one = _singular(entries(gap), det)
            on_threshold = abs(det) == DEGENERATE_TOL and max_norm(gap) < 1.0
            assert one == (two_part(gap, det) or on_threshold)
            expected.append(bool(one))
            differ += on_threshold
        assert mask.tolist() == expected
        assert differ >= 1  # diag(0.5, 2e-13)
        sizes = np.abs(determinant(gaps))
        assert 100 < mask.sum() < n - 100
        assert (mask & (sizes > DEGENERATE_TOL)).sum() > 10  # the relative part decides these
        assert (mask & (sizes < DEGENERATE_TOL)).sum() > 10

    def test_gap_on_the_threshold_keeps_the_route_amplitudes(self):
        # |det| exactly DEGENERATE_TOL with every entry below 1: the one gap
        # that the one threshold flags and the two-part test did not.  Its
        # smallest singular value (2e-13) is above _ROUNDING, so the rule
        # keeps the resolvent's own amplitudes.
        gap = np.array([[0.0, -0.5], [2e-13, 0.0]], dtype=complex)  # I - gap is exact
        assert abs(determinant(gap)) == DEGENERATE_TOL and max_norm(gap) < 1.0
        assert np.linalg.svd(gap, compute_uv=False)[1] > _ROUNDING
        m1, m2 = arrays_with_gap(np.random.default_rng(9), gap)
        singular, amplitudes = _resolvent_forms(m1.tolist(), m2.tolist())
        assert singular
        np.testing.assert_allclose(_resolve(m1, m2, 1.5).to_array(), amplitudes(), rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("gap, absolute", [
        (np.array([[1.0, 0.5], [2.0, 1.0 + 1e-14]], dtype=complex), True),  # |det| = 1.0e-14
        (np.array([[8.0, 8.0], [8.0, 8.0 + 1.5e-14]], dtype=complex), False),  # |det| = 1.1e-13, max entry 8
    ], ids=["absolute", "relative"])
    def test_each_threshold_names_itself(self, gap, absolute):
        # a gap below the absolute bound DEGENERATE_TOL and one above it that
        # the relative part of _singular's threshold flags: the rule raises
        # with the one message on both, singular to working precision
        det = abs(determinant(gap))
        assert (det < DEGENERATE_TOL) == absolute and det <= DEGENERATE_TOL * max(1.0, max_norm(gap) ** 2)
        assert np.linalg.svd(gap, compute_uv=False)[1] <= _ROUNDING
        m1, m2 = arrays_with_gap(np.random.default_rng(8), gap)
        with pytest.raises(DegenerateRingError) as err:
            _resolve(m1, m2, 1.5)
        assert str(err.value) == DEGENERATE_MESSAGE.format(k=1.5)

    def test_gap_entries_bounded_by_two(self):
        # unitary nodes bound every entry of I - s s~ by 2, so max_norm(gap)**2 <= 4:
        # _singular cannot flag a gap whose |det| > 4 * DEGENERATE_TOL
        rng = np.random.default_rng(2026)
        rings = [random_ring(rng, i) for i in range(150)]
        for i in range(150):
            left = random_params(rng, scale_invariant=True)
            mode = (SYMMETRIC, ANTISYMMETRIC, General(random_params(rng, scale_invariant=True)))[i % 3]
            rings.append(RingConfig(left=left, mode=mode, xi1=float(rng.uniform(0.1, 3.0)), xi2=0.0))
        for mode in (SYMMETRIC, ANTISYMMETRIC):
            rings += [RingConfig(left=NEAR_DECOUPLED_SI, mode=mode, **NEAR_DECOUPLED_XI)] * 20
            rings += [RingConfig(left=FULL_REFLECTOR, mode=mode, xi1=1.0, xi2=0.0)] * 20
        largest = 0.0
        for cfg in rings:
            for k in rng.uniform(0.05, 30.0, 8).tolist():
                s1, s2 = ring_matrices(cfg, k)
                largest = max(largest, max_norm(np.eye(2) - s1.m[1:, 1:] @ s2.m[1:, 1:]))
        assert 1.9 < largest <= 2.0 + 1e-12


class TestSolveSeries:
    def test_fully_reflecting_converges_in_one_term(self):
        cfg = RingConfig(left=FULL_REFLECTOR, mode=SYMMETRIC, xi1=1.0, xi2=0.0)
        amps, terms = solve_series(*ring_matrices(cfg, 2.3))
        assert terms == 1
        assert amps.A == pytest.approx(-cmath.exp(2j * 2.3), abs=1e-13)
        assert abs(amps.F) < 1e-15  # launch vector is pure rounding noise

    def test_term_count_for_quarter_reflection(self):
        # |s11|^2 = 1/4 makes the bounce series a clean geometric sequence
        left = beam_splitter(PI / 6)
        cfg = RingConfig(left=left, mode=SYMMETRIC, xi1=1.0, xi2=0.0)
        s1, s2 = ring_matrices(cfg, 1.3)
        assert abs(s1.m[0, 0]) ** 2 == pytest.approx(0.25, abs=1e-12)
        amps, terms = solve_series(s1, s2, tol=1e-10)
        assert 15 <= terms <= 20
        ref = solve_closed_form(s1, s2)
        assert np.abs(amps.to_array() - ref.to_array()).max() < 1e-9

    def test_agreement_with_closed_form(self):
        rng = np.random.default_rng(24)
        for i in range(60):
            cfg = random_ring(rng, i)
            k = float(rng.uniform(0.1, 20.0))
            s1, s2 = ring_matrices(cfg, k)
            amps, _ = solve_series(s1, s2, tol=1e-12, max_terms=2**24)
            ref = solve_closed_form(s1, s2)
            assert np.abs(amps.to_array() - ref.to_array()).max() < 1e-11

    def test_convergence_failure_carries_partial_result(self):
        cfg = RingConfig(left=beam_splitter(PI / 6), mode=SYMMETRIC, xi1=1.0, xi2=0.0)
        s1, s2 = ring_matrices(cfg, 1.3)
        with pytest.raises(ConvergenceError) as err:
            solve_series(s1, s2, tol=1e-10, max_terms=5)
        assert err.value.terms == 5
        assert err.value.bound > 1e-10
        # partial sum should already be in the right neighbourhood
        ref = solve_closed_form(s1, s2)
        assert np.abs(err.value.partial.to_array() - ref.to_array()).max() < 0.01

    def test_convergence_failure_in_doubling_phase(self):
        # couplings of ~1e-6 put the bounce decay rate at ~1e-12 per term
        left = JunctionParams(theta=(PI, PI, PI - 2.05e-6), beta=1.1, delta=0.7, b=2.2)
        cfg = RingConfig(left=left, mode=SYMMETRIC, xi1=1.0, xi2=0.0)
        s1, s2 = ring_matrices(cfg, 2.0)
        with pytest.raises(ConvergenceError) as err:
            solve_series(s1, s2, tol=1e-12, max_terms=2**20)
        assert err.value.terms >= _SERIES_DOUBLING_THRESHOLD
        assert err.value.bound > 1e-12

    def test_rejects_bad_arguments(self):
        cfg = RingConfig(left=FULL_REFLECTOR, mode=SYMMETRIC, xi1=1.0, xi2=0.0)
        s1, s2 = ring_matrices(cfg, 2.0)
        with pytest.raises(ValueError):
            solve_series(s1, s2, tol=0.0)
        with pytest.raises(ValueError):
            solve_series(s1, s2, max_terms=0)


class TestSolveAlgebraic:
    def test_fully_reflecting_nodes(self):
        cfg = RingConfig(left=FULL_REFLECTOR, mode=SYMMETRIC, xi1=1.0, xi2=0.0)
        k = 0.77
        amps = solve_algebraic(*ring_matrices(cfg, k))
        assert amps.A == pytest.approx(-cmath.exp(2j * k), abs=1e-13)
        for z in (amps.B, amps.C, amps.D, amps.E, amps.F):
            assert abs(z) < 1e-13

    def test_matches_direct_linear_solve(self):
        rng = np.random.default_rng(25)
        for i in range(100):
            cfg = random_ring(rng, i)
            k = float(rng.uniform(0.1, 20.0))
            s1, s2 = ring_matrices(cfg, k)
            oracle = linear_ring_solve(s1.m, s2.m)
            got = solve_algebraic(s1, s2).to_array()
            assert np.abs(got - oracle).max() < 1e-12


def node_relation_residual(s1: np.ndarray, s2: np.ndarray, amps) -> float:
    """Largest defect of the two node relations: S1 (1, C, E) = (A, B, D), S2 (0, B, D) = (F, C, E)."""
    a, b, c, d, e, f = amps.to_array()
    left = s1 @ np.array([1.0, c, e]) - np.array([a, b, d])
    right = s2 @ np.array([0.0, b, d]) - np.array([f, c, e])
    return float(max(np.abs(left).max(), np.abs(right).max()))


def wire_rotation(eta: float, wire: int) -> ScatteringMatrix:
    """Unitary node coupling the exterior wire to one interior wire by the angle eta."""
    m = np.eye(3, dtype=complex)
    c, s = math.cos(eta), math.sin(eta)
    m[0, 0], m[0, wire], m[wire, 0], m[wire, wire] = c, -s, s, c
    return ScatteringMatrix(m=m, k=1.0, xi=0.0, orientation=Orientation.INWARD)


def on_grid(cfg: RingConfig, k: float) -> RingAmplitudes:
    """solve_grid's row at the one wavenumber k; DegenerateRingError where it flags the row."""
    amps, degenerate = solve_grid(cfg, [k])
    if degenerate[0]:
        raise DegenerateRingError(f"solve_grid flags k={k!r}")
    return RingAmplitudes(*amps[0])


#: Every route that solves a ring at one wavenumber: the resolvent and the
#: algebraic elimination on its node matrices, solve_auto and solve_grid.
ROUTES = {
    "closed_form": lambda cfg, k: solve_closed_form(*ring_matrices(cfg, k)),
    "algebraic": lambda cfg, k: solve_algebraic(*ring_matrices(cfg, k)),
    "auto": solve_auto,
    "grid": on_grid,
}

#: The routes that take node matrices no RingConfig builds.
MATRIX_ROUTES = (solve_closed_form, solve_algebraic)


def smallest_singular_value(s1: ScatteringMatrix, s2: ScatteringMatrix) -> float:
    return np.linalg.svd(np.eye(2) - s1.m[1:, 1:] @ s2.m[1:, 1:], compute_uv=False)[1]


class TestSolveAlgebraicBoundState:
    """The one singular-gap rule, ring._solved_grid, on every route.

    Where _singular flags I - s s~, a bound state in the continuum that the
    launch does not excite is solved on the gap's range; a launch that
    reaches the null direction, or a fully decoupled ring, raises.
    """

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_symmetric_lattice_matches_closed_form(self, n):
        # The arm resonance n pi of the beam-splitter ring carries a bound
        # state that the launch does not excite: |Delta| ~ 3e-16 there.  As a
        # general ring (right node = left node) it takes the resolvent on
        # every route.
        node = beam_splitter(PI / 6)
        cfg = RingConfig(left=node, mode=General(node), xi1=1.0, xi2=0.0)
        k = n * PI
        s1, s2 = ring_matrices(cfg, k)
        assert abs(np.linalg.det(np.eye(2) - s1.m[1:, 1:] @ s2.m[1:, 1:])) < DEGENERATE_TOL
        closed = solve_symmetric_scale_invariant(dataclasses.replace(cfg, mode=SYMMETRIC), k).to_array()
        for name, solve in ROUTES.items():
            amps = solve(cfg, k)
            assert np.abs(amps.to_array() - closed).max() <= 1e-15, name
            assert node_relation_residual(s1.m, s2.m, amps) <= 1e-15, name
            assert abs(amps.A) <= 1e-15 and abs(amps.F) == pytest.approx(1.0, abs=1e-15), name

    def test_decoupled_wire_bound_state(self):
        # Interior wire 1 is closed at both nodes and resonates; the exterior
        # wire talks to wire 2 only, so the bound state is exactly unexcited.
        s1 = wire_rotation(0.6, wire=2)
        s2 = ScatteringMatrix(m=np.diag([1.0, 1.0, -1.0]).astype(complex), k=1.0, xi=0.0,
                              orientation=Orientation.OUTWARD)
        for solve in MATRIX_ROUTES:
            amps = solve(s1, s2)
            assert node_relation_residual(s1.m, s2.m, amps) <= 1e-15
            assert amps.A == pytest.approx(1.0, abs=1e-15) and amps.F == 0.0
            assert amps.B == 0.0 and amps.C == 0.0
        # The same as a ring: wire 2 of ONE_WIRE_RING is closed at both nodes
        # and resonates at ONE_WIRE_K.  The 50-digit resolvent of its node
        # matrices stays finite there, as the launch has no wire-2 component.
        s1, s2 = ring_matrices(ONE_WIRE_RING, ONE_WIRE_K)
        assert smallest_singular_value(s1, s2) <= _ROUNDING
        exact = mp_resolvent_amplitudes(s1.m, s2.m)
        for name, solve in ROUTES.items():
            assert np.abs(solve(ONE_WIRE_RING, ONE_WIRE_K).to_array() - exact).max() <= 1e-15, name

    def test_launch_reaching_the_null_space_raises(self):
        # The same ring with the exterior wire weakly coupled to the resonant
        # wire: |Delta| = 1e-14 and the launch has a component of 1e-7 along
        # the null direction, so the amplitudes are not determined.
        s1 = wire_rotation(1e-7, wire=1)
        s2 = ScatteringMatrix(m=np.diag([1.0, 1.0, -1.0]).astype(complex), k=1.0, xi=0.0,
                              orientation=Orientation.OUTWARD)
        for solve in MATRIX_ROUTES:
            with pytest.raises(DegenerateRingError) as err:
                solve(s1, s2)
            assert str(err.value) == DEGENERATE_MESSAGE.format(k=1.0)
        # As a ring: ONE_WIRE_RING's closed wire coupled to the exterior wire
        # by delta = 1e-8 (generator 5 mixes wires 0 and 2), at the float
        # nearest its resonance.
        cfg = dataclasses.replace(ONE_WIRE_RING, left=dataclasses.replace(ONE_WIRE_RING.left, delta=1e-8))
        k = math.nextafter(ONE_WIRE_K, 0.0)
        assert smallest_singular_value(*ring_matrices(cfg, k)) <= _ROUNDING
        for solve in ROUTES.values():
            with pytest.raises(DegenerateRingError):
                solve(cfg, k)

    @pytest.mark.parametrize("wire", [0, 1])
    def test_null_direction_reaching_the_exterior_raises(self, wire):
        # Node arrays (not unitary) with I - s s~ = diag(1, 0) and the launch
        # (1, 0) on the gap's range: the null direction is not excited, but
        # it reaches A through the left node (wire 0) or F through the right
        # one (wire 1), so that amplitude is not determined.
        m1, m2 = np.zeros((3, 3), dtype=complex), np.zeros((3, 3), dtype=complex)
        m1[2, 2] = m1[1, 0] = m2[1, 1] = m2[2, 2] = 1.0
        (m1 if wire == 0 else m2)[0, 2] = 0.5
        with pytest.raises(DegenerateRingError) as err:
            _resolve(m1, m2, 1.0)
        assert str(err.value) == DEGENERATE_MESSAGE.format(k=1.0)
        with np.errstate(all="ignore"):
            s, t = m1[..., None], m2[..., None]
            assert _solved_grid(s, t, *_resolvent_forms(s, t))[1].tolist() == [True]
            assert _algebraic_grid(s, t)[1].tolist() == [False]

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_fully_decoupled_ring_still_raises(self, n):
        # All interior directions resonate at once (gap of rank zero): on the
        # symmetric ring's closed form and, as a general ring, the resolvent.
        for mode in (SYMMETRIC, General(FULL_REFLECTOR)):
            cfg = RingConfig(left=FULL_REFLECTOR, mode=mode, xi1=1.0, xi2=0.0)
            for solve in ROUTES.values():
                with pytest.raises(DegenerateRingError):
                    solve(cfg, n * PI)
        # Nodes that reflect every wire into itself: I - s s~ = 0 exactly and
        # no launch, where the range solve would divide 0 by 0.
        eye = np.eye(3, dtype=complex)
        pair = (ScatteringMatrix(m=eye, k=n * PI, xi=0.0, orientation=Orientation.INWARD),
                ScatteringMatrix(m=eye, k=n * PI, xi=0.0, orientation=Orientation.OUTWARD))
        for solve in MATRIX_ROUTES:
            with pytest.raises(DegenerateRingError) as err:
                solve(*pair)
            assert str(err.value) == DEGENERATE_MESSAGE.format(k=n * PI)


class TestFluxConservation:
    def test_unit_flux_splits_between_exterior_wires(self):
        rng = np.random.default_rng(26)
        for i in range(100):
            cfg = random_ring(rng, i)
            k = float(rng.uniform(0.1, 20.0))
            amps = solve_closed_form(*ring_matrices(cfg, k))
            assert flux_defect(amps) < 1e-10


class TestSymmetricFastPath:
    def test_matches_general_solver(self):
        rng = np.random.default_rng(27)
        for _ in range(50):
            left = random_params(rng, scale_invariant=True)
            xi2 = float(rng.uniform(-1.0, 1.0))
            cfg = RingConfig(left=left, mode=SYMMETRIC, xi1=xi2 + float(rng.uniform(0.1, 3.0)), xi2=xi2)
            k = float(rng.uniform(0.1, 20.0))
            fast = solve_symmetric_scale_invariant(cfg, k)
            ref = solve_closed_form(*ring_matrices(cfg, k))
            assert np.abs(fast.to_array() - ref.to_array()).max() < 1e-12
        # nearly decoupled node: the line at g = 1 has width eps = 1 - |h11|^2;
        # sample it at half maximum and thirty widths out, where |det| is 5e-6
        cfg = RingConfig(left=NEAR_DECOUPLED_SI, mode=SYMMETRIC, **NEAR_DECOUPLED_XI)
        eps = 1.0 - abs(reflection_core(cfg.left)[0, 0]) ** 2
        assert eps <= 2e-4
        dets = []
        for widths in (1.0, 30.0):
            k = 7 * PI / cfg.dxi + widths * eps / (2.0 * cfg.dxi)
            fast = solve_symmetric_scale_invariant(cfg, k)
            dets.append(assert_matches_resolvent_near_singularity(cfg, k, fast))
        assert dets[0] < 1e-7 and 1e-6 < dets[1] < 1e-5

    def test_perfect_transmission_at_arm_resonance(self):
        cfg = RingConfig(left=beam_splitter(PI / 6), mode=SYMMETRIC, xi1=1.5, xi2=0.5)
        for n in (1, 2, 3):
            amps = solve_symmetric_scale_invariant(cfg, n * PI / cfg.dxi)
            assert abs(amps.A) < 1e-10
            assert abs(abs(amps.F) - 1.0) < 1e-10

    def test_decoupled_node_never_transmits(self):
        cfg = RingConfig(left=FULL_REFLECTOR, mode=SYMMETRIC, xi1=1.0, xi2=0.0)
        for k in (0.4, 1.9, 5.1):
            amps = solve_symmetric_scale_invariant(cfg, k)
            assert abs(amps.F) < 1e-15  # launch vector is pure rounding noise
            assert abs(abs(amps.A) - 1.0) < 1e-13

    def test_eigenrelation_of_bounce_block(self):
        rng = np.random.default_rng(28)
        for _ in range(50):
            left = random_params(rng, scale_invariant=True)
            cfg = RingConfig(left=left, mode=SYMMETRIC, xi1=1.1, xi2=-0.2)
            k = float(rng.uniform(0.1, 15.0))
            s1, s2 = ring_matrices(cfg, k)
            s, st = s1.m[1:, 1:], s2.m[1:, 1:]
            w = s1.m[1:, 0]
            lam = np.exp(2j * k * cfg.dxi) * abs(s1.m[0, 0]) ** 2
            assert np.abs(s @ st @ w - lam * w).max() < 1e-12

    def test_requires_symmetric_scale_invariant(self):
        # the name is historical: the closed form takes every symmetric ring,
        # scale invariant or not, in both spellings, and only symmetric rings
        generic = JunctionParams(theta=(0.4, PI, PI))
        for mode in (SYMMETRIC, General(generic)):
            cfg = RingConfig(left=generic, mode=mode, xi1=1, xi2=0)
            np.testing.assert_array_equal(solve_symmetric_scale_invariant(cfg, 1.0).to_array(),
                                          solve_auto(cfg, 1.0).to_array())
        with pytest.raises(ValueError, match="requires a symmetric ring"):
            solve_symmetric_scale_invariant(RingConfig(left=GENERIC_SI, mode=ANTISYMMETRIC, xi1=1, xi2=0), 1.0)
        with pytest.raises(ValueError, match="requires a symmetric ring"):
            solve_symmetric_scale_invariant(RingConfig(left=generic, mode=General(GENERIC_SI), xi1=1, xi2=0), 1.0)


class TestAntisymmetricFastPath:
    def test_matches_general_solver(self):
        rng = np.random.default_rng(29)
        checked = 0
        while checked < 50:
            left = random_params(rng, scale_invariant=True)
            xi2 = float(rng.uniform(-1.0, 1.0))
            cfg = RingConfig(left=left, mode=ANTISYMMETRIC, xi1=xi2 + float(rng.uniform(0.1, 3.0)), xi2=xi2)
            k = float(rng.uniform(0.1, 20.0))
            try:
                fast = solve_antisymmetric_scale_invariant(cfg, k)
                ref = solve_closed_form(*ring_matrices(cfg, k))
            except DegenerateRingError:
                continue
            assert np.abs(fast.to_array() - ref.to_array()).max() < 1e-12
            checked += 1
        cfg = RingConfig(left=NEAR_DECOUPLED_SI, mode=ANTISYMMETRIC, **NEAR_DECOUPLED_XI)
        assert abs(reflection_core(cfg.left)[0, 0]) >= 0.9999
        fast = solve_antisymmetric_scale_invariant(cfg, NEAR_DECOUPLED_K)
        det = assert_matches_resolvent_near_singularity(cfg, NEAR_DECOUPLED_K, fast)
        assert 1e-6 < det < 1e-5
        assert abs(fast.B) > 100.0

    def test_perfect_reflection_at_arm_resonance(self):
        cfg = RingConfig(left=GENERIC_SI, mode=ANTISYMMETRIC, xi1=2.0, xi2=1.0)
        for n in (1, 2, 3):
            amps = solve_antisymmetric_scale_invariant(cfg, n * PI / cfg.dxi)
            assert abs(amps.F) < 1e-10
            assert abs(abs(amps.A) - 1.0) < 1e-10

    def test_zero_interior_coupling_kills_transmission(self):
        # a pure axis-1/3 rotation leaves wire 2 decoupled from wire 1
        left = JunctionParams(theta=(0.0, PI, PI), delta=0.8)
        assert abs(s_matrix(left, 1.0, 0.0).m[1, 0]) < 1e-15
        cfg = RingConfig(left=left, mode=ANTISYMMETRIC, xi1=1.0, xi2=0.0)
        for k in (0.3, 1.0, 2.6):
            amps = solve_antisymmetric_scale_invariant(cfg, k)
            assert abs(amps.F) < 1e-13

    def test_requires_antisymmetric_scale_invariant(self):
        with pytest.raises(ValueError):
            solve_antisymmetric_scale_invariant(
                RingConfig(left=GENERIC_SI, mode=SYMMETRIC, xi1=1, xi2=0), 1.0
            )


class TestPerfectTransmissionTarget:
    def test_generic_node_closes_the_loop(self):
        cfg = RingConfig(left=GENERIC_SI, mode=ANTISYMMETRIC, xi1=1.0, xi2=0.0)
        target = perfect_transmission_target(cfg)
        assert target.status == "ok"
        assert target.c_star is not None and abs(target.c_star) <= 1.0
        half = math.acos(target.c_star)
        for n in (0, 1, 2):
            k = (half + 2.0 * PI * n) / (2.0 * cfg.dxi)
            if k <= 0:
                continue
            amps = solve_antisymmetric_scale_invariant(cfg, k)
            assert abs(amps.A) < 1e-8

    def test_out_of_range_target(self):
        cfg = RingConfig(left=NO_TARGET_SI, mode=ANTISYMMETRIC, xi1=1.0, xi2=0.0)
        target = perfect_transmission_target(cfg)
        assert target.status == "out_of_range"
        assert target.c_star is None

    def test_degenerate_when_exterior_reflection_vanishes(self):
        cfg = RingConfig(left=beam_splitter(PI / 4), mode=ANTISYMMETRIC, xi1=1.0, xi2=0.0)
        target = perfect_transmission_target(cfg)
        assert target.status == "degenerate"
        assert target.c_star is None

    def test_zero_coupling_combination_gives_quarter_period_target(self):
        # bisect one Euler angle until the coupling combination crosses zero;
        # the target then sits at cos = 0, i.e. quarter-period arm phases
        def family(beta: float) -> JunctionParams:
            return JunctionParams(
                theta=(PI, 0.0, PI),
                alpha=4.937237,
                beta=beta,
                gamma=4.614896,
                delta=4.468242,
                a=5.856304,
                b=0.722143,
            )

        def lam_real(beta: float) -> float:
            from yring.ring import _anti_lambda, _anti_trace

            h = reflection_core(family(beta))
            return _anti_lambda(h, _anti_trace(h)).real

        lo, hi = 0.1548, 0.2596
        assert lam_real(lo) * lam_real(hi) < 0
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if lam_real(lo) * lam_real(mid) <= 0:
                hi = mid
            else:
                lo = mid
        left = family(0.5 * (lo + hi))
        cfg = RingConfig(left=left, mode=ANTISYMMETRIC, xi1=1.0, xi2=0.0)
        target = perfect_transmission_target(cfg)
        assert target.status == "ok"
        assert abs(target.c_star) < 1e-12
        amps = solve_antisymmetric_scale_invariant(cfg, (PI / 2) / (2.0 * cfg.dxi))
        assert abs(amps.A) < 1e-8

    def test_requires_antisymmetric_mode(self):
        with pytest.raises(ValueError):
            perfect_transmission_target(
                RingConfig(left=GENERIC_SI, mode=SYMMETRIC, xi1=1.0, xi2=0.0)
            )


class TestThreeWayAgreement:
    def test_all_solvers_and_oracle_agree(self):
        rng = np.random.default_rng(30)
        for i in range(150):
            cfg = random_ring(rng, i)
            k = float(rng.uniform(0.1, 20.0))
            s1, s2 = ring_matrices(cfg, k)
            closed = solve_closed_form(s1, s2).to_array()
            series, _ = solve_series(s1, s2, tol=1e-12, max_terms=2**26)
            algebraic = solve_algebraic(s1, s2).to_array()
            oracle = linear_ring_solve(s1.m, s2.m)
            series = series.to_array()
            assert np.abs(closed - series).max() < 1e-10
            assert np.abs(closed - algebraic).max() < 1e-10
            assert np.abs(series - algebraic).max() < 1e-10
            assert np.abs(closed - oracle).max() < 1e-10


def general_ring_pairs() -> dict:
    """Pairs of the shipped general ring's node matrices that are not one ring at one k."""
    cfg = load_config(CONFIG_DIR / "general_ring.json").ring
    s1, s2 = ring_matrices(cfg, 1.3)
    _, t2 = ring_matrices(cfg, 2.9)
    return {
        "wavenumbers": (s1, t2),
        "swapped": (s2, s1),
        "both_inward": (s1, dataclasses.replace(s2, orientation=Orientation.INWARD)),
        "both_outward": (dataclasses.replace(s1, orientation=Orientation.OUTWARD), s2),
    }


class TestNodePair:
    @pytest.mark.parametrize("mismatch", ["wavenumbers", "swapped", "both_inward", "both_outward"])
    @pytest.mark.parametrize("solve", [solve_closed_form, solve_series, solve_algebraic],
                             ids=lambda f: f.__name__)
    def test_rejects_a_pair_that_is_not_a_ring(self, solve, mismatch):
        with pytest.raises(ValueError, match=r"^a ring needs an INWARD and an OUTWARD matrix at one k, got "):
            solve(*general_ring_pairs()[mismatch])


class TestSolveAuto:
    def test_uses_fast_path_at_symmetric_resonance(self):
        cfg = RingConfig(left=beam_splitter(PI / 6), mode=SYMMETRIC, xi1=1.0, xi2=0.0)
        amps = solve_auto(cfg, PI)  # the resolvent is singular here; fast path is not
        assert abs(amps.A) < 1e-10
        assert abs(abs(amps.F) - 1.0) < 1e-10

    def test_near_decoupled_ring_takes_one_route(self):
        # no second solve: the fast-path answer comes back as computed
        cfg = RingConfig(left=NEAR_DECOUPLED_SI, mode=ANTISYMMETRIC, **NEAR_DECOUPLED_XI)
        fast = solve_antisymmetric_scale_invariant(cfg, NEAR_DECOUPLED_K)
        assert np.array_equal(solve_auto(cfg, NEAR_DECOUPLED_K).to_array(), fast.to_array())

    def test_general_mode_dispatch(self):
        rng = np.random.default_rng(31)
        cfg = random_ring(rng, 2)
        assert isinstance(cfg.mode, General)
        k = 1.9
        direct = solve_closed_form(*ring_matrices(cfg, k))
        assert np.abs(solve_auto(cfg, k).to_array() - direct.to_array()).max() == 0.0

    def test_near_scale_invariant_node_meets_the_reference(self):
        # Scale invariance is exact, so this node takes the resolvent, off by
        # 4.7e-16; the antisymmetric closed form, which models the node as
        # scale invariant, was off by 2.5e-8.
        left = JunctionParams(theta=(PI - 3.5e-10, PI + 8.7e-10, -2.7e-10), alpha=3.01, beta=1.0037,
                              gamma=4.6155, delta=0.7142, a=2.4582, b=3.2468, L0=0.96)
        cfg = RingConfig(left=left, mode=ANTISYMMETRIC, xi1=1.3, xi2=0.2)
        assert cfg._route.forms is None
        k = 4.1
        exact = mp_resolvent_amplitudes(*cfg._route.arrays(k))
        assert np.abs(solve_auto(cfg, k).to_array() - exact).max() <= 1e-12

    def test_near_scale_invariant_corpus_meets_the_reference(self):
        # 40 antisymmetric rings whose eigenphases lie within 1e-9 of 0 or pi,
        # none on them, at 3 wavenumbers each: the point and the grid route
        # meet the 50-digit solve within the grid contract
        rng = np.random.default_rng([32, 40])
        for _ in range(40):
            centres = rng.choice([0.0, PI], size=3)
            offsets = rng.uniform(1e-11, 1e-9, size=3) * rng.choice([-1.0, 1.0], size=3)
            left = dataclasses.replace(random_params(rng), theta=tuple(centres + offsets))
            xi2 = float(rng.uniform(-2.0, 1.0))
            cfg = RingConfig(left=left, mode=ANTISYMMETRIC, xi1=xi2 + float(rng.uniform(0.1, 3.0)), xi2=xi2)
            ks = rng.uniform(0.01, 5.0, 3)
            exact = np.array([mp_resolvent_amplitudes(*cfg._route.arrays(k)) for k in ks.tolist()])
            points = np.array([solve_auto(cfg, k).to_array() for k in ks.tolist()])
            for got in (points, solve_grid(cfg, ks)[0]):
                assert (contract_ratios(cfg, ks, got, exact) <= 1.0).all(), cfg
