import cmath
import math

import numpy as np
import pytest

from conftest import linear_ring_solve, random_params
from yring import (
    ANTISYMMETRIC,
    SYMMETRIC,
    AntiSymmetric,
    ConvergenceError,
    DegenerateRingError,
    General,
    JunctionParams,
    Orientation,
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
    solve_series,
    solve_symmetric_scale_invariant,
)
from yring.ring import DEGENERATE_TOL

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
        assert err.value.terms >= 4096
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


class TestSolveAlgebraicBoundState:
    """|Delta| below DEGENERATE_TOL: a bound state in the continuum, or a decoupled ring."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_symmetric_lattice_matches_closed_form(self, n):
        # The arm resonance n pi of the beam-splitter ring carries a bound
        # state that the launch does not excite: |Delta| ~ 3e-16 there.
        cfg = RingConfig(left=beam_splitter(PI / 6), mode=SYMMETRIC, xi1=1.0, xi2=0.0)
        k = n * PI
        s1, s2 = ring_matrices(cfg, k)
        m1, m2 = s1.m, s2.m
        gap = np.eye(2) - m1[1:, 1:] @ m2[1:, 1:]
        assert abs(np.linalg.det(gap)) < DEGENERATE_TOL
        amps = solve_algebraic(s1, s2)
        closed = solve_symmetric_scale_invariant(cfg, k)
        assert np.abs(amps.to_array() - closed.to_array()).max() <= 1e-15
        assert node_relation_residual(m1, m2, amps) <= 1e-15
        assert abs(amps.A) <= 1e-15 and abs(amps.F) == pytest.approx(1.0, abs=1e-15)

    def test_decoupled_wire_bound_state(self):
        # Interior wire 1 is closed at both nodes and resonates; the exterior
        # wire talks to wire 2 only, so the bound state is exactly unexcited.
        s1 = wire_rotation(0.6, wire=2)
        s2 = ScatteringMatrix(m=np.diag([1.0, 1.0, -1.0]).astype(complex), k=1.0, xi=0.0,
                              orientation=Orientation.OUTWARD)
        amps = solve_algebraic(s1, s2)
        assert node_relation_residual(s1.m, s2.m, amps) <= 1e-15
        assert amps.A == pytest.approx(1.0, abs=1e-15) and amps.F == 0.0
        assert amps.B == 0.0 and amps.C == 0.0

    def test_launch_reaching_the_null_space_raises(self):
        # The same ring with the exterior wire weakly coupled to the resonant
        # wire: |Delta| = 1e-14 and the launch has a component of 1e-7 along
        # the null direction, so the amplitudes are not determined.
        s1 = wire_rotation(1e-7, wire=1)
        s2 = ScatteringMatrix(m=np.diag([1.0, 1.0, -1.0]).astype(complex), k=1.0, xi=0.0,
                              orientation=Orientation.OUTWARD)
        with pytest.raises(DegenerateRingError, match="Delta"):
            solve_algebraic(s1, s2)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_fully_decoupled_ring_still_raises(self, n):
        # All interior directions resonate at once (gap of rank zero).
        cfg = RingConfig(left=FULL_REFLECTOR, mode=SYMMETRIC, xi1=1.0, xi2=0.0)
        with pytest.raises(DegenerateRingError, match="Delta"):
            solve_algebraic(*ring_matrices(cfg, n * PI))


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
        with pytest.raises(ValueError):
            solve_symmetric_scale_invariant(
                RingConfig(left=GENERIC_SI, mode=ANTISYMMETRIC, xi1=1, xi2=0), 1.0
            )
        with pytest.raises(ValueError):
            solve_symmetric_scale_invariant(
                RingConfig(left=JunctionParams(theta=(0.4, PI, PI)), mode=SYMMETRIC, xi1=1, xi2=0),
                1.0,
            )


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
            from yring.ring import _anti_invariants

            _, lam = _anti_invariants(reflection_core(family(beta)))
            return lam.real

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
