"""The prepared per-config solver against the per-point code it replaced.

`solve_auto` takes the route choice and the node constants from a `_Route`
built once per RingConfig and repeats only the per-wavenumber arithmetic.
`reference_solve_auto` below keeps the previous per-point node build, which
built everything at every call (the antisymmetric right node through the
PERM_23 products), and spells out the route choice by ring class (the
Fabry-Perot closed form for every symmetric ring, Symmetric or General with
right == left; the antisymmetric closed form for a scale-invariant node; else
the resolvent); it hands its node arrays to the library's resolvent,
`ring._resolve`.  The two must give the same node arrays, route and raw bits
(signed zeros included) and raise the same errors at the same wavenumbers.
"""

import cmath
import copy
import math
import pickle
import re
import warnings

import numpy as np
import pytest

from conftest import mp_resolvent_amplitudes, random_params
from test_grid import (
    DEGENERATE_MESSAGE,
    FULL_REFLECTOR,
    NEAR_DECOUPLED_K,
    NEAR_DECOUPLED_SI,
    NEAR_DECOUPLED_XI,
    ONE_WIRE_K,
    ONE_WIRE_RING,
    SHIPPED,
    random_ring,
)
from test_refine import RefineCount
from yring import (
    ANTISYMMETRIC,
    SYMMETRIC,
    AntiSymmetric,
    DegenerateRingError,
    General,
    JunctionParams,
    Orientation,
    ResonanceKind,
    RingAmplitudes,
    RingConfig,
    Symmetric,
    find_resonances,
    ring_matrices,
    s_matrix,
    solve_antisymmetric_scale_invariant,
    solve_auto,
    solve_grid,
    solve_symmetric_scale_invariant,
)
from yring import ring, spectrum
from yring.config import load_config
from yring.junction import _s_grid, build_V, is_scale_invariant
from yring.ring import DEGENERATE_TOL, _antisymmetric_forms, _resolve, _symmetric_forms

PI = math.pi


# -- the previous per-point solve_auto, kept as the reference -------------------

#: Interior-wire swap of the antisymmetric ring variant.
PERM_23 = np.array([[1, 0, 0], [0, 0, 1], [0, 1, 0]], dtype=complex)


def reference_node_array(p: JunctionParams, k: float, xi: float, orientation: Orientation) -> np.ndarray:
    if not (math.isfinite(k) and k > 0.0):
        raise ValueError(f"k must be positive and finite, got {k!r}")
    if not math.isfinite(xi):
        raise ValueError("xi must be finite")
    v = build_V(p)
    # (i x + s) / (i x - s) = ((x - i s) / |x - i s|)^2, i = 1j inward and -1j outward
    i = 1j if orientation is Orientation.INWARD else -1j
    d = []
    for th in p.theta:
        x = p.L0 * k * math.cos(th / 2.0)
        s = math.sin(th / 2.0)
        h = math.hypot(x, s)
        q = x / h - i * (s / h)
        d.append(q * q)
    d = np.array(d)
    sign = 2.0 if orientation is Orientation.INWARD else -2.0
    with np.errstate(invalid="ignore", over="ignore"):
        phase = np.exp(1j * sign * k * xi)
        m = phase * ((v * d) @ v.conj().T)
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite (no NaN/Inf)")
    return m


def reference_node_arrays(cfg: RingConfig, k: float) -> tuple[np.ndarray, np.ndarray]:
    m1 = reference_node_array(cfg.left, k, cfg.xi1, Orientation.INWARD)
    if isinstance(cfg.mode, General):
        return m1, reference_node_array(cfg.mode.right, k, cfg.xi2, Orientation.OUTWARD)
    m2 = reference_node_array(cfg.left, k, cfg.xi2, Orientation.OUTWARD)
    if isinstance(cfg.mode, AntiSymmetric):
        m2 = PERM_23 @ m2 @ PERM_23
    return m1, m2


def reference_solve_auto(cfg: RingConfig, k: float) -> RingAmplitudes:
    if isinstance(cfg.mode, Symmetric) or cfg.mode == General(cfg.left):
        forms = _symmetric_forms  # any node: the right one is the left one's adjoint
    elif isinstance(cfg.mode, AntiSymmetric) and is_scale_invariant(cfg.left):
        forms = _antisymmetric_forms
    else:
        return _resolve(*reference_node_arrays(cfg, k), k)
    m = reference_node_array(cfg.left, k, cfg.xi1, Orientation.INWARD)
    den, amplitudes = forms(m.tolist(), cmath.exp(2j * k * cfg.dxi))
    if abs(den) < DEGENERATE_TOL:
        raise DegenerateRingError(DEGENERATE_MESSAGE.format(k=k))
    return RingAmplitudes(*amplitudes())


# -- helpers ----------------------------------------------------------------------


def outcome(solve, cfg: RingConfig, k: float):
    """Raw bits of the amplitudes, or the exception type and message."""
    try:
        amps = solve(cfg, k).to_array()
    except (ArithmeticError, ValueError) as exc:
        return type(exc), str(exc)
    return "ok", amps.view(np.int64).tolist()


def fresh(cfg: RingConfig) -> RingConfig:
    """An equal configuration that has not prepared its solver yet."""
    return RingConfig(left=cfg.left, mode=cfg.mode, xi1=cfg.xi1, xi2=cfg.xi2)


def assert_same_as_reference(cfg: RingConfig, ks) -> list:
    outcomes = []
    for k in np.asarray(ks, dtype=float).tolist():
        got = outcome(solve_auto, fresh(cfg), k)
        assert outcome(solve_auto, cfg, k) == got  # the route kept on cfg
        assert outcome(reference_solve_auto, cfg, k) == got, k
        outcomes.append(got[0])
    return outcomes


LONG_GENERAL_RING = RingConfig(
    left=random_params(np.random.default_rng(7)),
    mode=General(random_params(np.random.default_rng(8))),
    xi1=25.0,
    xi2=0.5,
)


# -- bit identity -----------------------------------------------------------------


class TestBitIdentity:
    @pytest.mark.parametrize("scale_invariant", [True, False])
    @pytest.mark.parametrize("mode", ["symmetric", "antisymmetric", "general"])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_random_rings(self, mode, scale_invariant, seed):
        rng = np.random.default_rng([seed, len(mode), scale_invariant, 4])
        cfg = random_ring(rng, mode, scale_invariant)
        ks = np.concatenate([rng.uniform(0.01, 40.0, 150), [1e-3, 1e3, 1e6]])
        assert set(assert_same_as_reference(cfg, ks)) <= {"ok", DegenerateRingError}

    @pytest.mark.parametrize("mode", [SYMMETRIC, ANTISYMMETRIC, General(NEAR_DECOUPLED_SI)])
    def test_nearly_decoupled_node(self, mode):
        cfg = RingConfig(left=NEAR_DECOUPLED_SI, mode=mode, **NEAR_DECOUPLED_XI)
        k = NEAR_DECOUPLED_K
        assert_same_as_reference(cfg, np.concatenate([[k], k + np.linspace(-1e-4, 1e-4, 81)]))

    def test_full_reflector_at_pi(self):
        cfg = RingConfig(left=FULL_REFLECTOR, mode=SYMMETRIC, xi1=1.0, xi2=0.0)
        ks = np.concatenate([[PI], PI + np.ldexp(1.0, -np.arange(10, 52)), PI - np.ldexp(1.0, -np.arange(10, 52))])
        outcomes = assert_same_as_reference(cfg, ks)
        assert outcomes[0] is DegenerateRingError and "ok" in outcomes

    def test_relative_singularity_test_decides(self):
        # rows that either part of _singular's threshold flags next to the closed wire's
        # bound state, which the launch does not excite: the rule solves
        # them, and they meet the 50-digit resolvent of their node matrices
        offsets = np.linspace(0.5e-13, 2e-13, 60) / 2.2
        ks = np.concatenate([ONE_WIRE_K + offsets, ONE_WIRE_K - offsets])
        assert set(assert_same_as_reference(ONE_WIRE_RING, ks)) == {"ok"}
        for k in ks.tolist():
            exact = mp_resolvent_amplitudes(*ONE_WIRE_RING._route.arrays(k))
            assert np.abs(solve_auto(ONE_WIRE_RING, k).to_array() - exact).max() <= 1e-15

    @pytest.mark.parametrize("mode", ["symmetric", "antisymmetric", "general"])
    def test_ring_matrices(self, mode):
        rng = np.random.default_rng([5, len(mode)])
        cfg = random_ring(rng, mode, False)
        for k in rng.uniform(0.05, 30.0, 40).tolist():
            s1, s2 = ring_matrices(cfg, k)
            m1, m2 = reference_node_arrays(cfg, k)
            np.testing.assert_array_equal(s1.m.view(np.int64), m1.view(np.int64))
            np.testing.assert_array_equal(s2.m.view(np.int64), m2.view(np.int64))

    @pytest.mark.parametrize("left", [
        ONE_WIRE_RING.left,  # V mixes wires 0 and 1 only
        JunctionParams(theta=(0.9, 2.4, 4.1)),  # V = I: a diagonal node
        JunctionParams(theta=(0.9, 2.4, 4.1), delta=0.7),
        random_params(np.random.default_rng(12)),
    ], ids=["one_wire", "diagonal", "delta_only", "random"])
    def test_antisymmetric_right_node_is_relabelled(self, left):
        # word for word, signed zeros of the exact-zero entries included
        anti = RingConfig(left=left, mode=ANTISYMMETRIC, xi1=1.3, xi2=0.2)
        sym = RingConfig(left=left, mode=SYMMETRIC, xi1=1.3, xi2=0.2)
        relabel = [0, 2, 1]
        ks = np.linspace(0.05, 30.0, 301)
        for k in ks[::10].tolist():
            m2 = ring_matrices(sym, k)[1].m
            np.testing.assert_array_equal(ring_matrices(anti, k)[1].m.view(np.int64),
                                          np.ascontiguousarray(m2[relabel][:, relabel]).view(np.int64))
        grid = [_s_grid(cfg._route.right, ks, cfg.xi2, Orientation.OUTWARD)[1] for cfg in (anti, sym)]
        np.testing.assert_array_equal(grid[0].view(np.int64),
                                      np.ascontiguousarray(grid[1][relabel][:, relabel]).view(np.int64))

    def test_s_matrix(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            p = random_params(rng)
            k, xi = float(rng.uniform(0.05, 30.0)), float(rng.uniform(-3.0, 3.0))
            for orientation in Orientation:
                np.testing.assert_array_equal(
                    s_matrix(p, k, xi, orientation).m.view(np.int64),
                    reference_node_array(p, k, xi, orientation).view(np.int64),
                )

    @pytest.mark.parametrize("mode, fast", [(SYMMETRIC, solve_symmetric_scale_invariant),
                                            (ANTISYMMETRIC, solve_antisymmetric_scale_invariant)])
    def test_public_fast_paths(self, mode, fast):
        rng = np.random.default_rng(9)
        cfg = RingConfig(left=random_params(rng, scale_invariant=True), mode=mode, xi1=1.7, xi2=0.3)
        for k in rng.uniform(0.05, 30.0, 60).tolist():
            assert outcome(fast, cfg, k) == outcome(reference_solve_auto, cfg, k)


class TestFindResonances:
    CASES = [(load_config(path).ring, 0.3, 12.0) for path in SHIPPED] + [
        (RingConfig(left=NEAR_DECOUPLED_SI, mode=ANTISYMMETRIC, **NEAR_DECOUPLED_XI), 0.5, 9.0),
        (RingConfig(left=NEAR_DECOUPLED_SI, mode=SYMMETRIC, **NEAR_DECOUPLED_XI), 0.5, 9.0),
        (LONG_GENERAL_RING, 1.0, 3.0),
    ]

    @pytest.mark.parametrize("kind", list(ResonanceKind))
    @pytest.mark.parametrize("case", range(len(CASES)))
    def test_refine_equals_reference_refine(self, case, kind, monkeypatch):
        cfg, k_min, k_max = self.CASES[case]
        found = find_resonances(fresh(cfg), k_min, k_max, kind)
        monkeypatch.setattr(spectrum, "solve_auto", reference_solve_auto)
        assert find_resonances(fresh(cfg), k_min, k_max, kind) == found


class TestRaiseSites:
    @pytest.mark.parametrize("bad", [0.0, -1.0, -0.0, math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("mode", [SYMMETRIC, ANTISYMMETRIC, General(FULL_REFLECTOR)])
    def test_bad_wavenumbers(self, mode, bad):
        cfg = RingConfig(left=NEAR_DECOUPLED_SI, mode=mode, xi1=1.3, xi2=-0.4)
        got = outcome(solve_auto, cfg, bad)
        assert got[0] is ValueError and got == outcome(reference_solve_auto, cfg, bad)

    @pytest.mark.parametrize("mode", [SYMMETRIC, ANTISYMMETRIC, General(FULL_REFLECTOR)])
    @pytest.mark.parametrize("L0, xi2, product", [
        (5.0, -0.4, "k*L0"),  # 8e307 * 5 overflows first
        (1.0, -0.4, "k*xi"),  # 2 * 8e307 * 1.3 overflows first
        (1.0, -9.0, "k*xi"),  # only at the right node, or in the arm phase of the closed forms
    ])
    def test_overflow_names_the_product(self, mode, L0, xi2, product):
        left = JunctionParams(theta=NEAR_DECOUPLED_SI.theta, beta=0.7, delta=1.1, L0=L0)
        cfg = RingConfig(left=left, mode=mode, xi1=0.05 if xi2 < -1.0 else 1.3, xi2=xi2)
        k = 8e307
        expected = outcome(reference_solve_auto, cfg, k)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=rf"^{re.escape(product)} overflows") as point:
                solve_auto(cfg, k)
            with pytest.raises(ValueError) as grid:
                solve_grid(cfg, [1.0, k, 2.0 * k])
        assert expected[0] is ValueError
        assert str(grid.value) == str(point.value)

    @pytest.mark.parametrize("theta", [(0.0, PI, PI), (PI, PI, PI), (0.3, 1.9, 4.4)])
    @pytest.mark.parametrize("mode", ["symmetric", "antisymmetric", "general"])
    def test_underflow_names_the_product(self, mode, theta):
        # k*L0 = 0.4 * 5e-324 rounds to zero: rejected whether or not an
        # eigenphase is 0 (where the reference divided 0 by 0)
        left = JunctionParams(theta=theta, beta=0.7, delta=1.1, L0=0.4)
        ring_mode = {"symmetric": SYMMETRIC, "antisymmetric": ANTISYMMETRIC, "general": General(left)}[mode]
        cfg = RingConfig(left=left, mode=ring_mode, xi1=1.3, xi2=-0.4)
        message = "k*L0 underflows to zero at k=5e-324, L0=0.4: the node matrix is not defined"
        assert outcome(solve_auto, cfg, 5e-324) == (ValueError, message)
        with pytest.raises(ValueError) as grid:
            solve_grid(cfg, [1.0, 5e-324, 1e-323])
        assert str(grid.value) == message
        # the smallest wavenumber accepted before is still accepted (the ring
        # degenerates as k*(xi1-xi2) -> 0), on both routes
        expected = outcome(reference_solve_auto, cfg, 1e-323)
        assert outcome(solve_auto, cfg, 1e-323) == expected
        _, degenerate = solve_grid(cfg, [1e-323, 1.0])
        assert degenerate[0] == (expected[0] is DegenerateRingError)

    def test_grid_names_the_first_rejected_wavenumber(self):
        # k = 6e307 overflows only the right node (xi2 = -9), k = 1e308 only the
        # left one (L0 = 2): the grid reports the first of them, as a
        # per-point loop would
        cfg = RingConfig(left=JunctionParams(L0=2.0), mode=General(JunctionParams()), xi1=0.05, xi2=-9.0)
        ks = [1.0, 6e307, 1e308]
        with pytest.raises(ValueError) as point:
            solve_auto(cfg, 6e307)
        assert str(point.value).startswith("k*xi overflows")
        with pytest.raises(ValueError) as grid:
            solve_grid(cfg, ks)
        assert str(grid.value) == str(point.value)
        with pytest.raises(ValueError, match="k must be positive"):
            solve_grid(cfg, [1.0, -1.0, 1e308])

    def test_degenerate_messages(self):
        cfg = RingConfig(left=FULL_REFLECTOR, mode=SYMMETRIC, xi1=1.0, xi2=0.0)
        assert outcome(solve_auto, cfg, PI) == outcome(reference_solve_auto, cfg, PI)
        assert outcome(solve_auto, cfg, PI)[0] is DegenerateRingError
        general = RingConfig(left=FULL_REFLECTOR, mode=General(FULL_REFLECTOR), xi1=1.0, xi2=0.0)
        got = outcome(solve_auto, general, PI)
        assert got[0] is DegenerateRingError and got == outcome(reference_solve_auto, general, PI)


# -- the prepared part is per config and invisible ---------------------------------


class TestPreparedOnce:
    @pytest.mark.parametrize("mode", [SYMMETRIC, ANTISYMMETRIC])
    def test_is_scale_invariant_count_does_not_grow_with_probes(self, mode, monkeypatch):
        calls = []

        def counting(p):
            calls.append(p)
            return is_scale_invariant(p)

        monkeypatch.setattr(ring, "is_scale_invariant", counting)
        probes = RefineCount(monkeypatch)
        left = JunctionParams(theta=(0.0, PI, PI), beta=0.9, delta=0.4, gamma=1.3)
        counts = []
        for k_max in (4.0, 16.0):
            del calls[:]
            probes.reset()
            find_resonances(RingConfig(left=left, mode=mode, xi1=1.0, xi2=0.0), 0.5, k_max,
                            ResonanceKind.PERFECT_REFLECTION if mode == ANTISYMMETRIC
                            else ResonanceKind.PERFECT_TRANSMISSION)
            counts.append((len(calls), sum(probes.grid_rows) + len(probes.points)))
        (calls_small, work_small), (calls_large, work_large) = counts
        assert work_large > 2 * work_small > 0  # kernel rows and point probes
        assert calls_small == calls_large <= 5

    def test_solve_auto_prepares_once(self, monkeypatch):
        built = []
        original = ring._Route.__init__

        def counting_init(self, cfg):
            built.append(cfg)
            original(self, cfg)

        monkeypatch.setattr(ring._Route, "__init__", counting_init)
        cfg = fresh(load_config(SHIPPED[0]).ring)
        for k in np.linspace(0.5, 9.0, 50).tolist():
            solve_auto(cfg, k)
        solve_grid(cfg, np.linspace(0.5, 9.0, 50))
        ring_matrices(cfg, 1.3)
        assert built == [cfg]

    @pytest.mark.parametrize("path", SHIPPED, ids=lambda p: p.stem)
    def test_config_stays_a_plain_value(self, path):
        cfg = load_config(path).ring
        untouched = fresh(cfg)
        pickled = pickle.dumps(untouched)
        before = solve_auto(cfg, 1.3).to_array()
        find_resonances(cfg, 3.0, 4.5, ResonanceKind.PERFECT_REFLECTION)
        assert "_route" in vars(cfg) and "_minima" in vars(cfg)
        assert cfg == untouched and hash(cfg) == hash(untouched) and repr(cfg) == repr(untouched)
        assert pickle.dumps(cfg) == pickled
        for clone in (pickle.loads(pickle.dumps(cfg)), copy.copy(cfg), copy.deepcopy(cfg)):
            assert clone == cfg and hash(clone) == hash(cfg)
            assert "_route" not in vars(clone) and "_minima" not in vars(clone)
            np.testing.assert_array_equal(solve_auto(clone, 1.3).to_array().view(np.int64), before.view(np.int64))
