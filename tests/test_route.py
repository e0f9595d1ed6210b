"""The prepared per-config route of solve_auto, by the properties it keeps.

`solve_auto` takes the route choice and the node constants from a `_Route`
built once per RingConfig and repeats only the per-wavenumber arithmetic.
The node matrices it solves are `s_matrix`'s, a public closed form answers
within the grid/point contract of a 50-digit solve on every ring whose route
names that form, each rejected or degenerate wavenumber raises its message on
the point and the grid alike, and a prepared route answers as a fresh one, bit
for bit.  solve_auto and solve_grid themselves are held to the 50-digit solve
in tests/test_grid.py.
"""

import copy
import math
import pickle
import warnings

import numpy as np
import pytest

from conftest import mp_resolvent_amplitudes, random_params
from test_grid import (
    DEGENERATE_MESSAGE,
    FULL_REFLECTOR,
    NEAR_DECOUPLED_SI,
    ONE_WIRE_K,
    ONE_WIRE_RING,
    SHIPPED,
    exact_ratio,
    random_ring,
)
from test_refine import RefineCount
from yring import (
    ANTISYMMETRIC,
    SYMMETRIC,
    DegenerateRingError,
    General,
    JunctionParams,
    Orientation,
    ResonanceKind,
    RingConfig,
    find_resonances,
    ring_matrices,
    s_matrix,
    solve_antisymmetric_scale_invariant,
    solve_auto,
    solve_grid,
    solve_symmetric_scale_invariant,
)
from yring import ring
from yring.config import load_config
from yring.junction import is_scale_invariant

PI = math.pi


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


def assert_prepared_equals_fresh(cfg: RingConfig, ks) -> list:
    """solve_auto on the route kept on cfg against a fresh configuration's, bit for bit; the outcomes."""
    outcomes = []
    for k in np.asarray(ks, dtype=float).tolist():
        got = outcome(solve_auto, fresh(cfg), k)
        assert outcome(solve_auto, cfg, k) == got, k
        outcomes.append(got[0])
    return outcomes


# -- what the point route answers ---------------------------------------------------


class TestPointRoute:
    def test_full_reflector_at_pi(self):
        # U = -I decouples every wire: den = 1 - exp(2ik), degenerate exactly at pi and
        # where |den| ~ 2 |k - pi| falls below DEGENERATE_TOL = 1e-13, from 2**-45 inwards
        cfg = RingConfig(left=FULL_REFLECTOR, mode=SYMMETRIC, xi1=1.0, xi2=0.0)
        assert outcome(solve_auto, cfg, PI) == (DegenerateRingError, DEGENERATE_MESSAGE.format(k=PI))
        for j in range(10, 52):
            for k in (PI + math.ldexp(1.0, -j), PI - math.ldexp(1.0, -j)):
                assert (outcome(solve_auto, cfg, k)[0] == "ok") == (j <= 44), (j, k)

    def test_relative_singularity_test_decides(self):
        # rows that either part of _singular's threshold flags next to the closed wire's
        # bound state, which the launch does not excite: the rule solves
        # them, and they meet the 50-digit resolvent of their node matrices
        offsets = np.linspace(0.5e-13, 2e-13, 60) / 2.2
        ks = np.concatenate([ONE_WIRE_K + offsets, ONE_WIRE_K - offsets])
        assert set(assert_prepared_equals_fresh(ONE_WIRE_RING, ks)) == {"ok"}
        for k in ks.tolist():
            exact = mp_resolvent_amplitudes(*ONE_WIRE_RING._route.arrays(k))
            assert np.abs(solve_auto(ONE_WIRE_RING, k).to_array() - exact).max() <= 1e-15

    @pytest.mark.parametrize("mode", ["symmetric", "antisymmetric", "general"])
    def test_ring_matrices(self, mode):
        # the left node inward at xi1 and the right node outward at xi2, word for word;
        # the antisymmetric ring's right node is the left one with wires 1 and 2 swapped
        rng = np.random.default_rng([5, len(mode)])
        cfg = random_ring(rng, mode, False)
        right = cfg.mode.right if isinstance(cfg.mode, General) else cfg.left
        wires = [0, 2, 1] if mode == "antisymmetric" else [0, 1, 2]
        for k in rng.uniform(0.05, 30.0, 40).tolist():
            s1, s2 = ring_matrices(cfg, k)
            m2 = s_matrix(right, k, cfg.xi2, Orientation.OUTWARD).m[wires][:, wires]
            np.testing.assert_array_equal(s1.m.view(np.int64),
                                          s_matrix(cfg.left, k, cfg.xi1, Orientation.INWARD).m.view(np.int64))
            np.testing.assert_array_equal(s2.m.view(np.int64), np.ascontiguousarray(m2).view(np.int64))

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
        grid = [cfg._route.node_entries(ks)[2] for cfg in (anti, sym)]
        np.testing.assert_array_equal(grid[0].view(np.int64),
                                      np.ascontiguousarray(grid[1][relabel][:, relabel]).view(np.int64))

    @pytest.mark.parametrize("fast, forms", [(solve_symmetric_scale_invariant, ring._symmetric_forms),
                                             (solve_antisymmetric_scale_invariant, ring._antisymmetric_forms)],
                             ids=["symmetric", "antisymmetric"])
    def test_public_fast_paths(self, fast, forms):
        # a public closed form answers within contract of the 50-digit solve on each
        # ring whose route names it, and refuses every other ring
        rng = np.random.default_rng(9)
        named = 0
        for mode in ("symmetric", "antisymmetric", "general"):
            for scale_invariant in (True, False):
                cfg = random_ring(rng, mode, scale_invariant)
                ks = rng.uniform(0.05, 30.0, 20).tolist()
                if cfg._route.forms is forms:
                    named += 1
                    for k in ks:
                        assert exact_ratio(cfg, k, fast(cfg, k).to_array()) <= 1.0, (cfg, k)
                else:
                    with pytest.raises(ValueError, match="^this closed form requires "):
                        fast(cfg, ks[0])
        assert 0 < named < 6


# -- where it raises ------------------------------------------------------------------


class TestRaiseSites:
    @pytest.mark.parametrize("bad", [0.0, -1.0, -0.0, math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("mode", [SYMMETRIC, ANTISYMMETRIC, General(FULL_REFLECTOR)])
    def test_bad_wavenumbers(self, mode, bad):
        cfg = RingConfig(left=NEAR_DECOUPLED_SI, mode=mode, xi1=1.3, xi2=-0.4)
        message = f"k must be positive and finite, got {bad!r}"
        assert outcome(solve_auto, cfg, bad) == (ValueError, message)
        with pytest.raises(ValueError) as grid:
            solve_grid(cfg, [1.0, bad, 2.0])
        assert str(grid.value) == message

    @pytest.mark.parametrize("mode", [SYMMETRIC, ANTISYMMETRIC, General(FULL_REFLECTOR)])
    @pytest.mark.parametrize("L0, xi2, messages", [
        # 8e307 * 5 overflows first
        (5.0, -0.4, ["k*L0 overflows at k=8e+307, L0=5.0: the node matrix is not finite"]),
        # 2 * 8e307 * 1.3 overflows first, at the left node
        (1.0, -0.4, ["k*xi overflows in the position phase at k=8e+307, xi=1.3: the node matrix is not finite"]),
        # only at the right node, or in the arm phase of a closed form
        (1.0, -9.0, ["k*xi overflows in the position phase at k=8e+307, xi=-9.0: the node matrix is not finite",
                     "k*xi overflows in the arm phase at k=8e+307, xi1-xi2=9.05"]),
    ], ids=["5.0--0.4-k*L0", "1.0--0.4-k*xi", "1.0--9.0-k*xi"])
    def test_overflow_names_the_product(self, mode, L0, xi2, messages):
        left = JunctionParams(theta=NEAR_DECOUPLED_SI.theta, beta=0.7, delta=1.1, L0=L0)
        cfg = RingConfig(left=left, mode=mode, xi1=0.05 if xi2 < -1.0 else 1.3, xi2=xi2)
        k = 8e307
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as point:
                solve_auto(cfg, k)
            with pytest.raises(ValueError) as grid:
                solve_grid(cfg, [1.0, k, 2.0 * k])
        assert str(point.value) in messages
        assert str(grid.value) == str(point.value)

    @pytest.mark.parametrize("theta", [(0.0, PI, PI), (PI, PI, PI), (0.3, 1.9, 4.4)])
    @pytest.mark.parametrize("mode", ["symmetric", "antisymmetric", "general"])
    def test_underflow_names_the_product(self, mode, theta):
        # k*L0 = 0.4 * 5e-324 rounds to zero: rejected whether or not an
        # eigenphase is 0 (where the factor would divide 0 by 0)
        left = JunctionParams(theta=theta, beta=0.7, delta=1.1, L0=0.4)
        ring_mode = {"symmetric": SYMMETRIC, "antisymmetric": ANTISYMMETRIC, "general": General(left)}[mode]
        cfg = RingConfig(left=left, mode=ring_mode, xi1=1.3, xi2=-0.4)
        message = "k*L0 underflows to zero at k=5e-324, L0=0.4: the node matrix is not defined"
        assert outcome(solve_auto, cfg, 5e-324) == (ValueError, message)
        with pytest.raises(ValueError) as grid:
            solve_grid(cfg, [1.0, 5e-324, 1e-323])
        assert str(grid.value) == message
        # the smallest accepted wavenumber, where the ring degenerates as k*(xi1-xi2) -> 0:
        # degenerate where the grid's mask says so, else within contract of the 50-digit solve
        _, degenerate = solve_grid(cfg, [1e-323, 1.0])
        try:
            point = solve_auto(cfg, 1e-323).to_array()
        except DegenerateRingError:
            assert degenerate[0]
        else:
            assert not degenerate[0] and exact_ratio(cfg, 1e-323, point) <= 1.0

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
        # the symmetric ring, and the same node at both ends of a general ring
        for mode in (SYMMETRIC, General(FULL_REFLECTOR)):
            cfg = RingConfig(left=FULL_REFLECTOR, mode=mode, xi1=1.0, xi2=0.0)
            assert outcome(solve_auto, cfg, PI) == (DegenerateRingError, DEGENERATE_MESSAGE.format(k=PI))


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

    @pytest.mark.parametrize("scale_invariant", [True, False])
    @pytest.mark.parametrize("mode", ["symmetric", "antisymmetric", "general"])
    def test_prepared_route_answers_as_a_fresh_one(self, mode, scale_invariant):
        # the same bits, or the same error, on wavenumbers three decades apart
        for seed in (1, 2, 3):
            rng = np.random.default_rng([seed, len(mode), scale_invariant, 4])
            cfg = random_ring(rng, mode, scale_invariant)
            ks = np.concatenate([rng.uniform(0.01, 40.0, 150), [1e-3, 1e3, 1e6]])
            assert set(assert_prepared_equals_fresh(cfg, ks)) <= {"ok", DegenerateRingError}

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
