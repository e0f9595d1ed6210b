"""The grid kernel against the per-point solver, under the grid/point contract.

`solve_grid` takes `solve_auto`'s route through the same formulas in numpy
complex arithmetic.  It must flag exactly the wavenumbers where `solve_auto`
raises DegenerateRingError.  Every other row must lie within
CONTRACT * eps / min(|det|, 1) of `solve_auto`, det being det(I - s s~) of the
point route's node matrices (squared on the antisymmetric closed form, whose
formulas are less well conditioned, ROADMAP item 2), and sampled rows must
lie within the same bound of a 50-digit solve of those node matrices.

The sweep CSV is the '%.17g' rendering of the kernel's arrays, the same
bytes from run to run, with no row lost or moved at the kernel's and the
renderer's block boundaries; the resonance scan's column equals
solve_grid's word for word.
"""

import cmath
import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest

from conftest import mp_resolvent_amplitudes, random_params
from yring import (
    ANTISYMMETRIC,
    SYMMETRIC,
    AntiSymmetric,
    DegenerateRingError,
    General,
    JunctionParams,
    ResonanceKind,
    RingConfig,
    ScatteringMatrix,
    build_U,
    find_resonances,
    is_scale_invariant,
    junction_residual,
    ring_matrices,
    solve_algebraic,
    solve_auto,
    solve_grid,
    solve_symmetric_scale_invariant,
)
from yring import cli, ring, spectrum
from yring.cli import CSV_HEADER, main
from yring.config import load_config
from yring.junction import Orientation, _Node, _residual, _s_array, _s_grid
from yring.ring import (
    _ROUNDING,
    DEGENERATE_TOL,
    GRID_BLOCK,
    _algebraic_forms,
    _algebraic_grid,
    _amplitudes,
    _bounce,
    _resolvent_forms,
    _solve_grid_columns,
    _solved_grid,
)
from yring.smallmat import max_norm

PI = math.pi
EPS = np.finfo(float).eps
CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
SHIPPED = sorted(CONFIG_DIR.glob("*.json"))

#: The contract's multiple of eps / min(|det|, 1).
CONTRACT = 256

#: Largest entry error allowed a batched product of modulus-1 entries.
PRODUCT_TOL = 16 * EPS

FULL_REFLECTOR = JunctionParams(theta=(PI, PI, PI), beta=0.8, delta=1.9)

#: Nearly decoupled scale-invariant node (|h11| = 0.99996), as in test_ring.
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

#: General ring whose interior wire 2 is decoupled at both nodes (V only
#: mixes wires 0 and 1); the closed wire resonates at ONE_WIRE_K, with slope
#: d|det(I - s s~)|/dk of about 2.2 there.
ONE_WIRE_RING = RingConfig(
    left=JunctionParams(theta=(0.9, 2.4, 4.1), beta=1.1, L0=0.8),
    mode=General(JunctionParams(theta=(1.6, 3.3, 5.2), beta=0.45, L0=1.4)),
    xi1=1.3,
    xi2=0.2,
)
ONE_WIRE_K = 2.287970761502012

#: Scale-invariant nodes written as General(right=left), and its exact lines
#: n pi / dxi below k = 200: on the resolvent each holds a bound state that the
#: launch does not excite, and the rule's test of that sits on its threshold
#: _ROUNDING.  The ring is symmetric, so solve_auto takes the closed form.
THRESHOLD_NODE = JunctionParams(theta=(PI, PI, 0.0), alpha=3.8633115730540464, beta=1.956334924468528,
                                gamma=2.323476302389803, delta=6.246294336638115, a=3.5847807347104754,
                                b=2.996578291768716, L0=4.006256411519654)
THRESHOLD_RING = RingConfig(left=THRESHOLD_NODE, mode=General(THRESHOLD_NODE),
                            xi1=0.684855428549233, xi2=-0.6539076563124029)
THRESHOLD_LINES = np.arange(1, math.floor(200.0 * THRESHOLD_RING.dxi / PI) + 1) * PI / THRESHOLD_RING.dxi

#: The one message of DegenerateRingError, on every route.
DEGENERATE_MESSAGE = "ring is degenerate at k={k!r}: I - s s~ is singular and the amplitudes are not determined"


def per_point(cfg, ks):
    """The reference: solve_auto at each wavenumber, NaN rows where it is degenerate."""
    amps = np.empty((len(ks), 6), dtype=complex)
    degenerate = np.zeros(len(ks), dtype=bool)
    for i, k in enumerate(np.asarray(ks, dtype=float).tolist()):
        try:
            amps[i] = solve_auto(cfg, k).to_array()
        except DegenerateRingError:
            amps[i] = complex(math.nan, math.nan)
            degenerate[i] = True
    return amps, degenerate


def rule_by_row(m1, m2):
    """The singular-gap rule on one row's node matrices, on numpy scalars.

    Returns A..F where the rule solves on the gap's range, else "kept" (the
    route's own amplitudes stand) or "degenerate".
    """
    u, sv, vh = np.linalg.svd(np.eye(2) - np.reshape(_bounce(m1, m2), (2, 2)))
    launch, null = m1[1:, 0], vh[1].conj()
    reach = max(abs(m2[0, 1:] @ null), abs(m1[0, 1:] @ m2[1:, 1:] @ null))
    if sv[0] > _ROUNDING >= reach and abs(u[:, 1].conj() @ launch) <= _ROUNDING * np.linalg.norm(launch):
        return np.array(_amplitudes(m1, m2, vh[0].conj() * ((u[:, 0].conj() @ launch) / sv[0])))
    return "kept" if sv[1] > _ROUNDING else "degenerate"


def contract_bound(cfg, k: float) -> float:
    """The largest error the contract allows a row at k: CONTRACT * eps / min(|det|, 1)**power."""
    m1, m2 = cfg._route.arrays(k)
    gap = np.eye(2) - m1[1:, 1:] @ m2[1:, 1:]
    scale = min(abs(gap[0, 0] * gap[1, 1] - gap[0, 1] * gap[1, 0]), 1.0)
    power = 2 if isinstance(cfg.mode, AntiSymmetric) and is_scale_invariant(cfg.left) else 1
    return CONTRACT * EPS / scale**power if scale > 0.0 else math.inf


def contract_ratios(cfg, ks, amps, reference) -> np.ndarray:
    """Each row's largest error against reference, in units of its contract bound."""
    bounds = np.array([contract_bound(cfg, k) for k in np.asarray(ks, dtype=float).tolist()])
    return np.abs(amps - reference).max(axis=1) / bounds


def assert_within_contract(cfg, ks, samples: int = 4):
    """solve_grid against solve_auto on every row, and against the 50-digit reference on a few."""
    ks = np.asarray(ks, dtype=float)
    amps, degenerate = solve_grid(cfg, ks)
    ref_amps, ref_degenerate = per_point(cfg, ks)
    np.testing.assert_array_equal(degenerate, ref_degenerate)
    assert np.isnan(amps[degenerate]).all()
    rows = np.flatnonzero(~degenerate)
    ratios = contract_ratios(cfg, ks[rows], amps[rows], ref_amps[rows])
    assert (ratios <= 1.0).all(), f"row {rows[np.argmax(ratios)]}: {ratios.max():.3g} x the bound of solve_auto"
    sampled = rows[np.unique(np.linspace(0, rows.size - 1, min(samples, rows.size)).astype(int))]
    exact = np.array([mp_resolvent_amplitudes(*cfg._route.arrays(k)) for k in ks[sampled].tolist()])
    ratios = contract_ratios(cfg, ks[sampled], amps[sampled], exact.reshape(-1, 6))
    assert (ratios <= 1.0).all(), f"{ratios.max():.3g} x the bound of the 50-digit reference"
    return degenerate


def random_ring(rng, mode: str, scale_invariant: bool) -> RingConfig:
    left = random_params(rng, scale_invariant=scale_invariant)
    if mode == "general":
        ring_mode = General(random_params(rng, scale_invariant=scale_invariant))
    else:
        ring_mode = SYMMETRIC if mode == "symmetric" else ANTISYMMETRIC
    xi2 = float(rng.uniform(-2.0, 1.0))
    return RingConfig(left=left, mode=ring_mode, xi1=xi2 + float(rng.uniform(0.1, 3.0)), xi2=xi2)


class TestSolveGrid:
    @pytest.mark.parametrize("scale_invariant", [True, False])
    @pytest.mark.parametrize("mode", ["symmetric", "antisymmetric", "general"])
    @pytest.mark.parametrize("seed", [1, 2])
    def test_random_rings_match_solve_auto(self, mode, scale_invariant, seed):
        rng = np.random.default_rng([seed, len(mode), scale_invariant])
        cfg = random_ring(rng, mode, scale_invariant)
        # more than two blocks, ending inside the third
        ks = np.linspace(float(rng.uniform(0.05, 1.0)), float(rng.uniform(5.0, 40.0)), 2 * GRID_BLOCK + 37)
        assert_within_contract(cfg, ks)

    @pytest.mark.parametrize("mode", [SYMMETRIC, ANTISYMMETRIC])
    def test_nearly_decoupled_node(self, mode):
        cfg = RingConfig(left=NEAR_DECOUPLED_SI, mode=mode, **NEAR_DECOUPLED_XI)
        k = NEAR_DECOUPLED_K
        ks = np.concatenate([[k], k + np.linspace(-1e-3, 1e-3, 301), np.linspace(0.3, 12.0, 400)])
        assert_within_contract(cfg, ks)

    def test_symmetric_full_reflector_degenerates_at_pi(self):
        cfg = RingConfig(left=FULL_REFLECTOR, mode=SYMMETRIC, xi1=1.0, xi2=0.0)
        degenerate = assert_within_contract(cfg, np.linspace(PI / 2, 3 * PI / 2, 3))
        assert degenerate.tolist() == [False, True, False]
        ks = np.concatenate([np.linspace(0.5, PI, 200), PI + np.ldexp(1.0, -np.arange(10, 52))])
        assert assert_within_contract(cfg, ks).any()

    def test_general_all_pi_ring_degenerates_at_grid_end(self):
        right = JunctionParams(theta=(PI, PI, PI), alpha=0.3, beta=2.1, delta=0.4)
        cfg = RingConfig(left=FULL_REFLECTOR, mode=General(right), xi1=1.5, xi2=0.25)
        ks = np.linspace(0.5, 2 * PI / cfg.dxi, 777)  # ends on m pi / dxi with m = 2
        assert assert_within_contract(cfg, ks)[-1]

    def test_one_decoupled_wire_relative_singularity_test(self):
        # |det| between DEGENERATE_TOL and DEGENERATE_TOL * (largest entry)**2
        # on part of this grid, so both parts of ring._singular's threshold,
        # the absolute and the relative, flag some points.  The closed wire's
        # bound state is not excited, so the rule solves every row, and each
        # meets the 50-digit resolvent of its node matrices.
        offsets = np.linspace(0.5e-13, 2e-13, 150) / 2.2
        ks = np.concatenate([ONE_WIRE_K + offsets, ONE_WIRE_K - offsets])
        relative_only = 0
        for k in ks.tolist():
            s1, s2 = ring_matrices(ONE_WIRE_RING, k)
            gap = np.eye(2) - s1.m[1:, 1:] @ s2.m[1:, 1:]
            det = abs(gap[0, 0] * gap[1, 1] - gap[0, 1] * gap[1, 0])
            relative_only += DEGENERATE_TOL <= det <= DEGENERATE_TOL * max_norm(gap) ** 2
        assert relative_only > 10
        assert not assert_within_contract(ONE_WIRE_RING, ks).any()
        amps, _ = solve_grid(ONE_WIRE_RING, ks)
        exact = np.array([mp_resolvent_amplitudes(*ONE_WIRE_RING._route.arrays(k)) for k in ks.tolist()])
        assert np.abs(amps - exact).max() <= 1e-15

    def test_symmetric_lines_of_a_general_ring(self):
        # symmetric_buttiker written as General(right=left): each exact line
        # n pi / dxi in [0.5, 10] and [1e2, 1e3] holds a bound state in the
        # continuum that the launch does not excite.  No row is flagged, and
        # the rows _singular flags meet the symmetric closed form on the grid
        # and point routes alike.
        symmetric = load_config(CONFIG_DIR / "symmetric_buttiker.json").ring
        cfg = dataclasses.replace(symmetric, mode=General(symmetric.left))
        lines = [np.arange(math.ceil(lo * cfg.dxi / PI), math.floor(hi * cfg.dxi / PI) + 1)
                 for lo, hi in ((0.5, 10.0), (1e2, 1e3))]
        ks = np.concatenate(lines) * PI / cfg.dxi
        assert ks.size == 290
        amps, degenerate = solve_grid(cfg, ks)
        assert not degenerate.any()
        _, s, t = cfg._route.node_entries(ks)
        with np.errstate(all="ignore"):
            flagged = _resolvent_forms(s, t)[0]
        assert flagged.sum() > 250
        for i in np.flatnonzero(flagged).tolist():
            closed = solve_symmetric_scale_invariant(symmetric, ks[i]).to_array()
            point = solve_auto(cfg, ks[i]).to_array()
            assert max(np.abs(amps[i] - closed).max(), np.abs(point - closed).max()) <= 1e-15
            assert np.abs(amps[i] - point).max() <= 1e-15

    def test_small_wavenumbers_of_the_general_ring(self):
        # The gap I - s s~ and the launch both shrink like k, so |det| falls
        # below DEGENERATE_TOL while the gap stays well conditioned: a regular
        # limit, solved on both routes and meeting the 50-digit reference.
        cfg = load_config(CONFIG_DIR / "general_ring.json").ring
        ks = np.geomspace(1e-12, 1e-6, 1000)
        amps, degenerate = solve_grid(cfg, ks)
        assert not degenerate.any()
        exact = np.array([mp_resolvent_amplitudes(*cfg._route.arrays(k)) for k in ks.tolist()])
        point = np.array([solve_auto(cfg, k).to_array() for k in ks.tolist()])
        assert np.abs(amps[:, [0, 5]] - exact[:, [0, 5]]).max() <= 1e-13
        assert np.abs(point[:, [0, 5]] - exact[:, [0, 5]]).max() <= 1e-13
        # below about k = 1e-13 the gap is rounding noise
        for k in (1e-13, 1e-14):
            assert solve_grid(cfg, [k])[1][0]
            with pytest.raises(DegenerateRingError):
                solve_auto(cfg, k)

    def test_one_svd_per_block_with_flagged_rows(self, monkeypatch):
        # The singular-gap rule settles a block's flagged rows with one stacked
        # SVD, of exactly those rows, and a block with no flagged row takes
        # none.  On general_ring, [1e-12, 1e-6] flags 2048 and 1874 rows of its
        # two blocks and [0.5, 10] flags none.
        cfg = load_config(CONFIG_DIR / "general_ring.json").ring
        ks = np.concatenate([np.geomspace(1e-12, 1e-6, 2 * GRID_BLOCK), np.linspace(0.5, 10.0, GRID_BLOCK)])
        flagged = []
        for start in range(0, ks.size, GRID_BLOCK):
            _, s, t = cfg._route.node_entries(ks[start:start + GRID_BLOCK])
            with np.errstate(all="ignore"):
                flagged.append(int(_resolvent_forms(s, t)[0].sum()))
        assert flagged[0] > 0 and flagged[1] > 0 and flagged[2] == 0
        stacks, svd = [], np.linalg.svd

        def counting_svd(a, *args, **kwargs):
            stacks.append(len(a))  # the matrices of one call
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        solve_grid(cfg, ks)
        assert stacks == flagged[:2]

    @pytest.mark.parametrize("case", ["symmetric lines", "threshold lines", "small wavenumbers"])
    def test_block_rule_matches_the_rule_row_by_row(self, case):
        # _solved_grid settles a block's flagged rows together; rule_by_row,
        # one row at a time, gives each row the same outcome, and on solved
        # rows A..F within 16 eps of the row's largest amplitude (at least 1).
        # The cases reach all three outcomes: the lines of symmetric_buttiker
        # as a general ring and of THRESHOLD_RING, and general_ring's small k.
        symmetric = load_config(CONFIG_DIR / "symmetric_buttiker.json").ring
        cfg, ks = {
            "symmetric lines": (dataclasses.replace(symmetric, mode=General(symmetric.left)),
                                np.arange(1, math.floor(10.0 * symmetric.dxi / PI) + 1) * PI / symmetric.dxi),
            "threshold lines": (THRESHOLD_RING, THRESHOLD_LINES),
            "small wavenumbers": (load_config(CONFIG_DIR / "general_ring.json").ring, np.geomspace(1e-14, 1e-6, 1000)),
        }[case]
        _, s, t = cfg._route.node_entries(ks)
        with np.errstate(all="ignore"):
            singular, amplitudes = _resolvent_forms(s, t)
            values, degenerate = _solved_grid(s, t, singular, amplitudes)
            regular, values = np.array(amplitudes()), np.array(values)
        assert singular.any() and not degenerate[~singular].any()
        for i in np.flatnonzero(singular).tolist():
            want = rule_by_row(s[..., i], t[..., i])
            if isinstance(want, str):
                assert degenerate[i] == (want == "degenerate"), (i, want)
                if want == "kept":
                    assert np.array_equal(values[:, i], regular[:, i])
            else:
                assert not degenerate[i], i
                assert np.abs(values[:, i] - want).max() <= 16 * EPS * max(1.0, np.abs(want).max()), i

    def test_lines_on_the_threshold_of_the_rule(self):
        # On the resolvent, at n = 1 the gap's singular values are (7.7e-4,
        # 3e-16) and the launch's part along the left null direction, relative
        # to its norm, is 1.6e-14 on the grid's node entries and 1.0e-14 on the
        # point's, against _ROUNDING = 1.4e-14: rounding decided the row.  The
        # ring is symmetric, written as General(right=left), so both routes take
        # the Fabry-Perot closed form, which has no bound state to decide.
        cfg, ks = THRESHOLD_RING, THRESHOLD_LINES
        amps, degenerate = solve_grid(cfg, ks)
        point, point_degenerate = per_point(cfg, ks)
        closed = solve_symmetric_scale_invariant(dataclasses.replace(cfg, mode=SYMMETRIC), ks[0]).to_array()
        assert ks.size == 85 and not degenerate.any() and not point_degenerate.any()
        exterior = [0, 5]  # A and F
        assert np.abs(amps[0, exterior] - closed[exterior]).max() <= 1e-12
        assert np.abs(point[0, exterior] - closed[exterior]).max() <= 1e-12
        np.testing.assert_array_equal(degenerate, point_degenerate)

    def test_empty_grid(self):
        cfg = RingConfig(left=FULL_REFLECTOR, mode=SYMMETRIC, xi1=1.0, xi2=0.0)
        amps, degenerate = solve_grid(cfg, [])
        assert amps.shape == (0, 6) and degenerate.shape == (0,)

    @pytest.mark.parametrize("mode", [SYMMETRIC, ANTISYMMETRIC, General(FULL_REFLECTOR)])
    def test_overflowing_phase_raises_value_error(self, mode):
        cfg = RingConfig(left=NEAR_DECOUPLED_SI, mode=mode, xi1=1.3, xi2=-0.4)
        with pytest.raises(ValueError, match="finite"):
            solve_grid(cfg, [1.0, 1.7e308])  # k * xi overflows

    def test_rejects_a_two_dimensional_grid(self):
        cfg = RingConfig(left=FULL_REFLECTOR, mode=SYMMETRIC, xi1=1.0, xi2=0.0)
        with pytest.raises(ValueError) as err:
            solve_grid(cfg, np.ones((2, 2)))
        assert str(err.value) == "ks must be one-dimensional, got shape (2, 2)"

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
    def test_rejects_wavenumbers_like_solve_auto(self, bad):
        cfg = RingConfig(left=FULL_REFLECTOR, mode=SYMMETRIC, xi1=1.0, xi2=0.0)
        with pytest.raises(ValueError, match="k must be positive and finite"):
            solve_auto(cfg, bad)
        with pytest.raises(ValueError, match="k must be positive and finite"):
            solve_grid(cfg, [1.0, bad])

    def test_node_mask_is_where_the_point_route_raises(self):
        # _s_grid's mask is False exactly where _s_array raises ValueError, for
        # each rejection of _phase_exponent, at one position and at one position
        # per wavenumber, on L0 from the least subnormal to 1e300; the two
        # orientations' masks are equal, and the entries come out (3, 3, n)
        # and C-contiguous
        rng = np.random.default_rng(47)
        ks = np.array([0.0, -0.0, -1.0, math.inf, -math.inf, math.nan,
                       8e307,  # k*L0 overflows at L0 = 5
                       5e-324,  # k*L0 underflows to 0 at L0 = 0.4
                       1e300, 1e-300, 0.3, 2.0, 17.0])
        xis = [0.7, -2.5, 1e10, 0.0, math.inf, -math.inf, math.nan]  # 1e10: k*xi overflows at k = 1e300
        grids = [(ks, xi) for xi in xis] + [(np.repeat(ks, len(xis)), np.tile(xis, ks.size))]
        reasons = set()
        for L0 in (5.0, 0.4, 1.0, 5e-324, 1e300):
            p = dataclasses.replace(random_params(rng), L0=L0)
            for node in (_Node(p), _Node(p, swap=True)):
                for grid, xi in grids:
                    masks = []
                    for orientation in Orientation:
                        with np.errstate(all="ignore"):
                            accepted, entries = _s_grid(node, grid, xi, orientation)
                        assert entries.shape == (3, 3, grid.size) and entries.flags.c_contiguous
                        expected = []
                        for k, x in np.broadcast(grid, xi):
                            try:
                                _s_array(node, float(k), float(x), orientation)
                            except ValueError as e:
                                reasons.add(" ".join(str(e).split()[:2]))
                                expected.append(False)
                            else:
                                expected.append(True)
                        np.testing.assert_array_equal(accepted, expected)
                        assert np.isfinite(entries[..., accepted]).all()
                        masks.append(accepted)
                    np.testing.assert_array_equal(*masks)
        assert reasons == {"k must", "xi must", "k*L0 overflows", "k*L0 underflows", "k*xi overflows"}


class TestBatchedProducts:
    """Each product the grid kernel batches against its per-point counterpart, within PRODUCT_TOL."""

    def test_node_matrix_product(self):
        # _s_grid's projector product against _s_array, matrix by matrix, for
        # random nodes, their relabelled copies and both orientations
        rng = np.random.default_rng(5)
        ks = np.concatenate([10.0 ** rng.uniform(-6.0, 8.0, 300), np.linspace(0.05, 40.0, 200)])
        for _ in range(8):
            p = random_params(rng)
            xi = float(rng.uniform(-3.0, 3.0))
            for node in (_Node(p), _Node(p, swap=True)):
                for orientation in Orientation:
                    got = matrix_stack(_s_grid(node, ks, xi, orientation))
                    expected = np.stack([_s_array(node, k, xi, orientation) for k in ks.tolist()])
                    assert np.abs(got - expected).max() <= PRODUCT_TOL
                    assert unitarity_errors(got).max() <= PRODUCT_TOL

    def test_arm_phase(self):
        # closed_form_grid's exponent is closed_form's word for word, and np.exp
        # of it agrees with cmath.exp up to k * dxi = 1e15
        rng = np.random.default_rng(11)
        k = np.concatenate([
            10.0 ** rng.uniform(-3.0, 13.0, 200_000),
            rng.uniform(0.3, 60.0, 100_000),
            np.linspace(0.5, 10.0, 4096),
        ])
        dxi = 10.0 ** rng.uniform(-2.0, 2.0, k.size)
        z = 2j * k * dxi
        assert np.abs(z.imag).max() > 1e14
        exponents = [2j * a * b for a, b in zip(k.tolist(), dxi.tolist())]
        assert_same_words(z, np.array(exponents), f"arm-phase exponent on {k.size} pairs")
        expected = np.array([cmath.exp(w) for w in exponents])
        assert np.abs(np.exp(z) - expected).max() <= PRODUCT_TOL

    @pytest.mark.parametrize("orientation", list(Orientation), ids=lambda o: o.name.lower())
    def test_diagonal_factor_matches_the_quotient(self, orientation):
        # On a node with V = I at xi = 0 the node matrix is the diagonal of
        # junction._factor: on the grid and the point route against the
        # quotient (i x + s) / (i x - s) of the same floats at 50 digits
        # (x = (k L0) cos, s = sin of theta / 2), for k * L0 from subnormal to
        # 1e300 and eigenphases on and next to 0 and pi; exactly 1 at theta = 0
        mpmath = pytest.importorskip("mpmath")
        theta = (0.0, PI, 1.3, 1e-9, PI - 1e-9, 2 * PI - 1e-9)
        rng = np.random.default_rng(23)
        ks = np.concatenate([[5e-324, 1e-320, 1e-310], 10.0 ** rng.uniform(-300.0, 300.0, 2000)])
        i = mpmath.mpc(0, 1 if orientation is Orientation.INWARD else -1)  # the sign of k at the node
        for eigenphases in (theta[:3], theta[3:]):
            node = _Node(JunctionParams(theta=eigenphases, L0=0.7))
            assert np.array_equal(node.v, np.eye(3))
            grid = np.diagonal(matrix_stack(_s_grid(node, ks, 0.0, orientation)), axis1=1, axis2=2)
            point = np.array([np.diagonal(_s_array(node, k, 0.0, orientation)) for k in ks.tolist()])
            with mpmath.workdps(50):
                expected = np.array([[complex((i * mpmath.mpf(lk) * c + s) / (i * mpmath.mpf(lk) * c - s))
                                      for c, s in node.half] for lk in (node.L0 * ks).tolist()])
            for got in (grid, point):
                assert np.isfinite(got).all()
                assert np.abs(got - expected).max() <= PRODUCT_TOL
                assert np.abs(np.abs(got) - 1.0).max() <= 2 * EPS
                if eigenphases[0] == 0.0:
                    assert (got[:, 0] == 1.0).all()

    def test_node_matrices_unitary_across_decades(self):
        # k * L0 and k * xi over the whole range the checks accept, where a
        # quotient form would overflow its reciprocal or lose the modulus
        rng = np.random.default_rng(31)
        ks = np.concatenate([[5e-324, 1e-318], 10.0 ** rng.uniform(-320.0, 300.0, 3000)])
        for _ in range(6):
            node = _Node(random_params(rng))
            for orientation in Orientation:
                got = matrix_stack(_s_grid(node, ks, float(rng.uniform(-1.0, 1.0)), orientation))
                assert np.isfinite(got).all()
                assert unitarity_errors(got).max() <= PRODUCT_TOL


    def test_algebraic_solve(self):
        # _algebraic_grid against solve_algebraic on the same node matrices, row
        # by row, within CONTRACT eps / min(|Delta|, 1); it leaves to
        # solve_algebraic exactly the rows where that one raises
        rng = np.random.default_rng(41)
        rings = [random_ring(rng, mode, si) for mode in ("symmetric", "antisymmetric", "general")
                 for si in (True, False) for _ in range(3)]
        rings.append(RingConfig(left=FULL_REFLECTOR, mode=SYMMETRIC, xi1=1.0, xi2=0.0))
        left_to_point = 0
        for cfg in rings:
            ks = np.concatenate([[PI, 2 * PI], rng.uniform(0.1, 20.0, 40)])
            _, s, t = cfg._route.node_entries(ks)
            with np.errstate(all="ignore"):
                amps, regular = _algebraic_grid(s, t)
            amps = np.array(amps).T
            for i, k in enumerate(ks.tolist()):
                s1 = ScatteringMatrix(m=s[..., i], k=k, xi=cfg.xi1, orientation=Orientation.INWARD)
                s2 = ScatteringMatrix(m=t[..., i], k=k, xi=cfg.xi2, orientation=Orientation.OUTWARD)
                if not regular[i]:
                    with pytest.raises(ArithmeticError):
                        solve_algebraic(s1, s2)
                    left_to_point += 1
                    continue
                delta = _algebraic_forms(s[..., i], t[..., i])[0]
                error = np.abs(amps[i] - solve_algebraic(s1, s2).to_array()).max()
                assert error <= CONTRACT * EPS / min(abs(delta), 1.0)
        assert left_to_point == 2  # the full reflector at pi and 2 pi

    @pytest.mark.parametrize("orientation", list(Orientation), ids=lambda o: o.name.lower())
    def test_node_residual(self, orientation):
        # _residual on a stack of samples against junction_residual, sample by
        # sample, for unitary and arbitrary U and arbitrary psi
        rng = np.random.default_rng(43)
        for _ in range(20):
            p = random_params(rng)
            ks, xis = rng.uniform(0.1, 20.0, 8), rng.uniform(-2.0, 2.0, 8)
            phis, psis = (rng.normal(size=(8, 3)) + 1j * rng.normal(size=(8, 3)) for _ in range(2))
            for u in (build_U(p), rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))):
                got = _residual(u, p.L0, ks, xis, phis.T, psis.T, orientation)
                expected = np.array([junction_residual(u, p.L0, *sample, orientation)
                                     for sample in zip(ks.tolist(), xis.tolist(), phis, psis)])
                assert np.abs(got - expected).max() <= PRODUCT_TOL * expected.max()


def matrix_stack(grid) -> np.ndarray:
    """The entries (3, 3, n) of an _s_grid result as a stack of matrices (n, 3, 3)."""
    return np.moveaxis(grid[1], -1, 0)


def unitarity_errors(stack: np.ndarray) -> np.ndarray:
    """max |m m^dagger - I| of each matrix of a stack (n, 3, 3)."""
    return np.abs(stack @ stack.conj().transpose(0, 2, 1) - np.eye(3)).max(axis=(1, 2))


def assert_same_words(got, expected, what: str) -> None:
    got, expected = np.ascontiguousarray(got), np.ascontiguousarray(expected)
    assert got.shape == expected.shape
    differ = np.count_nonzero(got.view(np.int64) != expected.view(np.int64))
    assert differ == 0, f"{what}: {differ} of {expected.size * 2} words differ"


def reference_csv(cfg, k_min, k_max, n) -> bytes:
    """The sweep CSV rendered row by row with '%.17g' from solve_grid's arrays.

    Also holds those arrays to the contract against solve_auto.
    """

    def fmt(x):
        return format(float(x), ".17g")

    ks = np.linspace(k_min, k_max, n)
    amps, degenerate = solve_grid(cfg, ks)
    assert_within_contract(cfg, ks)
    squares = np.abs(amps) ** 2
    rows = [CSV_HEADER]
    for k, row, abs2, flag in zip(ks.tolist(), amps.tolist(), squares.tolist(), degenerate.tolist()):
        cells = [fmt(k)] + [fmt(x) for x in abs2]
        cells += [fmt(row[0].real), fmt(row[0].imag), fmt(row[5].real), fmt(row[5].imag)]
        cells.append("1" if flag else "0")
        rows.append(",".join(cells))
    return "".join(row + "\n" for row in rows).encode()


class TestByteStableOutput:
    @pytest.mark.parametrize("path", SHIPPED, ids=lambda p: p.stem)
    def test_sweep_csv_equals_per_point_rendering(self, path, tmp_path):
        # the rendering of the kernel's arrays, which the contract holds to
        # solve_auto, and the same bytes on a second run
        parsed = load_config(path)
        out, again = tmp_path / "sweep.csv", tmp_path / "again.csv"
        for target in (out, again):
            assert main(["sweep", "--config", str(path), "--n", "4096", "--out", str(target)]) == 0
        expected = reference_csv(parsed.ring, parsed.task["k_min"], parsed.task["k_max"], 4096)
        assert out.read_bytes() == expected == again.read_bytes()

    def test_degenerate_rows_equal_per_point_rendering(self, tmp_path):
        path = tmp_path / "mirror.json"
        path.write_text(
            '{"junctions": {"m": {"theta": ["pi:1", "pi:1", "pi:1"], "beta": 0.8, "delta": 1.9}}, '
            '"ring": {"left": "m", "mode": "symmetric", "xi1": 1.0, "xi2": 0.0}}'
        )
        cfg = load_config(path).ring
        out = tmp_path / "sweep.csv"
        for k_min, k_max, n in ((PI / 2, 3 * PI / 2, 3), (0.5, 3 * PI, 1001)):
            argv = ["sweep", "--config", str(path), "--k-min", repr(k_min), "--k-max", repr(k_max)]
            assert main(argv + ["--n", str(n), "--out", str(out)]) == 0
            expected = reference_csv(cfg, k_min, k_max, n)
            assert out.read_bytes() == expected
        assert b",1\n" in expected

    @staticmethod
    def sweep_matches_reference(tmp_path, doc, k_min, k_max, n) -> bytes:
        path = tmp_path / "ring.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "sweep.csv"
        argv = ["sweep", "--config", str(path), "--k-min", repr(k_min), "--k-max", repr(k_max)]
        assert main(argv + ["--n", str(n), "--out", str(out)]) == 0
        expected = reference_csv(load_config(path).ring, k_min, k_max, n)
        assert out.read_bytes() == expected
        return expected

    def test_decoupled_ring_ending_on_a_bound_state(self, tmp_path):
        # Two identical totally reflecting nodes: |A|^2 is at times exactly 1, and
        # the last k, an arm resonance m pi / dxi, is degenerate.
        node = {"theta": ["pi:1", "pi:1", "pi:1"], "alpha": 0.4, "beta": 1.2, "gamma": 2.9,
                "delta": 0.7, "a": 5.1, "b": 2.2, "L0": 1.3}
        dxi = 1.7
        doc = {"junctions": {"l": node, "r": node},
               "ring": {"left": "l", "right": "r", "mode": "general", "xi1": dxi, "xi2": 0.0}}
        expected = self.sweep_matches_reference(tmp_path, doc, 0.5, 5 * PI / dxi, 4096)
        rows = expected.decode().splitlines()[1:]
        assert rows[-1].endswith(",nan,1") and sum(r.endswith(",1") for r in rows) == 1
        assert "1" in {r.split(",")[1] for r in rows}

    def test_wavenumbers_below_the_formatting_table(self, tmp_path):
        doc = json.loads(CONFIG_DIR.joinpath("symmetric_buttiker.json").read_text())
        expected = self.sweep_matches_reference(tmp_path, doc, 1e-300, 1e-299, 300)
        assert expected.splitlines()[1].startswith(b"1e-300,") and b",1\n" not in expected

    def test_grid_ending_on_a_power_of_ten(self, tmp_path):
        doc = json.loads(CONFIG_DIR.joinpath("general_ring.json").read_text())
        expected = self.sweep_matches_reference(tmp_path, doc, 1.0, 100.0, 1500)
        assert expected.splitlines()[1].startswith(b"1,") and expected.splitlines()[-1].startswith(b"100,")

    def test_negative_zero_amplitude_parts(self, tmp_path):
        doc = {"junctions": {"n": {"theta": [0.0, 0.0, 0.0]}},
               "ring": {"left": "n", "mode": "symmetric", "xi1": 1.0, "xi2": 0.0}}
        expected = self.sweep_matches_reference(tmp_path, doc, 0.5, 10.0, 600)
        assert b",-0," in expected

    @pytest.mark.parametrize("kind", list(ResonanceKind))
    @pytest.mark.parametrize("path", SHIPPED, ids=lambda p: p.stem)
    def test_find_equals_per_point_scan(self, path, kind, monkeypatch):
        # A scan within the contract of solve_auto finds the same lines as a
        # per-point scan; the refine starts from its samples, so k* may move
        # in the last bits.  Enumerated lines keep their analytic floats.
        cfg = load_config(path).ring
        grid = find_resonances(cfg, 0.3, 12.0, kind)
        scanned = []

        def per_point_columns(cfg, ks, columns):
            scanned.append((np.asarray(ks), columns))
            amps, degenerate = per_point(cfg, ks)
            return amps[:, np.flatnonzero(columns)], degenerate

        monkeypatch.setattr(spectrum, "_solve_grid_columns", per_point_columns)
        reference = find_resonances(cfg, 0.3, 12.0, kind)
        positions = spectrum._expected_resonances(cfg, kind, 0.3, 12.0)
        if positions is not None and positions[1] >= 1e-8:
            # minima that are not zeros, all above tol: nothing is evaluated
            assert scanned == []
            assert (grid.resonances, grid.warnings) == (reference.resonances, reference.warnings) == ((), ())
            return
        (first, _), *rounds = scanned
        if positions is not None:
            # no scan: one call on the analytic positions, each between the midpoints to its neighbours
            lines = [k for k in positions[0].tolist() if 0.3 < k < 12.0]
            assert rounds == [] and first[1::2].tolist() == lines and first.size == 2 * len(lines) + 1
        else:
            # the scan of the whole window, then the rounds of the refine
            assert (first[0], first[-1]) == (0.3, 12.0) and all(0.3 < k < 12.0 for ks, _ in rounds for k in ks)
        # all on the one column
        column = one_column(0 if kind is ResonanceKind.PERFECT_TRANSMISSION else 5)
        assert {columns for _, columns in scanned} == {column}
        assert len(grid.resonances) == len(reference.resonances)
        for got, expected in zip(grid.resonances, reference.resonances):
            assert abs(got.k_star - expected.k_star) <= 1e-14 * expected.k_star
        assert len(grid.warnings) == len(reference.warnings)


def one_column(column: int) -> tuple[bool, ...]:
    """The column flags that select amplitude `column` of A..F alone."""
    return tuple(i == column for i in range(6))


#: General ring of two totally reflecting nodes, and a grid of it that
#: crosses two block boundaries and ends on the bound state 2 pi / dxi.
ALL_PI_RING = RingConfig(
    left=FULL_REFLECTOR,
    mode=General(JunctionParams(theta=(PI, PI, PI), alpha=0.3, beta=2.1, delta=0.4)),
    xi1=1.5,
    xi2=0.25,
)
ALL_PI_GRID = np.linspace(0.5, 2 * PI / ALL_PI_RING.dxi, 2 * GRID_BLOCK + 37)


def scan_cases():
    """(cfg, ks) for the column scan: shipped configs, random rings, and a grid ending on a bound state."""
    ks = np.linspace(0.5, 12.0, 2 * GRID_BLOCK + 37)  # crosses two block boundaries
    for path in SHIPPED:
        yield pytest.param(load_config(path).ring, ks, id=path.stem)
    for mode in ("symmetric", "antisymmetric", "general"):
        for scale_invariant in (True, False):
            rng = np.random.default_rng([3, len(mode), scale_invariant])
            yield pytest.param(random_ring(rng, mode, scale_invariant), ks, id=f"{mode}-si{scale_invariant:d}")
    yield pytest.param(ALL_PI_RING, ALL_PI_GRID, id="bound_state")


class TestScannedColumn:
    """The one-column scan of find_resonances equals solve_grid's column word for word."""

    @pytest.mark.parametrize("column", [0, 5], ids=["A", "F"])
    @pytest.mark.parametrize("cfg, ks", scan_cases())
    def test_column_equals_solve_grid(self, cfg, ks, column):
        amps, degenerate = solve_grid(cfg, ks)
        scanned, scanned_degenerate = _solve_grid_columns(cfg, ks, one_column(column))
        assert scanned.shape == (ks.size, 1)
        np.testing.assert_array_equal(scanned_degenerate, degenerate)
        assert_same_words(scanned[:, 0], amps[:, column], f"column {column}")

    @pytest.mark.parametrize("column", [0, 5], ids=["A", "F"])
    def test_bound_state_row_is_nan(self, column):
        scanned, degenerate = _solve_grid_columns(ALL_PI_RING, ALL_PI_GRID, one_column(column))
        assert degenerate[-1] and np.isnan(scanned[-1, 0])

    @pytest.mark.parametrize("column", [0, 5], ids=["A", "F"])
    @pytest.mark.parametrize("path", SHIPPED, ids=lambda p: p.stem)
    @pytest.mark.parametrize("bad", [-2.5, 1.7e308])
    def test_rejection_in_the_third_block(self, path, bad, column):
        cfg = load_config(path).ring
        ks = np.linspace(0.5, 10.0, 3 * ring.GRID_BLOCK + 10)
        ks[2 * ring.GRID_BLOCK + 5] = bad
        ks[-1] = math.nan
        with pytest.raises(ValueError) as at_point:
            solve_auto(cfg, bad)
        with pytest.raises(ValueError) as on_scan:
            _solve_grid_columns(cfg, ks, one_column(column))
        assert str(on_scan.value) == str(at_point.value)


#: Lines up with neither the kernel's block nor the CSV's: 2 * 2048 + 513.
UNALIGNED_N = 4609


def block_cases():
    """The shipped configs on their own ranges, the antisymmetric one with eigenphases
    that are not scale invariant (the resolvent on the wire-swapped right node), and a
    ring whose grid ends on a bound state.

    Each case is (doc, k_min, k_max, whether the last row is degenerate).
    """
    for path in SHIPPED:
        doc = json.loads(path.read_text())
        yield pytest.param(doc, doc["task"]["k_min"], doc["task"]["k_max"], False, id=path.stem)
    doc = json.loads(CONFIG_DIR.joinpath("antisymmetric_generic.json").read_text())
    doc["junctions"]["node"]["theta"] = [0.4, 2.9, 4.1]
    yield pytest.param(doc, doc["task"]["k_min"], doc["task"]["k_max"], False, id="antisymmetric_resolvent")
    node = {"theta": ["pi:1", "pi:1", "pi:1"], "alpha": 0.4, "beta": 1.2, "gamma": 2.9,
            "delta": 0.7, "a": 5.1, "b": 2.2, "L0": 1.3}
    doc = {"junctions": {"l": node, "r": node},
           "ring": {"left": "l", "right": "r", "mode": "general", "xi1": 1.7, "xi2": 0.0}}
    yield pytest.param(doc, 0.5, 5 * PI / 1.7, True, id="bound_state")


class TestBlockBoundaries:
    """The kernel and the CSV renderer each work in blocks of their own size."""

    @pytest.mark.parametrize("doc, k_min, k_max, ends_degenerate", block_cases())
    def test_unaligned_sweep_equals_per_point_rendering(self, doc, k_min, k_max, ends_degenerate,
                                                        tmp_path):
        assert UNALIGNED_N % ring.GRID_BLOCK and UNALIGNED_N % cli._CSV_BLOCK
        assert UNALIGNED_N > 2 * ring.GRID_BLOCK
        expected = TestByteStableOutput.sweep_matches_reference(tmp_path, doc, k_min, k_max, UNALIGNED_N)
        assert expected.endswith(b",nan,1\n") == ends_degenerate

    @pytest.mark.parametrize("doc, k_min, k_max, ends_degenerate", block_cases())
    def test_small_coprime_blocks(self, doc, k_min, k_max, ends_degenerate, tmp_path, monkeypatch):
        # 15 kernel blocks and 21 CSV blocks, sharing a boundary only at rows 35 and 70
        monkeypatch.setattr(ring, "GRID_BLOCK", 7)
        monkeypatch.setattr(cli, "_CSV_BLOCK", 5)
        expected = TestByteStableOutput.sweep_matches_reference(tmp_path, doc, k_min, k_max, 101)
        assert expected.endswith(b",nan,1\n") == ends_degenerate

    @pytest.mark.parametrize("path", SHIPPED, ids=lambda p: p.stem)
    @pytest.mark.parametrize("bad", [-2.5, 1.7e308])
    def test_rejection_in_the_third_block(self, path, bad):
        cfg = load_config(path).ring
        ks = np.linspace(0.5, 10.0, 3 * ring.GRID_BLOCK + 10)
        ks[2 * ring.GRID_BLOCK + 5] = bad
        ks[-1] = math.nan  # a later rejection, in the fourth block, must not be the one raised
        with pytest.raises(ValueError) as at_point:
            solve_auto(cfg, bad)
        with pytest.raises(ValueError) as on_grid:
            solve_grid(cfg, ks)
        assert str(on_grid.value) == str(at_point.value)
