import collections
import copy
import dataclasses
import json
import math
import pickle
import re
from pathlib import Path

import numpy as np
import pytest

from conftest import mp_resolvent_amplitudes
from test_grid import contract_bound, random_ring
from test_refine import scan_values, slope
from yring import (
    ANTISYMMETRIC,
    SYMMETRIC,
    General,
    JunctionParams,
    Resonance,
    ResonanceKind,
    RingAmplitudes,
    RingConfig,
    config_fingerprint,
    find_resonances,
    perfect_transmission_target,
    solve_auto,
    solve_grid,
    sweep,
)
from yring import ring, spectrum
from yring.cli import main
from yring.config import load_config
from yring.junction import EULER_ANGLES, build_V, is_scale_invariant, is_time_reversal
from yring.ring import _solve_grid_columns
from yring.spectrum import _expected_resonances, _scan_count

PI = math.pi
CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

BEAM_SPLITTER = dict(theta=(0.0, PI, PI), alpha=0.0, beta=3 * PI / 2, gamma=PI, delta=PI / 4, a=0.0)

GENERIC_SI = JunctionParams(
    theta=(PI, 0.0, PI),
    alpha=1.643758,
    beta=1.875475,
    gamma=5.115931,
    delta=0.577525,
    a=3.770543,
    b=4.577681,
)

FULL_REFLECTOR = JunctionParams(theta=(PI, PI, PI), beta=0.8, delta=1.9)


def beam_cfg(b=PI / 6, xi1=1.0, xi2=0.0):
    return RingConfig(left=JunctionParams(b=b, **BEAM_SPLITTER), mode=SYMMETRIC, xi1=xi1, xi2=xi2)


class TestSweep:
    def test_grid_shape_and_order(self):
        spec = sweep(beam_cfg(), 0.5, 2.5, 21)
        assert len(spec.points) == 21
        ks = [p.k for p in spec.points]
        assert ks == sorted(ks)
        assert ks[0] == 0.5 and ks[-1] == 2.5

    def test_probabilities_sum_to_one(self):
        spec = sweep(beam_cfg(), 0.3, 2.9, 40)
        for p in spec.points:
            assert not p.degenerate
            assert 0.0 <= p.p_refl <= 1.0 + 1e-12
            assert p.p_refl + p.p_trans == pytest.approx(1.0, abs=1e-9)

    def test_perfect_transmission_point_on_grid(self):
        # midpoint of (pi/2, 3pi/2) lands exactly on the arm resonance
        spec = sweep(beam_cfg(), PI / 2, 3 * PI / 2, 3)
        assert spec.points[1].k == pytest.approx(PI, abs=1e-15)
        assert spec.points[1].p_refl < 1e-10

    def test_fully_reflecting_ring(self):
        cfg = RingConfig(left=FULL_REFLECTOR, mode=SYMMETRIC, xi1=1.0, xi2=0.0)
        spec = sweep(cfg, 0.3, 2.9, 40)  # no arm resonance inside this range
        for p in spec.points:
            assert not p.degenerate
            assert p.p_refl == pytest.approx(1.0, abs=1e-12)

    def test_degenerate_point_is_flagged_not_dropped(self):
        cfg = RingConfig(left=FULL_REFLECTOR, mode=SYMMETRIC, xi1=1.0, xi2=0.0)
        spec = sweep(cfg, PI / 2, 3 * PI / 2, 3)  # middle point sits on the resonance
        assert len(spec.points) == 3
        assert not spec.points[0].degenerate
        assert spec.points[1].degenerate
        assert math.isnan(spec.points[1].p_refl) and math.isnan(spec.points[1].p_trans)
        assert spec.points[1].amps is None
        for point, row in zip(spec.points[::2], spec.amps[::2]):  # a regular row reads its amplitudes
            assert point.amps == RingAmplitudes(*row.tolist())
            assert (point.p_refl, point.p_trans) == (point.amps.p_reflection, point.amps.p_transmission)
        assert not spec.points[2].degenerate

    def test_ring_probabilities_periodic_in_arm_phase(self):
        cfg = beam_cfg(xi1=1.7, xi2=0.3)
        period = PI / cfg.dxi
        a = sweep(cfg, 2.0, 2.0 + period, 64)
        b = sweep(cfg, 2.0 + period, 2.0 + 2 * period, 64)
        diff = max(
            abs(pa.p_refl - pb.p_refl) for pa, pb in zip(a.points, b.points)
        )
        assert diff < 1e-10

    def test_rejects_bad_grid(self):
        with pytest.raises(ValueError):
            sweep(beam_cfg(), 0.0, 1.0, 8)
        with pytest.raises(ValueError):
            sweep(beam_cfg(), 2.0, 1.0, 8)
        with pytest.raises(ValueError):
            sweep(beam_cfg(), 0.5, 1.0, 1)

    @pytest.mark.parametrize("k_min, k_max", [(0.5, math.inf), (1e-308, 1e308), (math.nan, 1.0)])
    def test_rejects_unbounded_range(self, k_min, k_max):
        with pytest.raises(ValueError, match="k_max"):
            sweep(beam_cfg(), k_min, k_max, 8)

    @pytest.mark.parametrize("n", [4.5, 8.0, "8", None])
    def test_rejects_non_integer_count(self, n):
        with pytest.raises(ValueError, match="n must be an integer"):
            sweep(beam_cfg(), 0.5, 1.0, n)

    def test_arrays_back_the_points(self):
        cfg = RingConfig(left=FULL_REFLECTOR, mode=SYMMETRIC, xi1=1.0, xi2=0.0)
        spec = sweep(cfg, PI / 2, 3 * PI / 2, 3)
        assert spec.k.shape == (3,) and spec.amps.shape == (3, 6)
        assert spec.degenerate.tolist() == [False, True, False]
        assert np.isnan(spec.amps[1]).all()
        for p, k, row in zip(spec.points, spec.k, spec.amps):
            assert p.k == k
            if not p.degenerate:
                assert p.amps.to_array().tolist() == row.tolist()
                assert p.p_refl == abs(row[0]) ** 2 and p.p_trans == abs(row[5]) ** 2
        with pytest.raises(ValueError):
            spec.amps[0, 0] = 0.0

    def test_decoupled_ring_next_to_a_bound_state(self):
        # Two identical totally reflecting nodes: row 3231 lies 7.0e-8 below the
        # bound state at 4 pi / dxi.  |det(I - s s~)| = 5.3e-14 there, but the
        # gap is well conditioned and the launch reaches the bound state only at
        # rounding level, so the row is regular.
        node = JunctionParams(theta=(PI, PI, PI), alpha=2.705760305987929, beta=4.911454923910144,
                              gamma=1.559479634880477, delta=0.761097772235759, a=5.661513426785202,
                              b=5.410080887967616, L0=1.391109854007584)
        cfg = RingConfig(left=node, mode=General(node), xi1=1.6362450844544478, xi2=0.0)
        spec = sweep(cfg, 0.5, 9.600006390965733, 4096)
        assert spec.k[3231] == 7.680005042542194
        assert 0 < 4 * PI / cfg.dxi - spec.k[3231] < 1e-7
        assert not spec.degenerate[3231]
        a, f = spec.amps[3231, [0, 5]]
        assert abs(abs(a) ** 2 + abs(f) ** 2 - 1.0) <= 1e-10

    def test_fingerprint_identifies_configuration(self):
        cfg1 = beam_cfg()
        cfg2 = beam_cfg(b=PI / 5)
        assert sweep(cfg1, 0.5, 1.0, 4).fingerprint == config_fingerprint(cfg1)
        assert config_fingerprint(cfg1) != config_fingerprint(cfg2)


def one_field_changed(p: JunctionParams) -> list[JunctionParams]:
    """p with one of its ten numbers changed: each eigenphase, each Euler angle, L0."""
    thetas = [tuple(t + 0.25 * (i == j) for j, t in enumerate(p.theta)) for i in range(3)]
    return ([dataclasses.replace(p, theta=theta) for theta in thetas]
            + [dataclasses.replace(p, **{name: getattr(p, name) + 0.25}) for name in EULER_ANGLES]
            + [dataclasses.replace(p, L0=1.5 * p.L0)])


class TestFingerprint:
    RIGHT = JunctionParams(theta=(0.3, 1.1, 2.0), alpha=0.4, beta=1.2, gamma=2.1, delta=0.9, a=1.7, b=0.2, L0=0.7)
    BASE = RingConfig(left=GENERIC_SI, mode=General(RIGHT), xi1=1.3, xi2=0.2)

    def test_every_field_changes_it(self):
        base = self.BASE
        assert [f.name for f in dataclasses.fields(JunctionParams)] == ["theta", *EULER_ANGLES, "L0"]
        variants = [base]
        variants += [dataclasses.replace(base, left=p) for p in one_field_changed(base.left)]
        variants += [dataclasses.replace(base, mode=General(p)) for p in one_field_changed(self.RIGHT)]
        variants += [dataclasses.replace(base, mode=mode) for mode in (SYMMETRIC, ANTISYMMETRIC)]
        variants += [dataclasses.replace(base, xi1=2.0), dataclasses.replace(base, xi2=-0.5)]
        assert len(variants) == 1 + 10 + 10 + 2 + 2
        assert len(set(variants)) == len(variants)
        assert len({config_fingerprint(cfg) for cfg in variants}) == len(variants)

    def test_equal_configs_built_apart_agree(self):
        again = RingConfig(left=dataclasses.replace(GENERIC_SI), mode=General(dataclasses.replace(self.RIGHT)),
                           xi1=1.3, xi2=0.2)
        assert again == self.BASE and again is not self.BASE
        assert config_fingerprint(again) == config_fingerprint(self.BASE)
        loaded = [load_config(CONFIG_DIR / "general_ring.json").ring for _ in range(2)]
        assert config_fingerprint(loaded[0]) == config_fingerprint(loaded[1])

    @pytest.mark.parametrize("zero", [-0.0, -2 * PI])
    def test_signed_zero_angles_agree_with_zero(self, zero):
        signed = JunctionParams(theta=(zero, PI, zero), alpha=zero, b=zero, L0=0.7)
        plain = JunctionParams(theta=(0.0, PI, 0.0), L0=0.7)
        assert signed == plain and repr(signed) == repr(plain)
        rings = [RingConfig(left=p, mode=General(p), xi1=1.3, xi2=0.2) for p in (signed, plain)]
        assert config_fingerprint(rings[0]) == config_fingerprint(rings[1])

    def test_signed_zero_angles_in_a_config_file(self, tmp_path):
        fingerprints = []
        for zero in (0.0, -0.0, "pi:-2", "pi:-0"):
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps({
                "junctions": {"j": {"theta": [zero, "pi:1", zero], "alpha": zero, "b": zero}},
                "ring": {"left": "j", "mode": "symmetric", "xi1": 1.3, "xi2": 0.2},
            }))
            fingerprints.append(config_fingerprint(load_config(path).ring))
        assert len(set(fingerprints)) == 1

    def test_pickle_copy_and_route_leave_it(self):
        cfg = RingConfig(left=GENERIC_SI, mode=General(self.RIGHT), xi1=1.3, xi2=0.2)
        before = config_fingerprint(cfg)
        cfg._route  # built on the first solve and kept on the instance
        assert "_route" in vars(cfg) and config_fingerprint(cfg) == before
        for twin in (pickle.loads(pickle.dumps(cfg)), copy.deepcopy(cfg)):
            assert config_fingerprint(twin) == before


class TestFindResonances:
    def test_antisymmetric_perfect_reflection_lattice(self):
        cfg = RingConfig(left=GENERIC_SI, mode=ANTISYMMETRIC, xi1=1.0, xi2=0.0)
        result = find_resonances(cfg, 0.1, 10.0, ResonanceKind.PERFECT_REFLECTION)
        assert result.warnings == ()
        ks = [r.k_star for r in result.resonances]
        assert len(ks) == 3
        for n, k_star in enumerate(ks, start=1):
            assert abs(k_star - n * PI) / (n * PI) < 1e-9
        for r in result.resonances:
            assert r.residual < 1e-8
            assert r.kind is ResonanceKind.PERFECT_REFLECTION

    @pytest.mark.parametrize(
        "cfg, kind",
        [
            (RingConfig(left=GENERIC_SI, mode=ANTISYMMETRIC, xi1=1.0, xi2=0.0),
             ResonanceKind.PERFECT_REFLECTION),
            ("beam", ResonanceKind.PERFECT_TRANSMISSION),
        ],
    )
    def test_resonances_survive_algebraic_reevaluation(self, cfg, kind):
        from yring import ring_matrices, solve_algebraic

        if cfg == "beam":
            cfg = beam_cfg()
        tol = 1e-8
        result = find_resonances(cfg, 0.1, 10.0, kind, tol=tol)
        assert result.resonances
        for r in result.resonances:
            amps = solve_algebraic(*ring_matrices(cfg, r.k_star))
            p = amps.p_reflection if kind is ResonanceKind.PERFECT_TRANSMISSION else amps.p_transmission
            assert p < tol

    def test_symmetric_perfect_transmission_lattice(self):
        cfg = beam_cfg()
        result = find_resonances(cfg, 0.1, 10.0, ResonanceKind.PERFECT_TRANSMISSION)
        assert result.warnings == ()
        ks = [r.k_star for r in result.resonances]
        assert len(ks) == 3
        for n, k_star in enumerate(ks, start=1):
            assert abs(k_star - n * PI) / (n * PI) < 1e-9

    def test_decoupled_ring_reports_no_reflection_resonances(self):
        cfg = RingConfig(left=FULL_REFLECTOR, mode=SYMMETRIC, xi1=1.0, xi2=0.0)
        result = find_resonances(cfg, 0.1, 10.0, ResonanceKind.PERFECT_REFLECTION, tol=1e-8)
        assert result.resonances == ()

    def test_symmetric_ring_has_no_perfect_reflection(self):
        result = find_resonances(beam_cfg(), 0.1, 10.0, ResonanceKind.PERFECT_REFLECTION)
        assert result.resonances == ()
        assert result.warnings == ()

    def test_coarse_scan_misses_no_line(self):
        # scale-invariant lines are enumerated, not scanned: scan_n does not reach them
        result = find_resonances(beam_cfg(), 0.1, 10.0, ResonanceKind.PERFECT_TRANSMISSION, scan_n=4)
        assert [r.k_star for r in result.resonances] == [PI, 2 * PI, 3 * PI]
        assert result.warnings == ()

    def test_rejects_bad_arguments(self):
        cfg = beam_cfg()
        with pytest.raises(ValueError):
            find_resonances(cfg, -1.0, 2.0, ResonanceKind.PERFECT_REFLECTION)
        with pytest.raises(ValueError):
            find_resonances(cfg, 0.5, 2.0, ResonanceKind.PERFECT_REFLECTION, tol=0.0)
        with pytest.raises(ValueError):
            find_resonances(cfg, 0.5, 2.0, ResonanceKind.PERFECT_REFLECTION, scan_n=2)
        with pytest.raises(ValueError, match="scan_n must be an integer"):
            find_resonances(cfg, 0.5, 2.0, ResonanceKind.PERFECT_REFLECTION, scan_n=300.0)
        for k_min, k_max in ((0.5, math.inf), (1e-308, 1e308)):
            with pytest.raises(ValueError, match="k_max"):
                find_resonances(cfg, k_min, k_max, ResonanceKind.PERFECT_REFLECTION)

    @pytest.mark.parametrize("tol", [1.0, 1e8, math.inf, math.nan, -1e-8])
    def test_rejects_tol_outside_unit_interval(self, tol):
        # probabilities are at most 1: a tol of 1 or more would silently find nothing
        with pytest.raises(ValueError, match="tol must lie strictly between 0 and 1"):
            find_resonances(beam_cfg(), 0.5, 7.0, ResonanceKind.PERFECT_TRANSMISSION, tol=tol)

    @pytest.mark.parametrize("kind", ["transmission", None])
    def test_rejects_a_kind_that_is_not_a_member(self, kind, monkeypatch):
        # the value "transmission" is not the member: it would scan |F|^2
        monkeypatch.setattr(spectrum, "_solve_grid_columns", None)  # raises before any scan
        message = "kind must be ResonanceKind.PERFECT_TRANSMISSION or ResonanceKind.PERFECT_REFLECTION"
        with pytest.raises(ValueError, match=message):
            find_resonances(beam_cfg(), 3.0, 4.5, kind)


# -- the analytic cross-check -------------------------------------------------------


def in_window(positions, k_min, k_max) -> list[float]:
    """The analytic positions inside (k_min, k_max), without their outer neighbours."""
    return [ke for ke in positions.tolist() if k_min < ke < k_max]


def lattice_from_first_line(cfg, kind, k_min, k_max):
    """The analytic positions built from n = 1 (or 0) up, as first written, then cut to the window."""
    every = _expected_resonances(cfg, kind, 1e-300, k_max)  # the window starts below the first line
    return None if every is None else [ke for ke in every[0] if k_min < ke < k_max]


ANTI_SI = RingConfig(left=GENERIC_SI, mode=ANTISYMMETRIC, xi1=1.0, xi2=0.0)

#: (ring, kind, k_min, k_max, scan_n): searches at default and coarse scan
#: sizes, which the enumerated lines ignore, and windows that start far from
#: the first line; 37.71 lies just
#: past the line 12 pi of the dxi = 1 rings, whose antisymmetric
#: transmission zero 12 pi + c lies in the window.
CROSS_CHECK_SEARCHES = [
    (ring, kind, k_min, k_max, scan_n)
    for ring, kind in [
        (beam_cfg(), ResonanceKind.PERFECT_TRANSMISSION),
        (beam_cfg(xi1=2.7, xi2=0.4), ResonanceKind.PERFECT_TRANSMISSION),
        (ANTI_SI, ResonanceKind.PERFECT_REFLECTION),
        (ANTI_SI, ResonanceKind.PERFECT_TRANSMISSION),
    ]
    for k_min, k_max in [(0.1, 10.0), (37.71, 61.0), (1000.5, 1040.0)]
    for scan_n in [None, 4, 9, 23]
]


class TestCrossCheck:
    @pytest.mark.parametrize("ring, kind, k_min, k_max, scan_n", CROSS_CHECK_SEARCHES)
    def test_the_searches_miss_no_line(self, ring, kind, k_min, k_max, scan_n):
        positions, least = _expected_resonances(ring, kind, k_min, k_max)
        assert least == 0.0 and positions[0] < k_min and positions[-1] > k_max  # the outer neighbours
        expected = in_window(positions, k_min, k_max)
        assert expected == sorted(expected) and expected
        assert expected == lattice_from_first_line(ring, kind, k_min, k_max)
        result = find_resonances(ring, k_min, k_max, kind, scan_n=scan_n)
        assert [r.k_star for r in result.resonances] == expected and result.warnings == ()

    def test_wide_lattice(self):
        # 50000 lines in one search; at a tol that no residual reaches, each is
        # a warning, of which ten are written and one line counts the rest
        dxi = 1.3
        cfg = beam_cfg(xi1=dxi)
        kind = ResonanceKind.PERFECT_TRANSMISSION
        k_min, k_max = 0.5 * PI / dxi, 50_000.5 * PI / dxi
        lines = [n * PI / dxi for n in range(1, 50_001)]
        result = find_resonances(cfg, k_min, k_max, kind)
        assert [r.k_star for r in result.resonances] == lines and result.warnings == ()
        failed = find_resonances(cfg, k_min, k_max, kind, tol=1e-300)
        assert failed.resonances == () and len(failed.warnings) == 11
        assert failed.warnings[0].startswith(f"analytic resonance at k={lines[0]:.12g} has residual ")
        assert all(w.endswith(", not below tol") for w in failed.warnings[:10])
        assert failed.warnings[10] == (f"49990 more analytic resonances in [{lines[10]:.12g}, {lines[-1]:.12g}] "
                                       "have residuals not below tol")

    def test_window_far_from_the_first_line(self):
        # the lattice from n = 1 would hold 3e11 lines here
        cfg = load_config(CONFIG_DIR / "symmetric_buttiker.json").ring
        k_min, k_max = 1e12, 1e12 + 10.0
        result = find_resonances(cfg, k_min, k_max, ResonanceKind.PERFECT_TRANSMISSION)
        near = range(int(k_min * cfg.dxi / PI) - 3, int(k_max * cfg.dxi / PI) + 3)
        lines = [n * PI / cfg.dxi for n in near if k_min < n * PI / cfg.dxi < k_max]
        assert in_window(_expected_resonances(cfg, ResonanceKind.PERFECT_TRANSMISSION, k_min, k_max)[0],
                         k_min, k_max) == lines
        assert len(lines) == 3 and len(result.resonances) == 3 and result.warnings == ()

    @pytest.mark.parametrize("name, kind", [("symmetric_buttiker", ResonanceKind.PERFECT_TRANSMISSION),
                                            ("antisymmetric_generic", ResonanceKind.PERFECT_REFLECTION)])
    def test_a_lattice_finer_than_the_floats_is_refused(self, name, kind):
        # from k_max dxi/pi = 2**52 the lines, pi/dxi apart, lie closer than the float spacing
        cfg = load_config(CONFIG_DIR / f"{name}.json").ring
        limit = 2.0**52 * PI / cfg.dxi
        message = f"k_max must be below 2**52 pi/dxi = {limit:.6g}, got k_max=1.000000000001e+17"
        with pytest.raises(ValueError, match=re.escape(message)):
            find_resonances(cfg, 1e17, 1.000000000001e17, kind)
        below = math.nextafter(limit, 0.0)
        result = find_resonances(cfg, below * (1.0 - 1e-13), below, kind)
        assert result.warnings[-1].startswith("441 more analytic resonances")  # 451 lines, none below tol

    def test_a_lattice_too_large_to_hold_is_refused(self):
        # 3.2e14 lines, 2.26 PiB: more than any address space, so the allocation fails at once
        cfg = load_config(CONFIG_DIR / "symmetric_buttiker.json").ring
        message = "too many lines in [1.0, 1000000000000000.0] to hold in memory"
        with pytest.raises(ValueError, match=re.escape(message)):
            find_resonances(cfg, 1.0, 1e15, ResonanceKind.PERFECT_TRANSMISSION)

    def test_many_lines_in_the_window(self):
        # 3183 lines, the last of them 4.1e-4 below k_max
        cfg = load_config(CONFIG_DIR / "symmetric_buttiker.json").ring
        result = find_resonances(cfg, 1.0, 1e4, ResonanceKind.PERFECT_TRANSMISSION)
        assert len(result.resonances) == 3183 and result.warnings == ()

    def test_warnings_beyond_ten_of_a_kind_are_counted(self, capsys):
        # [1e4, 1e5] holds 28,647 lines; at tol 1e-300 none is kept, and each warns
        argv = ["find", "--config", str(CONFIG_DIR / "symmetric_buttiker.json"), "--k-min", "1e4", "--k-max", "1e5",
                "--kind", "transmission", "--tol", "1e-300"]
        assert main(argv) == 0
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 11 and all(line.startswith("warning: analytic resonance at k=") for line in lines[:10])
        # the lines are n pi (dxi = 1), n = 3184..31830; the eleventh is 3194 pi
        assert lines[10] == (f"warning: 28637 more analytic resonances in [{3194 * PI:.12g}, {31830 * PI:.12g}] "
                             "have residuals not below tol")
        cfg = load_config(CONFIG_DIR / "symmetric_buttiker.json").ring
        result = find_resonances(cfg, 1e4, 1e5, ResonanceKind.PERFECT_TRANSMISSION, tol=1e-300)
        assert result.resonances == () and ["warning: " + w for w in result.warnings] == lines

    def test_minima_on_a_ring_with_no_zero_are_counted(self):
        # A symmetric ring never reflects perfectly, but with |h11| = 1 - 2e-8
        # its |F|^2 falls to 4e-16 halfway between lines: minima below tol
        # that are not zeros, one per period, enumerated whatever scan_n
        cfg = beam_cfg(b=1e-4)
        result = find_resonances(cfg, PI, 13 * PI, ResonanceKind.PERFECT_REFLECTION, scan_n=25)
        assert [r.k_star for r in result.resonances] == [(n + 0.5) * PI for n in range(1, 13)]
        assert len(result.warnings) == 11
        assert all(w.endswith("has no analytic counterpart") for w in result.warnings[:10])
        assert result.warnings[10] == (f"2 more found minima in [{result.resonances[10].k_star:.12g}, "
                                       f"{result.resonances[11].k_star:.12g}] have no analytic counterpart")


# -- the enumerated lines -------------------------------------------------------------

#: A time-reversal node (alpha, gamma, a in {0, pi}) that is not scale invariant.
#: Its antisymmetric ring with dxi = 1 is reciprocal, so |F|^2 vanishes at
#: every n pi (ROADMAP item 10), but so broadly that the default scan reads
#: 2.1e-10, 2.2e-11, 2.5e-11 around pi: no sample above tol.
TIME_REVERSAL_NODE = JunctionParams(
    theta=(4.943066750097003, 5.937976762063549, 3.2440404314539117), alpha=PI, beta=5.715059878449614,
    gamma=0.0, delta=3.07331687927355, a=0.0, b=2.4472920620965244, L0=0.3257678141090782,
)

#: An antisymmetric ring whose transmission lines come in pairs 5.4e-6 apart
#: and about 3e-10 wide (ROADMAP item 5a); the closed form reads them with a
#: rounding floor of 2.3e-8 in |A|^2.
PAIRED_LINES_RING = RingConfig(
    left=JunctionParams(theta=(PI, PI, 0.0), alpha=1.7078298370735892, beta=5.425404029503094,
                        gamma=0.19377656939194607, delta=3.141422392956025, a=0.07513512994031933,
                        b=4.247827229581608, L0=4.210641035623856),
    mode=ANTISYMMETRIC, xi1=5.007817054978091, xi2=-0.39831444354825596,
)


class TestEnumeration:
    def test_random_rings_equal_a_dense_scan(self, monkeypatch):
        # Every line a dense scan finds is enumerated, within the reach of
        # TestLockstep; the enumerated lines it lacks are zeros whose scan
        # samples on both sides read below tol, which its vanishing rule drops
        # (ROADMAP item 14).
        cases = []
        for seed in range(20):
            rng = np.random.default_rng([seed, 26])
            for mode in ("symmetric", "antisymmetric"):
                cfg = random_ring(rng, mode, True)
                cases += [(cfg, kind) for kind in ResonanceKind]
        k_min, k_max, scan_n = 0.5, 8.0, 8192
        enumerated = [find_resonances(cfg, k_min, k_max, kind) for cfg, kind in cases]
        monkeypatch.setattr(ring, "_arm_minima", lambda cfg: (None, None))  # every fresh ring is scanned
        lines = dropped = 0
        for (cfg, kind), got in zip(cases, enumerated):
            assert got.warnings == ()
            scanned = iter(find_resonances(copy.copy(cfg), k_min, k_max, kind, scan_n=scan_n).resonances)
            grid, values = scan_values(cfg, k_min, k_max, kind, scan_n)
            s = next(scanned, None)
            for r in got.resonances:
                lines += 1
                if s is not None:
                    reach = (math.sqrt(r.residual) + math.sqrt(s.residual)) / slope(cfg, kind, s.k_star)
                    if abs(r.k_star - s.k_star) <= max(4 * reach, 2 * math.ulp(s.k_star)):
                        s = next(scanned, None)
                        continue
                i = int(np.searchsorted(grid, r.k_star))
                assert max(values[i - 1], values[i]) <= 1e-8, (cfg, kind, r)
                dropped += 1
            assert s is None, (cfg, kind, s)  # no scanned line left unmatched
        assert lines > 200 and 0 < dropped < lines // 4

    def test_every_line_reads_below_tol_on_solve_auto(self):
        for name in ("symmetric_buttiker", "antisymmetric_generic"):
            cfg = load_config(CONFIG_DIR / f"{name}.json").ring
            for kind in ResonanceKind:
                for r in find_resonances(cfg, 0.5, 200.0, kind).resonances:
                    amps = solve_auto(cfg, r.k_star)
                    z = amps.A if kind is ResonanceKind.PERFECT_TRANSMISSION else amps.F
                    assert abs(z) ** 2 < 1e-8

    def test_line_narrower_than_the_scan_spacing(self):
        # |h11| = 1 - 2e-8: |A|^2 < tol only within about 1e-8 of each line,
        # 3.6e-3 being the default scan spacing on [0.5, 10]
        cfg = beam_cfg(b=1e-4)
        result = find_resonances(cfg, 0.5, 10.0, ResonanceKind.PERFECT_TRANSMISSION)
        assert [r.k_star for r in result.resonances] == [PI, 2 * PI, 3 * PI] and result.warnings == ()
        assert abs(solve_auto(cfg, PI + 1e-7).A) ** 2 > 1e-8

    def test_lines_closer_than_the_scan_spacing(self):
        cfg = PAIRED_LINES_RING
        k_min, k_max = 4.680997138913959, 7.021495708370939
        kind = ResonanceKind.PERFECT_TRANSMISSION
        near = [r.k_star for r in find_resonances(cfg, k_min, k_max, kind, tol=1e-6).resonances
                if abs(r.k_star - 6.10172) < 1e-4]
        assert len(near) == 2 and 5.3e-6 < near[1] - near[0] < 5.5e-6
        # at the default tol the rounding floor puts both in the warnings, each named
        warned = find_resonances(cfg, k_min, k_max, kind).warnings
        assert [sum(w.startswith(f"analytic resonance at k={k:.12g} has residual ") for w in warned)
                for k in near] == [1, 1]

    def test_an_identically_vanishing_amplitude_reports_nothing(self):
        # |h11| = sin(2e-9): |A|^2 stays below 2e-17, but the node is not
        # trivial enough for _expected_resonances to give up on it
        cfg = beam_cfg(b=PI / 4 - 1e-9)
        kind = ResonanceKind.PERFECT_TRANSMISSION
        assert _expected_resonances(cfg, kind, 0.5, 10.0)[0].size
        found = find_resonances(cfg, 0.5, 10.0, kind)
        assert (found.resonances, found.warnings) == ((), ())

    def test_broad_zeros_of_a_scale_invariant_node(self):
        # the scale-invariant counterpart of TIME_REVERSAL_NODE: the same
        # angles, eigenphases on {0, pi}; the scan reads its lines alike
        node = dataclasses.replace(TIME_REVERSAL_NODE, theta=(0.0, PI, 0.0))
        cfg = RingConfig(left=node, mode=ANTISYMMETRIC, xi1=1.0, xi2=0.0)
        result = find_resonances(cfg, 0.5, 10.0, ResonanceKind.PERFECT_REFLECTION)
        assert [r.k_star for r in result.resonances] == [PI, 2 * PI, 3 * PI] and result.warnings == ()

    def test_broad_zeros_of_a_time_reversal_node(self):
        # the premises of the xfail below
        cfg = RingConfig(left=TIME_REVERSAL_NODE, mode=ANTISYMMETRIC, xi1=1.0, xi2=0.0)
        assert is_time_reversal(cfg.left) and not is_scale_invariant(cfg.left)
        assert _expected_resonances(cfg, ResonanceKind.PERFECT_REFLECTION, 0.5, 10.0) is None
        assert all(abs(solve_auto(cfg, n * PI).F) ** 2 < 1e-30 for n in (1, 2, 3))
        grid = np.linspace(0.5, 10.0, _scan_count(0.5, 10.0, None))
        i = int(np.searchsorted(grid, PI))
        assert all(abs(solve_auto(cfg, k).F) ** 2 < 1e-9 for k in grid[i - 2:i + 2])

    def test_symmetric_rings_of_nodes_that_are_not_scale_invariant(self):
        # A = (1 - g) s11 / (1 - g |s11|^2) vanishes on the lattice n pi/dxi, and
        # where s11 does.  Where |s11| >= 2 max_j |V0j|^2 - 1 > 0.1 at every k,
        # find reports exactly the lattice points that read below tol and warns
        # on the others, and a 200,000-point scan of |A|^2 has no dip below tol
        # off the lattice; the nodes below that bound are scanned
        k_min, k_max, tol = 0.5, 10.0, 1e-8
        kind, column = ResonanceKind.PERFECT_TRANSMISSION, (True,) + (False,) * 5
        grid = np.linspace(k_min, k_max, 200_000)
        rng = np.random.default_rng([32, 20])
        enumerated = 0
        while enumerated < 20:
            cfg = random_ring(rng, "symmetric", False)
            assert not is_scale_invariant(cfg.left)
            bounded = 2.0 * np.abs(build_V(cfg.left)[0]).max() ** 2 - 1.0 > 0.1
            assert (_expected_resonances(cfg, kind, k_min, k_max) is not None) == bounded, cfg
            if not bounded:
                continue
            enumerated += 1
            n = np.arange(math.ceil(k_min * cfg.dxi / PI), math.floor(k_max * cfg.dxi / PI) + 1, dtype=float)
            lattice = n * PI / cfg.dxi
            values = np.abs(solve_grid(cfg, lattice)[0][:, 0]) ** 2
            found = find_resonances(cfg, k_min, k_max, kind, tol=tol)
            assert found.lines[:, 0].tolist() == lattice[values < tol].tolist(), cfg
            unread = int((values >= tol).sum())
            assert len(found.warnings) == min(unread, 10) + (unread > 10), cfg
            scan = np.abs(_solve_grid_columns(cfg, grid, column)[0][:, 0]) ** 2
            mid = scan[1:-1]
            dips = grid[1:-1][(mid < scan[:-2]) & (mid < scan[2:]) & (mid < tol)]
            assert (np.abs(dips[:, None] - lattice).min(axis=1, initial=math.inf) <= grid[1] - grid[0]).all(), cfg
        # equal exterior weights (1/2, 1/2, 0): s11 = (d1 + d2)/2 vanishes where the
        # phases of d1 and d2 differ by pi, at k = sqrt(tan(1/2) |tan 2|), no
        # lattice point; the node is scanned, and find reports that broad line too
        cfg = RingConfig(left=JunctionParams(theta=(1.0, 4.0, 2.0), b=PI / 4), mode=SYMMETRIC, xi1=1.0, xi2=0.0)
        assert _expected_resonances(cfg, kind, k_min, k_max) is None
        found = find_resonances(cfg, k_min, k_max, kind, tol=tol)
        want = [math.sqrt(abs(math.tan(0.5) * math.tan(2.0))), PI, 2.0 * PI, 3.0 * PI]
        assert found.lines[:, 0] == pytest.approx(want, rel=1e-12) and found.warnings == ()

    def test_equal_nodes_of_a_general_ring_search_as_the_symmetric_ring(self):
        # General(right=left) takes the symmetric ring's route, so its search too
        buttiker = load_config(CONFIG_DIR / "symmetric_buttiker.json").ring
        generic = dataclasses.replace(buttiker.left, theta=(0.9, 2.4, 4.1))
        for node in (buttiker.left, generic):
            symmetric = RingConfig(left=node, mode=SYMMETRIC, xi1=1.0, xi2=0.0)
            general = RingConfig(left=node, mode=General(node), xi1=1.0, xi2=0.0)
            for kind in ResonanceKind:
                for k_min, k_max in ((0.5, 10.0), (1e4, 1e5)):
                    want = find_resonances(symmetric, k_min, k_max, kind)
                    got = find_resonances(general, k_min, k_max, kind)
                    assert np.array_equal(got.lines, want.lines) and got.warnings == want.warnings

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 14: the scan drops a zero whose samples all read below tol")
    def test_scan_keeps_broad_zeros(self):
        cfg = RingConfig(left=TIME_REVERSAL_NODE, mode=ANTISYMMETRIC, xi1=1.0, xi2=0.0)
        result = find_resonances(cfg, 0.5, 10.0, ResonanceKind.PERFECT_REFLECTION)
        assert [round(r.k_star / PI, 9) for r in result.resonances] == [1.0, 2.0, 3.0]


# -- the minima of the kinds that have no zero ---------------------------------------

#: An antisymmetric ring whose transmission target c* = -1.000002 lies just out
#: of range: |A|^2 never vanishes, but its minima on (n - 1/2) pi/dxi read
#: 3.6e-13, below the default tol.
NEAR_TARGET_RING = RingConfig(
    left=JunctionParams(theta=(PI, 0.0, 0.0), alpha=1.904008891790084, beta=1.7493997150940617,
                        gamma=1.6013928483953153, delta=2.796496905695612, a=3.1701702074476534,
                        b=0.5213447277355331, L0=4.978401360485085),
    mode=ANTISYMMETRIC, xi1=1.7, xi2=0.2,
)


def rings_with_minima(kind: ResonanceKind, count: int) -> list[RingConfig]:
    """count random scale-invariant rings on which kind has minima but no zero.

    Reflection on symmetric rings, transmission on antisymmetric rings whose
    target is out of range.
    """
    mode = "symmetric" if kind is ResonanceKind.PERFECT_REFLECTION else "antisymmetric"
    rng = np.random.default_rng([28, len(mode)])
    rings = []
    while len(rings) < count:
        cfg = random_ring(rng, mode, True)
        expected = _expected_resonances(cfg, kind, 1.0, 2.0)
        if expected is not None and expected[1] > 0.0:
            rings.append(cfg)
    return rings


def weakly_coupled_rings(seed: int, count: int) -> list[RingConfig]:
    """count scale-invariant nodes that couple their exterior wire weakly, each in a symmetric and an antisymmetric ring.

    theta alternates between (0, 0, pi) and (pi, pi, 0); alpha, gamma, a, b are
    uniform on [0, 2 pi); beta and delta are each eps U(0.5, 1), eps =
    10^U(-7.5, -3), so 1 - |h11| ranges from rounding level to about 1e-6;
    xi2 = 0 and dxi = xi1 is U(0.5, 3).
    """
    rng = np.random.default_rng(seed)
    rings = []
    for i in range(count):
        alpha, gamma, a, b = rng.uniform(0.0, 2 * PI, 4).tolist()
        beta, delta = (10.0 ** rng.uniform(-7.5, -3.0) * rng.uniform(0.5, 1.0, 2)).tolist()
        node = JunctionParams(theta=(0.0, 0.0, PI) if i % 2 == 0 else (PI, PI, 0.0), alpha=alpha, beta=beta,
                              gamma=gamma, delta=delta, a=a, b=b)
        dxi = float(rng.uniform(0.5, 3.0))
        rings += [RingConfig(left=node, mode=mode, xi1=dxi, xi2=0.0) for mode in (SYMMETRIC, ANTISYMMETRIC)]
    return rings


class TestArmMinima:
    @pytest.mark.parametrize("mode", ["symmetric", "antisymmetric"])
    def test_probabilities_repeat_every_line_spacing(self, mode):
        # the premise of the enumeration: a scale-invariant node's matrix does
        # not depend on k, so |A|^2 and |F|^2 have the period pi/dxi; each
        # probability within twice its amplitude's contract bound at either end
        rng = np.random.default_rng([28, 1, len(mode)])
        for _ in range(40):
            cfg = random_ring(rng, mode, True)
            ks = rng.uniform(0.5, 10.0, 16)
            shifted = ks + rng.integers(1, 9, 16) * PI / cfg.dxi
            here, there = (np.abs(solve_grid(cfg, x)[0][:, [0, 5]]) ** 2 for x in (ks, shifted))
            bound = [2 * (contract_bound(cfg, a) + contract_bound(cfg, b))
                     for a, b in zip(ks.tolist(), shifted.tolist())]
            assert (np.abs(here - there).max(axis=1) <= bound).all(), cfg

    @pytest.mark.parametrize("kind", list(ResonanceKind))
    def test_minimum_is_the_least_of_a_dense_period(self, kind):
        column = 0 if kind is ResonanceKind.PERFECT_TRANSMISSION else 5

        def probability(cfg, ks):
            return np.abs(solve_grid(cfg, ks)[0][:, column]) ** 2

        for cfg in rings_with_minima(kind, 40):
            period = PI / cfg.dxi
            k0 = 1.0 + 0.3 * period
            positions, analytic = _expected_resonances(cfg, kind, k0, k0 + period)
            positions = in_window(positions, k0, k0 + period)
            assert len(positions) in (1, 2), cfg
            least = probability(cfg, positions)
            # a dense period, then a dense step either side of its least row
            dense = np.linspace(k0, k0 + period, 20001)
            i = int(np.argmin(probability(cfg, dense)))
            fine = np.linspace(dense[max(i - 1, 0)], dense[min(i + 1, dense.size - 1)], 2001)
            values = probability(cfg, fine)
            k_dense, dense_least = fine[np.argmin(values)].item(), values.min()
            for k, value in zip(positions, least.tolist()):
                # the analytic least, and nothing in the period reads lower, beyond each row's contract
                assert abs(value - analytic) <= 2 * contract_bound(cfg, k), (cfg, k)
                assert value <= dense_least + 2 * (contract_bound(cfg, k) + contract_bound(cfg, k_dense)), (cfg, k)
                # and the dense evaluation reaches the same value
                assert dense_least <= value * (1 + 1e-9), (cfg, k)
                # a minimum at 50 digits, against 1e-4 of a period to either side
                step = 1e-4 * period
                left, mid, right = (abs(mp_resolvent_amplitudes(*cfg._route.arrays(x))[column]) ** 2
                                    for x in (k - step, k, k + step))
                assert mid < min(left, right), (cfg, k)

    def test_a_minimum_below_tol_is_answered_without_a_refine(self, monkeypatch):
        cfg, kind = NEAR_TARGET_RING, ResonanceKind.PERFECT_TRANSMISSION
        assert perfect_transmission_target(cfg).status == "out_of_range"
        calls = []
        solve_grid_columns = spectrum._solve_grid_columns

        def recording(cfg, ks, columns):
            calls.append(np.asarray(ks))
            return solve_grid_columns(cfg, ks, columns)

        monkeypatch.setattr(spectrum, "_solve_grid_columns", recording)
        monkeypatch.setattr(spectrum, "solve_auto", None)  # a refine probe would raise
        result = find_resonances(cfg, 2.0, 6.0, kind)
        lines = [(n - 0.5) * PI / cfg.dxi for n in (2, 3)]
        assert [r.k_star for r in result.resonances] == lines
        assert all(r.residual < 1e-12 for r in result.resonances)
        # one kernel call: the two positions and the midpoints to their neighbours
        (ks,) = calls
        assert ks[1::2].tolist() == lines and ks.size == 5
        assert list(result.warnings) == [f"found minimum at k={r.k_star:.12g} (residual {r.residual:.3e}) "
                                         "has no analytic counterpart" for r in result.resonances]
        # A scan and refine of 360 points finds the same two minima.  At the
        # default 977 both scan neighbours of each read below tol, and the
        # vanishing rule drops both (ROADMAP item 14).
        monkeypatch.setattr(spectrum, "solve_auto", solve_auto)
        monkeypatch.setattr(spectrum, "_expected_resonances", lambda *args: None)
        scanned = find_resonances(cfg, 2.0, 6.0, kind, scan_n=360).resonances
        assert len(scanned) == 2 and all(abs(r.k_star - k) < 1e-7 for r, k in zip(scanned, lines))
        assert find_resonances(cfg, 2.0, 6.0, kind).resonances == ()

    def test_minima_at_or_above_tol_are_not_evaluated(self, monkeypatch):
        # symmetric_buttiker (|h11| = 1/2): |F|^2 is least at ((1 - rho)/(1 + rho))^2 = 0.36
        cfg = load_config(CONFIG_DIR / "symmetric_buttiker.json").ring
        kind = ResonanceKind.PERFECT_REFLECTION
        positions, least = _expected_resonances(cfg, kind, 1e4, 1e5)
        assert least == pytest.approx(0.36, rel=1e-12)
        assert abs(solve_auto(cfg, in_window(positions, 1e4, 1e5)[0]).F) ** 2 == pytest.approx(least, rel=1e-12)
        with monkeypatch.context() as patched:
            patched.setattr(spectrum, "_solve_grid_columns", None)  # an evaluation would raise
            found = find_resonances(cfg, 1e4, 1e5, kind)
            assert (found.resonances, found.warnings) == ((), ())
        # below tol, each of the 28,648 minima is read, reported and a warning
        result = find_resonances(cfg, 1e4, 1e5, kind, tol=0.5)
        assert len(result.resonances) == 28_648 and len(result.warnings) == 11
        assert result.warnings[-1] == (f"28638 more found minima in [{(3194 - 0.5) * PI:.12g}, "
                                       f"{(31831 - 0.5) * PI:.12g}] have no analytic counterpart")

    def test_constants_are_computed_once_per_ring(self, monkeypatch):
        calls = []
        arm_minima = ring._arm_minima
        monkeypatch.setattr(ring, "_arm_minima", lambda cfg: calls.append(cfg) or arm_minima(cfg))
        cfg = RingConfig(left=GENERIC_SI, mode=ANTISYMMETRIC, xi1=1.0, xi2=0.0)
        for _ in range(3):
            for kind in ResonanceKind:
                find_resonances(cfg, 0.5, 10.0, kind)
        assert calls == [cfg]

    def test_a_target_of_a_weak_coupling_is_out_of_range(self, monkeypatch):
        # h11 = 1e-7, with an imaginary rounding of 6.4e-18 that an absolute check
        # on the ratio -lambda/(2 h11) once magnified past 1e-10: the ratio is
        # real, and so far out of range that find answers from the ring's
        # analytic minimum, 0.576, at least tol: no evaluation, no line, no warning
        node = JunctionParams(theta=(PI, 0.0, 0.0), alpha=5.034555946803014, beta=3.6578319513973883,
                              gamma=0.5914277019096399, delta=2.721416827037463, a=3.0099680778637956,
                              b=1.1257002335782964, L0=3.7259703267642297)
        cfg = RingConfig(left=node, mode=ANTISYMMETRIC, xi1=1.0, xi2=0.0)
        target = perfect_transmission_target(cfg)
        assert target.status == "out_of_range" and target.c_star is None
        kind = ResonanceKind.PERFECT_TRANSMISSION
        _, least = _expected_resonances(cfg, kind, 0.5, 10.0)
        assert least == pytest.approx(0.576, abs=1e-3)
        monkeypatch.setattr(spectrum, "_solve_grid_columns", None)  # an evaluation would raise
        monkeypatch.setattr(spectrum, "solve_auto", None)
        found = find_resonances(cfg, 0.5, 10.0, kind)
        assert (found.resonances, found.warnings) == ((), ())

    def test_decoupled_rings_stay_on_the_scan(self):
        # |h11| = 1: F vanishes identically, and its noise dips are no minima;
        # so on a node that is not scale invariant whose U leaves the exterior
        # wire alone (every Euler angle 0), with no warning.  [pi, 6] and
        # [pi, 2 pi] start on a line n pi/dxi, a bound state: that scan row
        # is degenerate, and a noise dip beside it is no line either
        nodes = [JunctionParams(theta=theta, beta=0.7) for theta in ((0.0, 0.0, 0.0), (PI, PI, PI))]
        for node in nodes + [JunctionParams(theta=(0.9, 2.4, 4.1))]:
            cfg = RingConfig(left=node, mode=SYMMETRIC, xi1=4.0, xi2=0.0)
            if node in nodes:
                assert solve_grid(cfg, np.array([PI, 2 * PI]))[1].all()
            for k_min, k_max in ((4.0, 6.0), (PI, 6.0), (PI, 2 * PI)):
                for kind in ResonanceKind:
                    assert _expected_resonances(cfg, kind, k_min, k_max) is None
                    found = find_resonances(cfg, k_min, k_max, kind)
                    assert (found.resonances, found.warnings) == ((), ())

    def test_weakly_coupled_rings_lose_no_line(self):
        # A weakly coupled exterior wire makes lines about 1 - |h11|^2 wide, some reading
        # far above tol at their analytic float; only den = 0 at g = 1 (DEGENERATE_TOL) is a
        # decoupling, and 1 - |h11|^2 below it decouples the exterior wire of either ring,
        # which is scanned and reflects nowhere.  Each other lattice point n pi/dxi in
        # [0.5, 10] (the symmetric ring's transmission zeros, the antisymmetric ring's
        # reflection zeros) is a line or a warning.  On the antisymmetric ring den = 1 -
        # g trm + rho g^2 nearly vanishes at g = -1, the midpoints, so most of them read
        # degenerate: such a midpoint keeps its lines.  Every search's reported k* reads
        # below 2 tol at 50 digits.
        tol, tally = 1e-8, collections.Counter()
        for cfg in weakly_coupled_rings(37, 60):
            symmetric = cfg.mode is SYMMETRIC
            for kind in ResonanceKind:
                result = find_resonances(cfg, 0.5, 10.0, kind, tol=tol)
                assert not any("residual nan" in w for w in result.warnings), (cfg, kind)
                column = 0 if kind is ResonanceKind.PERFECT_TRANSMISSION else 5
                for k in result.lines[:, 0].tolist():
                    assert abs(mp_resolvent_amplitudes(*cfg._route.arrays(k))[column]) ** 2 < 2 * tol, (cfg, k)
                if symmetric is not (kind is ResonanceKind.PERFECT_TRANSMISSION):
                    continue
                if cfg._minima == (None, None):
                    assert result.lines.size == 0, cfg
                    tally[cfg.mode, "decoupled"] += 1
                    continue
                # every lattice point in the window, as find computes them
                positions = np.arange(0.0, 10.0 * cfg.dxi / PI + 2.0) * PI / cfg.dxi
                inside = positions[(positions > 0.5) & (positions < 10.0)]
                warned = [float(re.search(r"k=(\S+) ", w).group(1)) for w in result.warnings]
                assert len(warned) <= 10  # no warning stands for a count
                for k in inside.tolist():
                    if k in result.lines[:, 0]:
                        tally[cfg.mode, "line"] += 1
                    else:
                        assert any(abs(w - k) <= 1e-11 * k for w in warned), (cfg, k)
                        tally[cfg.mode, "warning"] += 1
        # each outcome occurs: the family reaches every branch
        assert all(tally[SYMMETRIC, what] for what in ("line", "warning", "decoupled")), tally
        assert tally[ANTISYMMETRIC, "line"] and tally[ANTISYMMETRIC, "decoupled"], tally

    @pytest.mark.parametrize("scan_n", [None, 400, 1000])
    @pytest.mark.parametrize("name, theta", [("symmetric_buttiker", (PI, PI, PI)),
                                             ("antisymmetric_generic", (0.0, 0.0, 0.0))])
    def test_a_decoupled_shipped_ring_reflects_nowhere(self, name, theta, scan_n):
        # U = -I or I: every wire decouples, F vanishes identically, and the closed
        # interior ring has a bound state at each n pi/dxi, a degenerate scan row
        # at both ends of [pi, 10 pi].  Such a row reads NaN, so it is no rim of a
        # noise dip (exactly 0, or 1e-32 to 1e-68 beside it): no line, no warning
        base = load_config(CONFIG_DIR / f"{name}.json").ring
        cfg = dataclasses.replace(base, left=dataclasses.replace(base.left, theta=theta))
        kind = ResonanceKind.PERFECT_REFLECTION
        assert _expected_resonances(cfg, kind, PI, 10 * PI) is None
        grid = np.linspace(PI, 10 * PI, _scan_count(PI, 10 * PI, scan_n))
        assert solve_grid(cfg, grid)[1][[0, -1]].all()
        found = find_resonances(cfg, PI, 10 * PI, kind, scan_n=scan_n)
        assert (found.resonances, found.warnings) == ((), ())


class TestResonanceValue:
    def test_a_frozen_value_with_slots(self):
        r = Resonance(k_star=PI, kind=ResonanceKind.PERFECT_TRANSMISSION, residual=1e-20)
        twin = Resonance(k_star=PI, kind=ResonanceKind.PERFECT_TRANSMISSION, residual=1e-20)
        assert r == twin and hash(r) == hash(twin) and len({r, twin}) == 1
        assert r != dataclasses.replace(r, residual=2e-20)
        assert Resonance.__slots__ == ("k_star", "kind", "residual") and not hasattr(r, "__dict__")
        with pytest.raises(dataclasses.FrozenInstanceError):
            r.k_star = 1.0
        with pytest.raises((AttributeError, TypeError)):  # no field, no __dict__ to hold it
            r.width = 1e-3
        clones = [pickle.loads(pickle.dumps(r, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        for clone in clones + [copy.copy(r), copy.deepcopy(r)]:
            assert clone == r and clone.kind is ResonanceKind.PERFECT_TRANSMISSION

    @pytest.mark.parametrize("scanned", [False, True])
    @pytest.mark.parametrize("kind", list(ResonanceKind))
    def test_a_search_holds_its_lines_as_one_read_only_array(self, monkeypatch, kind, scanned):
        if scanned:
            monkeypatch.setattr(spectrum, "_expected_resonances", lambda *args: None)
        result = find_resonances(load_config(CONFIG_DIR / "symmetric_buttiker.json").ring, 0.5, 10.0, kind)
        assert result.kind is kind and result.lines.dtype == float
        assert result.lines.shape == ((3, 2) if kind is ResonanceKind.PERFECT_TRANSMISSION else (0, 2))
        assert not result.lines.flags.writeable
        assert result.resonances is result.resonances  # built once, on first access
        assert [(r.k_star, r.kind, r.residual) for r in result.resonances] == [
            (k, kind, residual) for k, residual in result.lines.tolist()]
