import copy
import dataclasses
import json
import math
import pickle
import re
from pathlib import Path

import numpy as np
import pytest

from yring import (
    ANTISYMMETRIC,
    SYMMETRIC,
    General,
    JunctionParams,
    Resonance,
    ResonanceKind,
    RingConfig,
    config_fingerprint,
    find_resonances,
    sweep,
)
from yring import spectrum
from yring.cli import main
from yring.config import load_config
from yring.junction import EULER_ANGLES
from yring.spectrum import SCAN_PER_DECADE, _cross_check, _expected_resonances

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
        assert math.isnan(spec.points[1].p_refl)
        assert spec.points[1].amps is None
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

    @pytest.mark.xfail(strict=True, reason="the absolute DEGENERATE_TOL flags a regular row next "
                       "to a bound state (ROADMAP item 4)")
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

    def test_coarse_scan_warns_about_missed_resonances(self):
        cfg = beam_cfg()
        result = find_resonances(
            cfg, 0.1, 10.0, ResonanceKind.PERFECT_TRANSMISSION, scan_n=4
        )
        assert len(result.resonances) < 3
        assert result.warnings

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


def quadratic_cross_check(found, expected, k_min, k_max, scan_n) -> list[str]:
    """The cross-check as first written, every resonance against every position: the reference."""
    warnings = []
    step = (k_max - k_min) / (scan_n - 1)
    for ke in expected:
        if ke <= k_min + step or ke >= k_max - step:
            continue  # too close to the range edge to bracket
        if not any(abs(r.k_star - ke) <= 1e-6 * max(1.0, abs(ke)) for r in found):
            warnings.append(
                f"analytic resonance near k={ke:.12g} was not recovered; "
                f"scan_n={scan_n} may be too coarse"
            )
    for r in found:
        if not any(abs(r.k_star - ke) <= 1e-6 * max(1.0, abs(ke)) for ke in expected):
            warnings.append(
                f"found minimum at k={r.k_star:.12g} (residual {r.residual:.3e}) "
                "has no analytic counterpart"
            )
    return warnings


def capped(warnings: list[str], scan_n: int) -> list[str]:
    """Warnings as the cross-check reports them: the first ten of each kind, then one line for the rest."""
    out = []
    for marker, what, verdict in [
        ("was not recovered", "analytic resonances", f"were not recovered; scan_n={scan_n} may be too coarse"),
        ("no analytic counterpart", "found minima", "have no analytic counterpart"),
    ]:
        kind = [w for w in warnings if marker in w]
        rest = [float(re.search(r"k=([^ ;]+)", w).group(1)) for w in kind[10:]]
        out += kind[:10]
        if rest:
            out.append(f"{len(rest)} more {what} in [{min(rest):.12g}, {max(rest):.12g}] {verdict}")
    return out


def lattice_from_first_line(cfg, kind, k_min, k_max):
    """The analytic positions built from n = 1 (or 0) up, as first written, then cut to the window."""
    every = _expected_resonances(cfg, kind, 1e-300, k_max)  # the window starts below the first line
    return None if every is None else [ke for ke in every if k_min < ke < k_max]


ANTI_SI = RingConfig(left=GENERIC_SI, mode=ANTISYMMETRIC, xi1=1.0, xi2=0.0)

#: (ring, kind, k_min, k_max, scan_n): full scans, coarse scans that miss
#: lines, and windows that start far from the first line; 37.71 lies just
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
    def test_equals_the_quadratic_reference(self, ring, kind, k_min, k_max, scan_n):
        expected = _expected_resonances(ring, kind, k_min, k_max)
        assert expected == lattice_from_first_line(ring, kind, k_min, k_max)
        assert expected == sorted(expected) and expected
        result = find_resonances(ring, k_min, k_max, kind, scan_n=scan_n)
        if scan_n is None:
            scan_n = max(256, int(SCAN_PER_DECADE * math.log10(k_max / k_min)))
        reference = quadratic_cross_check(result.resonances, expected, k_min, k_max, scan_n)
        assert list(result.warnings) == capped(reference, scan_n)

    def test_the_searches_miss_lines(self):
        missed = 0
        for ring, kind, k_min, k_max, scan_n in CROSS_CHECK_SEARCHES:
            warnings = find_resonances(ring, k_min, k_max, kind, scan_n=scan_n).warnings
            missed += sum("was not recovered" in w for w in warnings)
        assert missed > 20

    def test_extra_and_shifted_minima(self):
        # positions around the match tolerance, on both sides and below and above 1
        expected = [0.25, 0.7, 1.0, 3.0, 5.5, 120.0, 4.5e6]
        k_min, k_max, scan_n = 0.01, 5e6, 10**9
        stars = []
        for ke in expected:
            tol = 1e-6 * max(1.0, ke)
            for k in (ke + tol, ke - tol, ke + 2.0 * tol, ke - 1.5 * tol):
                stars += [k, math.nextafter(k, math.inf), math.nextafter(k, -math.inf)]
        stars += [0.5, 2.0, 4e6]  # between the positions
        rng = np.random.default_rng(4)
        for order in (sorted(stars), list(rng.permutation(stars))):
            found = [Resonance(k_star=float(k), kind=ResonanceKind.PERFECT_TRANSMISSION, residual=1e-12)
                     for k in order]
            for drop in (0, 1, 2):  # every position matched, then some left bare
                kept = [r for r in found if not (drop and abs(r.k_star - expected[drop]) < 1e-3 * expected[drop])]
                reference = quadratic_cross_check(kept, expected, k_min, k_max, scan_n)
                assert _cross_check(kept, expected, k_min, k_max, scan_n) == capped(reference, scan_n)
                assert any("no analytic counterpart" in w for w in reference)
                assert any("not recovered" in w for w in reference) == bool(drop)

    def test_wide_lattice(self):
        # 50000 lines: the pairwise reference would make 2.5e9 comparisons
        dxi = 1.3
        expected = [n * PI / dxi for n in range(1, 50_001)]
        k_min, k_max = 0.5 * PI / dxi, 50_000.5 * PI / dxi
        missed = set(range(17, 50_000, 1000))
        found = [Resonance(k_star=ke * (1.0 + 3e-7), kind=ResonanceKind.PERFECT_REFLECTION, residual=0.0)
                 for n, ke in enumerate(expected) if n not in missed]
        extras = [Resonance(k_star=(n + 0.5) * PI / dxi, kind=ResonanceKind.PERFECT_REFLECTION, residual=1e-9)
                  for n in range(5, 50_000, 777)]
        found = sorted(found + extras, key=lambda r: r.k_star)
        warnings = _cross_check(found, expected, k_min, k_max, 1_000_000)
        not_recovered = [f"analytic resonance near k={expected[n]:.12g} was not recovered; "
                         "scan_n=1000000 may be too coarse" for n in sorted(missed)]
        unexplained = [f"found minimum at k={r.k_star:.12g} (residual 1.000e-09) has no analytic counterpart"
                       for r in extras]
        assert len(not_recovered) == 50 and len(unexplained) == 65
        assert warnings == capped(not_recovered + unexplained, 1_000_000)
        assert warnings[10] == (f"40 more analytic resonances in [{expected[10_017]:.12g}, {expected[49_017]:.12g}] "
                                "were not recovered; scan_n=1000000 may be too coarse")
        assert warnings[21].startswith("55 more found minima in [") and len(warnings) == 22

    def test_window_far_from_the_first_line(self):
        # the lattice from n = 1 would hold 3e11 lines here
        cfg = load_config(CONFIG_DIR / "symmetric_buttiker.json").ring
        k_min, k_max = 1e12, 1e12 + 10.0
        result = find_resonances(cfg, k_min, k_max, ResonanceKind.PERFECT_TRANSMISSION)
        near = range(int(k_min * cfg.dxi / PI) - 3, int(k_max * cfg.dxi / PI) + 3)
        lines = [n * PI / cfg.dxi for n in near if k_min < n * PI / cfg.dxi < k_max]
        assert _expected_resonances(cfg, ResonanceKind.PERFECT_TRANSMISSION, k_min, k_max) == lines
        assert len(lines) == 3 and len(result.resonances) == 3 and result.warnings == ()

    def test_many_lines_in_the_window(self):
        # 3183 lines; the pairwise cross-check took seconds here
        cfg = load_config(CONFIG_DIR / "symmetric_buttiker.json").ring
        result = find_resonances(cfg, 1.0, 1e4, ResonanceKind.PERFECT_TRANSMISSION)
        assert len(result.resonances) == 3182 and result.warnings == ()

    def test_warnings_beyond_ten_of_a_kind_are_counted(self, capsys):
        # [1e4, 1e5] holds about 28,650 lines, and a 512-point scan recovers 31
        argv = ["find", "--config", str(CONFIG_DIR / "symmetric_buttiker.json"), "--k-min", "1e4", "--k-max", "1e5",
                "--kind", "transmission", "--n", "512"]
        assert main(argv) == 0
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 11 and all(line.startswith("warning: analytic resonance near k=") for line in lines[:10])
        assert lines[10] == ("warning: 28494 more analytic resonances in [10210.1761242, 99820.9649752] "
                             "were not recovered; scan_n=512 may be too coarse")
        cfg = load_config(CONFIG_DIR / "symmetric_buttiker.json").ring
        kind = ResonanceKind.PERFECT_TRANSMISSION
        result = find_resonances(cfg, 1e4, 1e5, kind, scan_n=512)
        reference = quadratic_cross_check(result.resonances, _expected_resonances(cfg, kind, 1e4, 1e5), 1e4, 1e5, 512)
        assert len(result.resonances) == 31 and len(reference) == 28504
        assert ["warning: " + w for w in capped(reference, 512)] == lines
