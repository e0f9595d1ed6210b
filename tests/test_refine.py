"""The Newton refine of find_resonances against the golden-section refine it replaced.

`reference_find` below keeps the previous search: the same scan, the
previous bracket rule (every strict local minimum whose neighbours are not
both below tol), and golden-section search on |A|^2 or |F|^2 down to a
width of 1e-12 (k_max - k_min), ending with a probe at the midpoint.  Both
searches probe through `spectrum.solve_auto`, so one wrapper counts both.
"""

import math

import numpy as np
import pytest

from test_grid import random_ring
from yring import (
    ANTISYMMETRIC,
    SYMMETRIC,
    AntiSymmetric,
    DegenerateRingError,
    JunctionParams,
    ResonanceKind,
    RingConfig,
    find_resonances,
    perfect_transmission_target,
    spectrum,
)
from yring.spectrum import _expected_resonances

PI = math.pi
INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
EPS = np.finfo(float).eps


# -- the previous golden-section search, kept as the reference ------------------


def reference_golden(f, a: float, b: float, width: float) -> tuple[float, float]:
    x1 = b - INVPHI * (b - a)
    x2 = a + INVPHI * (b - a)
    f1, f2 = f(x1), f(x2)
    while (b - a) > width:
        if f1 < f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - INVPHI * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + INVPHI * (b - a)
            f2 = f(x2)
    x = 0.5 * (a + b)
    return x, f(x)


def scan_values(cfg, k_min, k_max, kind, scan_n=None):
    if scan_n is None:
        scan_n = max(256, int(spectrum.SCAN_PER_DECADE * math.log10(k_max / k_min)))
    grid = np.linspace(k_min, k_max, scan_n)
    amps, degenerate = spectrum.solve_grid(cfg, grid)
    target = amps[:, 0 if kind is ResonanceKind.PERFECT_TRANSMISSION else 5]
    values = np.abs(target) ** 2
    values[degenerate] = math.inf
    return grid, values


def reference_dips(values, tol=1e-8) -> list[int]:
    return [
        i for i in range(1, len(values) - 1)
        if values[i] < values[i - 1] and values[i] < values[i + 1]
        and max(values[i - 1], values[i + 1]) > tol
    ]


def reference_find(cfg, k_min, k_max, kind, scan_n=None, tol=1e-8) -> list[tuple[float, float, float, float]]:
    """(bracket start, bracket end, k*, residual) of every minimum the previous search kept."""
    grid, values = scan_values(cfg, k_min, k_max, kind, scan_n)

    def f(k):
        try:
            amps = spectrum.solve_auto(cfg, k)
        except DegenerateRingError:
            return math.inf
        return amps.p_reflection if kind is ResonanceKind.PERFECT_TRANSMISSION else amps.p_transmission

    width = 1e-12 * (k_max - k_min)
    found = []
    for i in reference_dips(values, tol):
        a, b = float(grid[i - 1]), float(grid[i + 1])
        k_star, residual = reference_golden(f, a, b, width)
        if residual < tol:
            found.append((a, b, k_star, residual))
    return found


# -- inputs ----------------------------------------------------------------------------


def corpus(seed: int, n: int):
    """n seeded rings in every mode, scale-invariant or not, with a search window each.

    Nodes with three equal eigenphases reflect totally, so their searches
    only refine rounding noise; they are redrawn.
    """
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < n:
        i = len(out)
        cfg = random_ring(rng, ("symmetric", "antisymmetric", "general")[i % 3], bool(i % 2))
        if len(set(cfg.left.theta)) == 1:
            continue  # a totally reflecting node: TestScanRule covers it
        dxi = float(rng.uniform(0.5, 8.0))
        cfg = RingConfig(left=cfg.left, mode=cfg.mode, xi1=cfg.xi2 + dxi, xi2=cfg.xi2)
        k_min = float(rng.uniform(0.5, 5.0))
        out.append((cfg, k_min, 1.5 * k_min))
    return out


def refine_batch():
    """Rings like the benchmark's find-refine batch: long arms, decoupled nodes, window [4, 6]."""
    rng = np.random.default_rng(20240613)
    rings = [
        RingConfig(left=JunctionParams(theta=(0.0, 0.0, 0.0), beta=0.7), mode=SYMMETRIC, xi1=4.0, xi2=0.0),
        RingConfig(left=JunctionParams(theta=(PI, PI, PI), beta=0.7), mode=SYMMETRIC, xi1=12.0, xi2=0.0),
    ]
    for dxi in np.geomspace(3.0, 30.0, 8).tolist():
        for mode in (SYMMETRIC, ANTISYMMETRIC):
            left = random_ring(rng, "symmetric", True).left
            rings.append(RingConfig(left=left, mode=mode, xi1=dxi, xi2=0.0))
    for dxi in np.geomspace(3.0, 30.0, 4).tolist():
        general = random_ring(rng, "general", False)
        rings.append(RingConfig(left=general.left, mode=general.mode, xi1=dxi, xi2=0.0))
    return rings


def nearest(values, x):
    return min(values, key=lambda v: abs(v - x)) if values else None


# -- the corpus ------------------------------------------------------------------------


@pytest.fixture(scope="module")
def searches():
    """Both searches on 300 rings x 2 kinds: (cfg, k_min, k_max, kind, reference, found)."""
    out = []
    for cfg, k_min, k_max in corpus(20240613, 300):
        for kind in ResonanceKind:
            reference = reference_find(cfg, k_min, k_max, kind)
            found = find_resonances(cfg, k_min, k_max, kind).resonances
            out.append((cfg, k_min, k_max, kind, reference, found))
    return out


class TestAgainstGoldenSection:
    def test_every_reference_bracket_keeps_its_resonance(self, searches):
        kept = 0
        for cfg, k_min, k_max, kind, reference, found in searches:
            for a, b, k_ref, _ in reference:
                assert any(a < r.k_star < b for r in found), (cfg, kind, k_ref)
            kept += len(reference)
        assert kept > 300  # the corpus holds resonances to lose

    def test_analytic_positions_to_the_last_bits(self, searches):
        checked = exact = 0
        for cfg, k_min, k_max, kind, reference, found in searches:
            expected = _expected_resonances(cfg, kind, k_min, k_max)
            slack = 0.0
            if expected and isinstance(cfg.mode, AntiSymmetric) and kind is ResonanceKind.PERFECT_TRANSMISSION:
                # cos(2 k dxi) = c_star: an error of a few ulps in c_star moves
                # the analytic position by this much
                c_star = perfect_transmission_target(cfg).c_star
                slack = 8 * EPS / (2 * cfg.dxi * math.sqrt(1.0 - c_star**2))
            for r in found:
                k_exact = nearest(expected, r.k_star)
                if k_exact is None or abs(r.k_star - k_exact) > 1e-9 * k_exact:
                    continue
                assert abs(r.k_star - k_exact) <= 1e-15 * k_exact + slack
                residuals = [res for a, b, _, res in reference if a < r.k_star < b]
                assert all(r.residual <= res for res in residuals)
                checked += 1
                exact += r.k_star == k_exact
        assert checked > 200 and exact > checked // 2

    def test_probes_a_quarter_of_golden_section(self, monkeypatch):
        probes = []
        solve_auto = spectrum.solve_auto

        def counting(cfg, k):
            probes.append(k)
            return solve_auto(cfg, k)

        monkeypatch.setattr(spectrum, "solve_auto", counting)
        ours = theirs = kept = 0
        for cfg in refine_batch():
            for kind in ResonanceKind:
                del probes[:]
                kept += len(find_resonances(cfg, 4.0, 6.0, kind).resonances)
                ours += len(probes)
                del probes[:]
                reference_find(cfg, 4.0, 6.0, kind)
                theirs += len(probes)
        assert kept > 50
        assert 0 < 4 * ours <= theirs


class TestScanRule:
    def test_exactly_decoupled_ring_skips_its_noise_brackets(self, monkeypatch):
        # All eigenphases 0: the node reflects totally, |A| = 1 up to rounding.
        cfg = RingConfig(left=JunctionParams(theta=(0.0, 0.0, 0.0), beta=0.7), mode=SYMMETRIC,
                         xi1=4.0, xi2=0.0)
        kind = ResonanceKind.PERFECT_TRANSMISSION
        _, values = scan_values(cfg, 4.0, 6.0, kind)
        assert np.abs(values - 1.0).max() <= 8 * EPS
        assert len(reference_dips(values)) > 10  # what the previous rule refined
        calls = []
        monkeypatch.setattr(spectrum, "_golden_minimize", lambda *args: calls.append(args))
        assert find_resonances(cfg, 4.0, 6.0, kind).resonances == ()
        assert calls == []


# -- the refine on analytic test functions --------------------------------------------


def run_refine(amplitude, ks, width=1e-12):
    probes = []

    def probe(k):
        probes.append(k)
        z = amplitude(k)
        return (complex(math.nan, math.nan), math.inf) if z is None else (z, abs(z) ** 2)

    zs = [amplitude(k) for k in ks]
    fs = [math.inf if z is None else abs(z) ** 2 for z in zs]
    zs = [complex(math.nan, math.nan) if z is None else z for z in zs]
    k_star, residual = spectrum._golden_minimize(probe, list(ks), zs, fs, width)
    return k_star, residual, probes


class TestNewtonRefine:
    @pytest.mark.parametrize("k0", [1.2345, 1.26, 1.2255])
    def test_simple_zero_lands_on_the_nearest_float(self, k0):
        k_star, residual, probes = run_refine(
            lambda k: (k - k0) * (0.3 + 1.1j) * complex(math.cos(3 * k), math.sin(3 * k)),
            (1.2, 1.25, 1.3),
        )
        assert abs(k_star - k0) <= 2 * math.ulp(k0)
        assert residual <= 1e-30
        assert len(probes) <= 8

    def test_nonzero_minimum_stops_on_the_newton_decrement(self):
        k0 = 1.23
        k_star, residual, probes = run_refine(lambda k: (k - k0) ** 2 + (k - k0) + 0.1j, (1.0, 1.2, 1.4))
        # |z|^2 = (u^2 + u)^2 + 0.01 with u = k - k0; its minimum is at u = 0
        assert abs(k_star - k0) < 1e-7
        assert residual == pytest.approx(0.01, rel=4 * EPS)
        assert len(probes) <= 8

    def test_exact_zero_at_the_scan_sample_needs_no_probe(self):
        k_star, residual, probes = run_refine(lambda k: complex(k - 1.25, 0.0), (1.2, 1.25, 1.3))
        assert (k_star, residual, probes) == (1.25, 0.0, [])

    def test_degenerate_bracket_end_falls_back_to_golden_steps(self):
        # No amplitude at or above 1.29 (a degenerate ring there).
        k_star, residual, probes = run_refine(
            lambda k: None if k >= 1.29 else (k - 1.27) * (1 + 2j), (1.2, 1.25, 1.3)
        )
        assert abs(k_star - 1.27) <= 2 * math.ulp(1.27)
        assert residual <= 1e-30
        assert all(1.2 < k < 1.3 for k in probes)

    def test_bracket_of_a_few_ulps_ends(self):
        # A width far below the float spacing: golden-section search could
        # not narrow such a bracket to it and never returned.
        ulp = math.ulp(1.0)
        k0 = 1.0 + 7 * ulp
        k_star, residual, probes = run_refine(
            lambda k: (k - k0) * (1 + 1j), (1.0, 1.0 + 8 * ulp, 1.0 + 16 * ulp), width=1e-25
        )
        assert (k_star, residual) == (k0, 0.0)
        assert len(probes) <= 4

    def test_lorentzian_tail_descends_into_a_narrow_line(self):
        # A zero of width 1e-4 inside a bracket of 0.2 that the three scan
        # samples do not resolve.
        k0, w = 1.2713, 1e-4
        k_star, residual, probes = run_refine(lambda k: (k - k0) / (k - k0 + 1j * w), (1.2, 1.25, 1.4))
        assert abs(k_star - k0) <= 2 * math.ulp(k0)
        assert residual <= 1e-24
        assert len(probes) <= 50

    def test_unresolved_line_pair_is_reached_not_its_tail(self):
        # Ring 67 of the corpus searched with a 256-point scan: two
        # antisymmetric lines about 3e-10 wide and 5e-6 apart share a bracket.
        # On their tail the quadratic fits are meaningless; steps taken on
        # them crept to a stop 4.4e-5 from the lines, until a Newton step
        # that fails to lower |A|^2 was made to hand over to a golden step.
        # (solve_auto is off by up to 1e-7 in |A|^2 at these lines, so the
        # zero reached reads 2.9e-8, above tol, where golden-section search
        # happened to read 5.9e-9 at the other one.)
        left = JunctionParams(
            theta=(PI, PI, 0.0), alpha=1.7078298370735892, beta=5.425404029503094,
            gamma=0.19377656939194607, delta=3.141422392956025, a=0.07513512994031933,
            b=4.247827229581608, L0=4.210641035623856,
        )
        cfg = RingConfig(left=left, mode=ANTISYMMETRIC, xi1=5.007817054978091, xi2=-0.39831444354825596)
        k_min, k_max = 4.680997138913959, 7.021495708370939
        grid = np.linspace(k_min, k_max, 256)
        i = int(np.argmin(np.abs(grid - 5.5254)))
        zeros = [k for k in _expected_resonances(cfg, ResonanceKind.PERFECT_TRANSMISSION, k_min, k_max)
                 if grid[i - 1] < k < grid[i + 1]]
        assert len(zeros) == 2 and zeros[1] - zeros[0] < 1e-5

        def probe(k):
            z = spectrum.solve_auto(cfg, k).A
            return z, abs(z) ** 2

        amps, _ = spectrum.solve_grid(cfg, grid[i - 1:i + 2])
        zs = amps[:, 0].tolist()
        k_star, _ = spectrum._golden_minimize(
            probe, grid[i - 1:i + 2].tolist(), zs, [abs(z) ** 2 for z in zs], 1e-12 * (k_max - k_min)
        )
        assert min(abs(k_star - k) for k in zeros) < 1e-11
