"""The Newton refine of find_resonances against the golden-section refine it replaced.

`reference_find` below keeps the previous search: the same scan, the
previous bracket rule (every strict local minimum whose neighbours are not
both below tol), and golden-section search on |A|^2 or |F|^2 down to a
width of 1e-12 (k_max - k_min), ending with a probe at the midpoint.  It
probes through `spectrum.solve_auto`; find_resonances probes there too and,
for rounds of at least `_LOCKSTEP_LEAST` open brackets, on the grid kernel,
so `RefineCount` counts both.
"""

import importlib
import inspect
import math
import re
from pathlib import Path

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
from yring.config import load_config
from yring.spectrum import _expected_resonances

REPO = Path(__file__).resolve().parent.parent
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
    grid = np.linspace(k_min, k_max, spectrum._scan_count(k_min, k_max, scan_n))
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


class RefineCount:
    """Counts what find_resonances evaluates after its scan, through spectrum's two kernels.

    points holds each solve_auto probe, grid_rows the length of each
    _solve_grid_columns call, of which the first of a search is the scan,
    and calls "point" or "grid" for each call in the order made.
    """

    def __init__(self, monkeypatch):
        self.points, self.grid_rows, self.calls = [], [], []
        solve_auto, solve_grid_columns = spectrum.solve_auto, spectrum._solve_grid_columns

        def point(cfg, k):
            self.points.append(k)
            self.calls.append("point")
            return solve_auto(cfg, k)

        def grid(cfg, ks, columns):
            self.grid_rows.append(len(ks))
            self.calls.append("grid")
            return solve_grid_columns(cfg, ks, columns)

        monkeypatch.setattr(spectrum, "solve_auto", point)
        monkeypatch.setattr(spectrum, "_solve_grid_columns", grid)

    def reset(self) -> None:
        del self.points[:], self.grid_rows[:], self.calls[:]

    def evaluations(self) -> int:
        """The refine's evaluations since reset, of one search: point probes plus grid rows after the scan."""
        return len(self.points) + sum(self.grid_rows[1:])


def slope(cfg, kind, k: float) -> float:
    """|z'| at k, of A or F as kind selects, by a central difference on solve_auto."""
    h = 1e-9 * k
    column = 0 if kind is ResonanceKind.PERFECT_TRANSMISSION else 5
    z = [spectrum.solve_auto(cfg, x).to_array()[column] for x in (k - h, k + h)]
    return abs(z[1] - z[0]) / (2 * h)


def nearest(values, x):
    return min(values, key=lambda v: abs(v - x)) if len(values) else None


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
            if expected is None or expected[1] > 0.0:
                continue  # no analytic zeros
            expected = expected[0]
            slack = 0.0
            if isinstance(cfg.mode, AntiSymmetric) and kind is ResonanceKind.PERFECT_TRANSMISSION:
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
        count = RefineCount(monkeypatch)
        ours = theirs = kept = 0
        for cfg in refine_batch():
            for kind in ResonanceKind:
                count.reset()
                kept += len(find_resonances(cfg, 4.0, 6.0, kind).resonances)
                ours += count.evaluations()
                count.reset()
                reference_find(cfg, 4.0, 6.0, kind)  # scans on solve_grid, probes on solve_auto
                theirs += count.evaluations()
        assert kept > 50
        assert 0 < 4 * ours <= theirs


class TestLockstep:
    """Brackets refined together on the grid kernel against each refined alone on solve_auto."""

    def test_equals_the_sequential_refine(self, searches, monkeypatch):
        # A grid row and a solve_auto point differ at rounding level, which
        # near a narrow line moves where a refine stops on the flat bottom of
        # |z|^2.  A stop with residual r sits about sqrt(r)/|z'| from the zero,
        # so two stops lie within the sum of those reaches; z's rounding makes
        # a residual under-read its distance, by up to 2.5x on this corpus.
        cases = [(cfg, k_min, k_max, kind) for cfg, k_min, k_max, kind, _, _ in searches]
        cases += [(cfg, 4.0, 6.0, kind) for cfg in refine_batch() for kind in ResonanceKind]
        lockstep = [find_resonances(*case) for case in cases]
        monkeypatch.setattr(spectrum, "_LOCKSTEP_LEAST", math.inf)  # every probe on solve_auto
        lines = moved = 0
        for (cfg, k_min, k_max, kind), got in zip(cases, lockstep):
            alone = find_resonances(cfg, k_min, k_max, kind)
            assert len(got.resonances) == len(alone.resonances), (cfg, kind)
            expected = _expected_resonances(cfg, kind, k_min, k_max)
            grid, _ = scan_values(cfg, k_min, k_max, kind)
            if expected is not None and np.any(np.diff(expected[0]) < grid[1] - grid[0]):
                continue  # two lines within a scan step: which one a bracket reaches follows rounding (ROADMAP item 7)
            assert len(got.warnings) == len(alone.warnings), (cfg, kind)
            for r, s in zip(got.resonances, alone.resonances):
                assert max(r.residual, s.residual) < 1e-8
                lines += 1
                if abs(r.k_star - s.k_star) <= 2 * math.ulp(s.k_star):
                    continue
                moved += 1
                reach = (math.sqrt(r.residual) + math.sqrt(s.residual)) / slope(cfg, kind, s.k_star)
                assert abs(r.k_star - s.k_star) <= 4 * reach, (cfg, kind, r, s)
        assert lines > 400 and moved < lines // 10

    def test_one_grid_call_per_round(self, monkeypatch):
        asked = []  # per bracket of a search, the wavenumbers it probed
        golden = spectrum._golden_minimize

        def recording(*args):
            probes = []
            asked.append(probes)
            refine, reply = golden(*args), None
            try:
                while True:
                    probes.append(refine.send(reply))
                    reply = yield probes[-1]
            except StopIteration as stop:
                return stop.value

        monkeypatch.setattr(spectrum, "_golden_minimize", recording)
        count = RefineCount(monkeypatch)
        wide = 0
        for cfg in refine_batch():
            for kind in ResonanceKind:
                del asked[:]
                count.reset()
                find_resonances(cfg, 4.0, 6.0, kind)
                if len(asked) >= 8:
                    # the scan, then at most one call per round, a round being one probe of each open bracket
                    assert 1 < len(count.grid_rows) <= 1 + max(map(len, asked))
                    wide += 1
        assert wide > 0

    def test_rounds_below_the_least_probe_on_solve_auto(self, monkeypatch):
        # Brackets return in different rounds: once fewer than _LOCKSTEP_LEAST
        # are open, the rounds go on with a solve_auto probe per open bracket,
        # and the grid kernel is not called again.
        count = RefineCount(monkeypatch)
        mixed = 0
        for cfg in refine_batch():
            for kind in ResonanceKind:
                count.reset()
                find_resonances(cfg, 4.0, 6.0, kind)
                if "point" in count.calls and count.grid_rows[1:]:
                    assert "grid" not in count.calls[count.calls.index("point"):], (cfg, kind)
                    assert min(count.grid_rows[1:]) >= spectrum._LOCKSTEP_LEAST, (cfg, kind)
                    mixed += 1
        assert mixed > 0


class TestEarlyStop:
    """find_resonances against itself with the early stop of non-zero minima switched off."""

    def test_keeps_every_line(self, monkeypatch):
        # Brackets decided early leave the lockstep rounds sooner, and a grid
        # row's last bits depend on the rows sharing its call: k* may move by
        # rounding, nothing more.
        cases = [(cfg, k_min, k_max, kind) for cfg, k_min, k_max in corpus(20240613, 300) for kind in ResonanceKind]
        cases += [(cfg, 4.0, 6.0, kind) for cfg in refine_batch() for kind in ResonanceKind]
        early = [find_resonances(*case) for case in cases]
        monkeypatch.setattr(spectrum, "_DECIDED_MARGIN", math.inf)
        lines = 0
        for case, got in zip(cases, early):
            polished = find_resonances(*case)
            assert len(got.resonances) == len(polished.resonances), case
            assert got.warnings == polished.warnings, case
            for r, s in zip(got.resonances, polished.resonances):
                assert abs(r.k_star - s.k_star) <= 2 * math.ulp(s.k_star), (case, r, s)
                lines += 1
        assert lines > 400

    def test_saves_a_quarter_of_the_refine(self, monkeypatch):
        count = RefineCount(monkeypatch)

        def evaluations() -> int:
            total = 0
            for cfg in refine_batch():
                for kind in ResonanceKind:
                    count.reset()
                    find_resonances(cfg, 4.0, 6.0, kind)
                    total += count.evaluations()
            return total

        early = evaluations()
        monkeypatch.setattr(spectrum, "_DECIDED_MARGIN", math.inf)
        assert 0 < 4 * early <= 3 * evaluations()


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


def run_refine(amplitude, ks, width=1e-12, tol=1e-8):
    probes = []

    def probe(k):
        probes.append(k)
        z = amplitude(k)
        return (complex(math.nan, math.nan), math.inf) if z is None else (z, abs(z) ** 2)

    zs = [amplitude(k) for k in ks]
    fs = [math.inf if z is None else abs(z) ** 2 for z in zs]
    zs = [complex(math.nan, math.nan) if z is None else z for z in zs]
    k_star, residual = drive(spectrum._golden_minimize(list(ks), zs, fs[1], width, tol), probe)
    return k_star, residual, probes


def drive(refine, probe):
    """Run one bracket's refine to its end, answering each wavenumber it asks for with probe(k)."""
    reply = None
    try:
        while True:
            reply = probe(refine.send(reply))
    except StopIteration as stop:
        return stop.value


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
        # tol = 1e-3: a minimum of 0.01 is within the margin of a line, so it
        # is refined to the bottom
        k0 = 1.23
        k_star, residual, probes = run_refine(lambda k: (k - k0) ** 2 + (k - k0) + 0.1j, (1.0, 1.2, 1.4), tol=1e-3)
        # |z|^2 = (u^2 + u)^2 + 0.01 with u = k - k0; its minimum is at u = 0
        assert abs(k_star - k0) < 1e-7
        assert residual == pytest.approx(0.01, rel=4 * EPS)
        assert len(probes) <= 8

    def test_nonzero_minimum_far_above_tol_is_decided_early(self):
        # The same minimum at tol = 1e-8: once a Newton step has lowered
        # |z|^2 as its model predicted, the model keeps the minimum above 99 tol
        k0 = 1.23
        amplitude = lambda k: (k - k0) ** 2 + (k - k0) + 0.1j
        _, _, polished = run_refine(amplitude, (1.0, 1.2, 1.4), tol=1e-3)
        k_star, residual, probes = run_refine(amplitude, (1.0, 1.2, 1.4), tol=1e-8)
        assert len(probes) < len(polished)
        assert residual > 1e-8
        assert 1.0 < k_star < 1.4

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

    def test_narrow_line_beyond_a_flat_model_is_reached(self, monkeypatch):
        # A zero of width 1e-5 just past the middle scan sample: the fit
        # through the three samples predicts a decrease of 3e-8 from 0.99,
        # and its Newton step lands on the line's flank at 0.59.  Had that
        # step validated the model, the flat fit after it would decide the
        # bracket: the trust test must reject a step that falls this far.
        k0, w = 1.2501, 1e-5
        amplitude = lambda k: (k - k0) / (k - k0 + 1j * w) * (1 + 0.5 * (k - 1.25) ** 2)
        ks = (1.2, 1.25, 1.4)
        zs = [amplitude(k) for k in ks]
        # z, z' and z'' at the middle sample of the quadratic through the three
        z, d1, d2 = np.polyfit(np.array(ks) - ks[1], zs, 2)[::-1] * [1, 1, 2]
        g, h = (z.conjugate() * d1).real, abs(d1) ** 2 + (z.conjugate() * d2).real
        k_star, residual, probes = run_refine(amplitude, ks)
        assert probes[0] == pytest.approx(ks[1] - g / h, rel=1e-12)  # the first step is Newton's
        assert abs(z) ** 2 - abs(amplitude(probes[0])) ** 2 > 1e6 * g * g / h
        assert abs(k_star - k0) <= 2 * math.ulp(k0)
        assert residual <= 1e-24
        monkeypatch.setattr(spectrum, "_TRUST_RATIO", math.inf)  # every decrease validates the model
        assert run_refine(amplitude, ks)[1] > 0.5

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
        zeros = [k for k in _expected_resonances(cfg, ResonanceKind.PERFECT_TRANSMISSION, k_min, k_max)[0]
                 if grid[i - 1] < k < grid[i + 1]]
        assert len(zeros) == 2 and zeros[1] - zeros[0] < 1e-5

        def probe(k):
            z = spectrum.solve_auto(cfg, k).A
            return z, abs(z) ** 2

        amps, _ = spectrum.solve_grid(cfg, grid[i - 1:i + 2])
        zs = amps[:, 0].tolist()
        k_star, _ = drive(spectrum._golden_minimize(
            grid[i - 1:i + 2].tolist(), zs, abs(zs[1]) ** 2, 1e-12 * (k_max - k_min), 1e-8
        ), probe)
        assert min(abs(k_star - k) for k in zeros) < 1e-11


def test_what_the_benchmark_tracer_reads(monkeypatch):
    """ROADMAP item 1: delete this test when the benchmark's tracer is rebuilt.

    The traced smoke run divides `spectrum.find.eval_us` by the solve_auto
    calls made inside find, wraps the refine by its private name, and its
    `us()` in perfbench/run.py raises on a span with no calls.  A change
    that stops find from probing on solve_auto, or moves a span's function,
    fails that run while every untraced run still passes.
    """
    # general_ring over the benchmark's find window: one point probe per kind today
    ring = load_config(REPO / "configs" / "general_ring.json").ring
    count = RefineCount(monkeypatch)
    for kind in ResonanceKind:
        count.reset()
        find_resonances(ring, 3.0, 4.5, kind)
        assert len(count.points) >= 1, kind
    assert inspect.isgeneratorfunction(spectrum._golden_minimize)
    names = re.findall(r'\bus\("([\w.]+)"\)', (REPO / "perfbench" / "run.py").read_text())
    assert "ring.solve_auto.general" in names and len(names) >= 10
    for name in names:
        layer, attr = name.split(".")[:2]  # ring.solve_auto.<mode> is a span of ring.solve_auto
        module = importlib.import_module(f"yring.{layer}")
        if name == "junction.validate":  # the tracer's own span of ScatteringMatrix.__post_init__
            assert callable(module.ScatteringMatrix.__post_init__)
            continue
        function = getattr(module, attr, None)
        assert not attr.startswith("_") and inspect.isfunction(function), name
        assert function.__module__ == module.__name__, name
