"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines on the terminal.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from conftest import linear_ring_solve, mp_resolvent_amplitudes, random_incoming, random_params
from yring import (
    ANTISYMMETRIC,
    SYMMETRIC,
    General,
    JunctionParams,
    Orientation,
    ResonanceKind,
    RingConfig,
    build_U,
    buttiker_matrix,
    build_V,
    find_resonances,
    gauge_shift,
    is_scale_invariant,
    junction_residual,
    perfect_transmission_target,
    probabilities,
    reflection_core,
    ring_matrices,
    s_matrix,
    solve_algebraic,
    solve_antisymmetric_scale_invariant,
    solve_closed_form,
    solve_grid,
    solve_series,
    solve_symmetric_scale_invariant,
    unitarity_error,
)
from yring.cli import main

PI = math.pi
CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

BEAM_SPLITTER = dict(theta=(0.0, PI, PI), alpha=0.0, beta=3 * PI / 2, gamma=PI, delta=PI / 4, a=0.0)

ASYM_INSTANCE = JunctionParams(
    theta=(0.53815, 1.487924, 5.034556),
    alpha=PI / 3,
    beta=3.657832,
    gamma=0.591428,
    delta=2.721417,
    a=3.009968,
    b=1.003669,
)


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] criterion {num:02d} {name}: {status}{suffix}")
    assert ok, f"criterion {num} ({name}) failed{suffix}"


def _random_ring_instance(rng: np.random.Generator, i: int) -> tuple[RingConfig, float]:
    left = random_params(rng)
    if i % 3 == 0:
        mode = SYMMETRIC
    elif i % 3 == 1:
        mode = ANTISYMMETRIC
    else:
        mode = General(right=random_params(rng))
    xi2 = float(rng.uniform(-1.0, 1.0))
    xi1 = xi2 + float(rng.uniform(0.1, 3.0))
    k = float(rng.uniform(0.1, 20.0))
    return RingConfig(left=left, mode=mode, xi1=xi1, xi2=xi2), k


def _generic_si_junction(rng: np.random.Generator) -> JunctionParams:
    """Scale-invariant draw with well-coupled exterior wire and regular swap forms."""
    while True:
        p = random_params(rng, scale_invariant=True)
        h = reflection_core(p)
        h11 = abs(h[0, 0])
        coupling = abs(2.0 * (h[2, 0].conjugate() * h[1, 0]).real)
        trm = (
            h[1, 1] * h[2, 2].conjugate()
            + h[1, 2] * h[2, 1].conjugate()
            + h[2, 1] * h[1, 2].conjugate()
            + h[2, 2] * h[1, 1].conjugate()
        )
        den_at_one = abs(1.0 - trm + h11**2)
        if 0.05 < h11 < 0.95 and coupling > 0.05 and den_at_one > 0.05:
            return p


@pytest.fixture(scope="module")
def ring_instances():
    """The 1000 shared random ring solves used by criteria 3 and 4."""
    rng = np.random.default_rng(314159)
    rows = []
    for i in range(1000):
        cfg, k = _random_ring_instance(rng, i)
        s1, s2 = ring_matrices(cfg, k)
        closed = solve_closed_form(s1, s2).to_array()
        series, _terms = solve_series(s1, s2, tol=1e-12, max_terms=2**26)
        algebraic = solve_algebraic(s1, s2).to_array()
        oracle = linear_ring_solve(s1.m, s2.m)
        rows.append((closed, series.to_array(), algebraic, oracle))
    return rows


def test_criterion_01_unitarity():
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(1000):
        p = random_params(rng)
        k = float(rng.uniform(0.1, 20.0))
        xi = float(rng.uniform(-2.0, 2.0))
        worst = max(worst, unitarity_error(build_U(p)))
        for orientation in Orientation:
            worst = max(worst, unitarity_error(s_matrix(p, k, xi, orientation).m))
    _report(1, "unitarity of U and S", worst <= 1e-12, f"worst {worst:.3e}")


def test_criterion_02_junction_condition_residual():
    rng = np.random.default_rng(101)  # same draws as criterion 1
    worst = 0.0
    for _ in range(1000):
        p = random_params(rng)
        k = float(rng.uniform(0.1, 20.0))
        xi = float(rng.uniform(-2.0, 2.0))
        phi = random_incoming(rng)
        U = build_U(p)
        for orientation in Orientation:
            S = s_matrix(p, k, xi, orientation)
            worst = max(worst, junction_residual(U, p.L0, k, xi, phi, S.m @ phi, orientation))
    _report(2, "node-condition residual oracle", worst < 1e-10, f"worst {worst:.3e}")


def test_criterion_03_three_way_agreement(ring_instances):
    worst = 0.0
    for closed, series, algebraic, oracle in ring_instances:
        worst = max(
            worst,
            float(np.abs(closed - series).max()),
            float(np.abs(closed - algebraic).max()),
            float(np.abs(series - algebraic).max()),
            float(np.abs(closed - oracle).max()),
        )
    _report(3, "three-way solver agreement", worst <= 1e-10, f"worst {worst:.3e}")


def test_criterion_04_flux_conservation(ring_instances):
    worst = 0.0
    for closed, _series, _algebraic, _oracle in ring_instances:
        worst = max(worst, abs(abs(closed[0]) ** 2 + abs(closed[5]) ** 2 - 1.0))
    _report(4, "flux conservation", worst <= 1e-10, f"worst {worst:.3e}")


def test_criterion_05_symmetric_fast_path_and_eigenrelation():
    rng = np.random.default_rng(505)
    worst_amp = 0.0
    worst_eig = 0.0
    for _ in range(200):
        left = random_params(rng, scale_invariant=True)
        xi2 = float(rng.uniform(-1.0, 1.0))
        cfg = RingConfig(
            left=left, mode=SYMMETRIC, xi1=xi2 + float(rng.uniform(0.1, 3.0)), xi2=xi2
        )
        for _ in range(16):
            k = float(rng.uniform(0.1, 20.0))
            fast = solve_symmetric_scale_invariant(cfg, k).to_array()
            ref = solve_closed_form(*ring_matrices(cfg, k)).to_array()
            worst_amp = max(worst_amp, float(np.abs(fast - ref).max()))
            s1, s2 = ring_matrices(cfg, k)
            w = s1.m[1:, 0]
            lam = np.exp(2j * k * cfg.dxi) * abs(s1.m[0, 0]) ** 2
            worst_eig = max(
                worst_eig, float(np.abs(s1.m[1:, 1:] @ s2.m[1:, 1:] @ w - lam * w).max())
            )
    ok = worst_amp <= 1e-12 and worst_eig <= 1e-12
    _report(5, "symmetric scale-invariant fast path", ok,
            f"amp {worst_amp:.3e}, eigenrelation {worst_eig:.3e}")


def test_criterion_06_symmetric_perfect_transmission():
    rng = np.random.default_rng(606)
    worst_a = 0.0
    worst_f = 0.0
    for _ in range(20):
        left = _generic_si_junction(rng)
        xi2 = float(rng.uniform(-1.0, 1.0))
        cfg = RingConfig(
            left=left, mode=SYMMETRIC, xi1=xi2 + float(rng.uniform(0.3, 2.5)), xi2=xi2
        )
        for n in range(1, 6):
            amps = solve_symmetric_scale_invariant(cfg, n * PI / cfg.dxi)
            worst_a = max(worst_a, abs(amps.A))
            worst_f = max(worst_f, abs(abs(amps.F) - 1.0))
    ok = worst_a < 1e-10 and worst_f < 1e-10
    _report(6, "symmetric perfect transmission at arm resonances", ok,
            f"|A| {worst_a:.3e}, ||F|-1| {worst_f:.3e}")


def test_criterion_07_antisymmetric_perfect_reflection():
    rng = np.random.default_rng(707)
    worst_f = 0.0
    worst_a = 0.0
    for _ in range(20):
        left = _generic_si_junction(rng)
        xi2 = float(rng.uniform(-1.0, 1.0))
        cfg = RingConfig(
            left=left, mode=ANTISYMMETRIC, xi1=xi2 + float(rng.uniform(0.3, 2.5)), xi2=xi2
        )
        for n in range(1, 6):
            amps = solve_antisymmetric_scale_invariant(cfg, n * PI / cfg.dxi)
            worst_f = max(worst_f, abs(amps.F))
            worst_a = max(worst_a, abs(abs(amps.A) - 1.0))
    # resonance finder recovers the lattice positions
    cfg = RingConfig(
        left=JunctionParams(
            theta=(PI, 0.0, PI), alpha=1.643758, beta=1.875475, gamma=5.115931,
            delta=0.577525, a=3.770543, b=4.577681,
        ),
        mode=ANTISYMMETRIC,
        xi1=1.0,
        xi2=0.0,
    )
    found = find_resonances(cfg, 0.1, 5.5 * PI, ResonanceKind.PERFECT_REFLECTION)
    ks = [r.k_star for r in found.resonances]
    finder_ok = len(ks) == 5 and all(
        abs(k_star - n * PI) / (n * PI) < 1e-9 for n, k_star in enumerate(ks, start=1)
    )
    ok = worst_f < 1e-10 and worst_a < 1e-10 and finder_ok
    _report(7, "antisymmetric perfect reflection at arm resonances", ok,
            f"|F| {worst_f:.3e}, ||A|-1| {worst_a:.3e}, finder {'ok' if finder_ok else 'BAD'}")


def test_criterion_08_antisymmetric_transmission_target():
    rng = np.random.default_rng(808)
    worst = 0.0
    targets_seen = 0
    while targets_seen < 20:
        left = random_params(rng, scale_invariant=True)
        xi2 = float(rng.uniform(-1.0, 1.0))
        cfg = RingConfig(
            left=left, mode=ANTISYMMETRIC, xi1=xi2 + float(rng.uniform(0.3, 2.5)), xi2=xi2
        )
        target = perfect_transmission_target(cfg)
        if target.status != "ok":
            continue
        targets_seen += 1
        half = math.acos(target.c_star)
        for n in range(3):
            k = (half + 2.0 * PI * n) / (2.0 * cfg.dxi)
            if k <= 0.0:
                continue
            amps = solve_antisymmetric_scale_invariant(cfg, k)
            worst = max(worst, abs(amps.A))
    _report(8, "antisymmetric perfect transmission via cosine target", worst < 1e-8,
            f"worst |A| {worst:.3e}")


def test_criterion_09_beam_splitter_reproduction():
    worst = 0.0
    for b in (0.0, PI / 12, PI / 6, PI / 4):
        p = JunctionParams(b=b, **BEAM_SPLITTER)
        v = build_V(p)
        built = v @ np.diag([1.0, -1.0, -1.0]).astype(complex) @ v.conj().T
        worst = max(worst, float(np.abs(built - buttiker_matrix(b)).max()))
    r = 1 / math.sqrt(2)
    exact = np.array([[0, r, r], [r, -0.5, 0.5], [r, 0.5, -0.5]], dtype=complex)
    exact_err = float(np.abs(buttiker_matrix(PI / 4) - exact).max())
    ok = worst <= 1e-12 and exact_err <= 1e-15
    _report(9, "beam-splitter matrix reproduction", ok,
            f"construction {worst:.3e}, balanced-form {exact_err:.3e}")


def test_criterion_10_time_reversal():
    rng = np.random.default_rng(1010)
    worst = 0.0
    for _ in range(50):
        base = random_params(rng)
        p = JunctionParams(
            theta=base.theta,
            alpha=float(rng.choice([0.0, PI])),
            beta=base.beta,
            gamma=float(rng.choice([0.0, PI])),
            delta=base.delta,
            a=float(rng.choice([0.0, PI])),
            b=base.b,
            L0=base.L0,
        )
        S = s_matrix(p, float(rng.uniform(0.1, 15.0)), 0.6).m
        worst = max(worst, float(np.abs(S - S.T).max()))
    S_bad = s_matrix(ASYM_INSTANCE, 1.7, 0.3).m
    asym = float(np.abs(S_bad - S_bad.T).max())
    ok = worst <= 1e-12 and asym > 1e-3
    _report(10, "time-reversal symmetry condition", ok,
            f"symmetric worst {worst:.3e}, counterexample {asym:.3e}")


def test_criterion_11_gauge_freedom():
    rng = np.random.default_rng(1111)
    worst = 0.0
    for _ in range(30):
        p = random_params(rng)
        for new_L0 in (p.L0 / 10.0, 10.0 * p.L0):
            q = gauge_shift(p, new_L0)
            for _ in range(8):
                k = float(rng.uniform(0.1, 15.0))
                xi = float(rng.uniform(-1.0, 1.0))
                for orientation in Orientation:
                    worst = max(
                        worst,
                        float(np.abs(
                            s_matrix(p, k, xi, orientation).m
                            - s_matrix(q, k, xi, orientation).m
                        ).max()),
                    )
    _report(11, "gauge freedom of the length scale", worst <= 1e-12, f"worst {worst:.3e}")


def test_criterion_12_scale_invariant_probabilities():
    rng = np.random.default_rng(1212)
    worst = 0.0
    for _ in range(100):
        p = random_params(rng, scale_invariant=True)
        assert is_scale_invariant(p)
        k = float(rng.uniform(0.1, 2.0))
        pr1 = probabilities(s_matrix(p, k, 0.9))
        pr2 = probabilities(s_matrix(p, 10.0 * k, 0.9))
        worst = max(worst, float(np.abs(pr1 - pr2).max()))
    _report(12, "scale-invariant probabilities independent of k", worst < 1e-12,
            f"worst {worst:.3e}")


def test_criterion_13_series_economics():
    left = JunctionParams(b=PI / 6, **BEAM_SPLITTER)
    cfg = RingConfig(left=left, mode=SYMMETRIC, xi1=1.0, xi2=0.0)
    s1, s2 = ring_matrices(cfg, 1.3)
    p11 = abs(s1.m[0, 0]) ** 2
    assert p11 == pytest.approx(0.25, abs=1e-12)
    _amps, terms = solve_series(s1, s2, tol=1e-10)
    _report(13, "bounce-series term economics", 15 <= terms <= 20, f"terms {terms}")


def test_criterion_14_cli_determinism(tmp_path):
    sym = str(CONFIG_DIR / "symmetric_buttiker.json")
    out1, out2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    for out in (out1, out2):
        assert main(["sweep", "--config", sym, "--out", out]) == 0
    identical = Path(out1).read_bytes() == Path(out2).read_bytes()
    checks_ok = True
    for cfg_path in sorted(CONFIG_DIR.glob("*.json")):
        checks_ok &= main(["check", "--config", str(cfg_path)]) == 0
    ok = identical and checks_ok
    _report(14, "CLI determinism and shipped-config checks", ok,
            f"byte-identical {identical}, checks {'ok' if checks_ok else 'BAD'}")


def _degree_two_node(rng: np.random.Generator) -> JunctionParams:
    """Scale-invariant node whose V mixes wires 0 and 1 alone (Euler angles alpha and beta).

    Interior wire 2 decouples, so the node is a degree-2 point interaction on
    wires 0 and 1.  theta_0 != theta_1: with equal eigenphases there the
    exterior block would be +-I and F would vanish trivially.
    """
    theta0 = float(rng.choice([0.0, PI]))
    return JunctionParams(theta=(theta0, PI - theta0, float(rng.choice([0.0, PI]))),
                          alpha=float(rng.uniform(0.0, 2 * PI)), beta=float(rng.uniform(0.0, 2 * PI)),
                          L0=float(rng.uniform(0.2, 5.0)))


def test_criterion_15_degree_two_nodes_never_reflect_perfectly():
    # With interior wire 2 decoupled at both nodes the ring is a line with two
    # point interactions: F = t_L t_R e^(...) / (1 - r'_L r_R w), |w| = 1.  On
    # scale-invariant nodes |t_L t_R| and |r'_L r_R| do not depend on k, so
    # |F| >= |t_L t_R| / (1 + |r'_L r_R|) at every k, or F vanishes identically
    # (the antisymmetric ring, whose right node couples its lead to wire 2
    # alone): never an isolated zero.  find reports a minimum only where that
    # bound squared lies below tol, a weakly coupled node.  The antisymmetric
    # ring of U(3) nodes reflects perfectly at every n pi/dxi instead (criterion 7).
    eps, tol = np.finfo(float).eps, 1e-8
    rng = np.random.default_rng(25)
    ks = np.linspace(0.5, 10.0, 20_001)
    least_ratio, least_margin, coupled, vanishing, weak, worst_reference = math.inf, math.inf, 0, 0, 0, 0.0
    find_ok = True
    for mode in ("symmetric", "general", "antisymmetric"):
        for _ in range(40):
            left = _degree_two_node(rng)
            if mode == "general":
                ring_mode = General(_degree_two_node(rng))
            else:
                ring_mode = SYMMETRIC if mode == "symmetric" else ANTISYMMETRIC
            xi2 = float(rng.uniform(-1.0, 1.0))
            cfg = RingConfig(left=left, mode=ring_mode, xi1=xi2 + float(rng.uniform(0.3, 2.5)), xi2=xi2)
            s1, s2 = (s.m for s in ring_matrices(cfg, 1.0))
            bound = abs(s1[1, 0] * s2[0, 1]) / (1.0 + abs(s1[1, 1] * s2[1, 1]))
            amps, degenerate = solve_grid(cfg, ks)
            f = np.abs(amps[:, 5])
            assert not degenerate.any()
            if bound > 0.0:
                coupled += 1
                least_ratio = min(least_ratio, float(f.min()) / bound)
                least_margin = min(least_margin, float(f.min()) - bound)
            else:
                vanishing += f.max() == 0.0
            # the 50-digit reference at the grid's least |F| and at both ends
            for j in (0, int(np.argmin(f)), ks.size - 1):
                exact = mp_resolvent_amplitudes(*cfg._route.arrays(float(ks[j])))
                worst_reference = max(worst_reference, abs(abs(exact[5]) - f[j]))
            found = find_resonances(cfg, 0.5, 10.0, ResonanceKind.PERFECT_REFLECTION).lines
            if bound**2 < tol and bound > 0.0:
                weak += 1  # minima below tol, none of them a zero
                find_ok &= bool(np.all(found[:, 1] >= (bound - 16 * eps) ** 2))
            else:
                find_ok &= found.size == 0
    # beside them, antisymmetric rings of U(3) nodes: a line at every n pi/dxi
    lattice_ok = True
    for _ in range(5):
        xi2 = float(rng.uniform(-1.0, 1.0))
        cfg = RingConfig(left=_generic_si_junction(rng), mode=ANTISYMMETRIC,
                         xi1=xi2 + float(rng.uniform(0.3, 2.5)), xi2=xi2)
        found = find_resonances(cfg, 0.5, 10.0, ResonanceKind.PERFECT_REFLECTION).lines[:, 0]
        n = np.arange(math.ceil(0.5 * cfg.dxi / PI), math.floor(10.0 * cfg.dxi / PI) + 1)
        lattice_ok &= found.size == n.size > 0 and bool(np.all(np.abs(found - n * PI / cfg.dxi) <= 1e-9 * found))
    # the bound holds up to the rounding of F and of the node entries it is read from
    ok = (coupled == 80 and vanishing == 40 and least_margin >= -16 * eps
          and worst_reference <= 1e-13 and find_ok and lattice_ok)
    _report(15, "degree-2 nodes never reflect perfectly", ok,
            f"{coupled} coupled rings, least min|F| / bound {least_ratio:.16g}; {vanishing} with F = 0; "
            f"50-digit |F| to {worst_reference:.1e}; find {'ok' if find_ok else 'BAD'} "
            f"(minima below tol on {weak} weakly coupled ring(s)); "
            f"U(3) antisymmetric lattice {'ok' if lattice_ok else 'BAD'}")
