"""The bounce series against the phase-1 loop it replaced.

`solve_series` keeps the last three increment norms in locals, tries the
ratio bound before the block bound and computes the block bound only when
the ratio bound has not certified the stop.  `reference_solve_series` below
keeps the previous loop (a growing list of norms, both bounds every step,
their minimum against tol); the two must give the same term counts and the
same raw bits of A..F, signed zeros included, and raise the same
ConvergenceError.
"""

import math

import numpy as np
import pytest

from test_grid import SHIPPED, random_ring
from yring import (
    SYMMETRIC,
    ConvergenceError,
    JunctionParams,
    RingConfig,
    ring_matrices,
    solve_series,
)
from yring import cli
from yring.ring import _SERIES_DOUBLING_THRESHOLD, _assemble, _series_doubling

PI = math.pi


# -- the previous solve_series, kept as the reference -----------------------------


def reference_solve_series(S1, S2eff, tol=1e-12, max_terms=100_000, stops=None):
    """The previous solve_series; appends how phase 1 ended to `stops` if given."""
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    if max_terms < 1:
        raise ValueError("max_terms must be at least 1")
    m1, m2 = S1.m, S2eff.m
    prod = m1[1:, 1:] @ m2[1:, 1:]
    m11, m12 = complex(prod[0, 0]), complex(prod[0, 1])
    m21, m22 = complex(prod[1, 0]), complex(prod[1, 1])
    rho_matrix = max(abs(m11) + abs(m12), abs(m21) + abs(m22))
    noise_floor = 1e-3 * tol

    d1, d2 = complex(m1[1, 0]), complex(m1[2, 0])
    u1 = u2 = 0.0 + 0.0j
    p11, p12, p21, p22 = 1.0 + 0j, 0j, 0j, 1.0 + 0j
    terms = 0
    bound = math.inf
    norms: list[float] = []
    phase1 = min(max_terms, _SERIES_DOUBLING_THRESHOLD)
    stops = [] if stops is None else stops
    while terms < phase1:
        u1 += d1
        u2 += d2
        terms += 1
        d1, d2 = m11 * d1 + m12 * d2, m21 * d1 + m22 * d2
        p11, p12, p21, p22 = (
            p11 * m11 + p12 * m21,
            p11 * m12 + p12 * m22,
            p21 * m11 + p22 * m21,
            p21 * m12 + p22 * m22,
        )
        nd = max(abs(d1), abs(d2))
        norms.append(nd)
        if nd <= noise_floor:
            bound = nd
            stops.append("noise floor")
            break
        bound = math.inf
        q = max(abs(p11) + abs(p12), abs(p21) + abs(p22))
        if q < 1.0:
            bound = q / (1.0 - q) * max(abs(u1), abs(u2))
        rho = rho_matrix
        if rho >= 1.0 and len(norms) >= 3 and norms[-3] > 0.0:
            rho = max(norms[-1] / norms[-2], norms[-2] / norms[-3])
        if rho < 1.0:
            bound = min(bound, nd / (1.0 - rho))
        if bound <= tol:
            ratio_certifies = rho < 1.0 and nd / (1.0 - rho) <= tol
            stops.append("ratio bound" if ratio_certifies else "block bound")
            break
    else:
        stops.append("doubling")
        return _series_doubling(
            m1, m2, (m11, m12, m21, m22), (p11, p12, p21, p22), (u1, u2), terms, tol, max_terms
        )
    return _assemble(m1, m2, np.array([u1, u2], dtype=complex)), terms


# -- helpers ----------------------------------------------------------------------


def outcome(solve, s1, s2, **kwargs):
    """Terms and raw bits of A..F, or the ConvergenceError's terms, bound and partial."""
    try:
        amps, terms = solve(s1, s2, **kwargs)
    except ConvergenceError as exc:
        return ("no convergence", exc.terms, float(exc.bound).hex(),
                exc.partial.to_array().view(np.int64).tolist(), str(exc))
    return "ok", terms, amps.to_array().view(np.int64).tolist()


def assert_same_as_reference(s1, s2, **kwargs) -> str:
    stops = []
    expected = outcome(reference_solve_series, s1, s2, stops=stops, **kwargs)
    assert outcome(solve_series, s1, s2, **kwargs) == expected
    return stops[0]


def slow_ring(eps: float) -> RingConfig:
    # one eigenphase eps short of pi: the bounce series decays slowly
    left = JunctionParams(theta=(PI, PI, PI - eps), beta=1.1, delta=0.7, b=2.2)
    return RingConfig(left=left, mode=SYMMETRIC, xi1=1.0, xi2=0.0)


# -- bit identity -----------------------------------------------------------------


class TestSeriesBitIdentity:
    @pytest.mark.parametrize("tol", [1e-6, 1e-12])
    @pytest.mark.parametrize("scale_invariant", [True, False])
    @pytest.mark.parametrize("mode", ["symmetric", "antisymmetric", "general"])
    def test_random_rings(self, mode, scale_invariant, tol):
        rng = np.random.default_rng([11, len(mode), scale_invariant])
        stops = set()
        for _ in range(12):
            cfg = random_ring(rng, mode, scale_invariant)
            for k in rng.uniform(0.1, 20.0, 4).tolist():
                stops.add(assert_same_as_reference(*ring_matrices(cfg, k), tol=tol, max_terms=2**24))
        # symmetric rings stop on the ratio bound (a unimodular eigenvalue
        # keeps the matrix powers from decaying); elsewhere each bound ends some sums
        assert "ratio bound" in stops
        if mode != "symmetric":
            assert "block bound" in stops

    @pytest.mark.parametrize("path", SHIPPED, ids=lambda p: p.stem)
    def test_check_wavenumbers(self, path, monkeypatch, capsys):
        # the exact calls `yring check` makes (seed 20240613)
        calls = []

        def recording(s1, s2, **kwargs):
            calls.append((s1, s2, kwargs))
            return solve_series(s1, s2, **kwargs)

        monkeypatch.setattr(cli, "solve_series", recording)
        assert cli.main(["check", "--config", str(path)]) == 0
        assert "all checks passed" in capsys.readouterr().out
        assert len(calls) == cli._CHECK_KS
        for s1, s2, kwargs in calls:
            assert assert_same_as_reference(s1, s2, **kwargs) != "doubling"

    def test_hand_off_to_doubling(self):
        s1, s2 = ring_matrices(slow_ring(1e-2), 2.0)
        assert assert_same_as_reference(s1, s2, tol=1e-12, max_terms=2**24) == "doubling"
        _, terms = solve_series(s1, s2, tol=1e-12, max_terms=2**24)
        assert terms > _SERIES_DOUBLING_THRESHOLD

    def test_noise_floor(self):
        # a fully reflecting node launches only rounding noise into the ring
        mirror = JunctionParams(theta=(PI, PI, PI), beta=0.8)
        cfg = RingConfig(left=mirror, mode=SYMMETRIC, xi1=1.0, xi2=0.0)
        for k in (0.7, 2.3, 5.1):
            assert assert_same_as_reference(*ring_matrices(cfg, k)) == "noise floor"

    @pytest.mark.parametrize("eps, max_terms", [
        (1e-2, 5),  # budget runs out in phase 1, handed to doubling at once
        (1e-2, 2**12),  # exactly at the hand-off
        (1e-3, 2**20),  # budget runs out while doubling
    ])
    def test_convergence_error(self, eps, max_terms):
        s1, s2 = ring_matrices(slow_ring(eps), 2.0)
        assert assert_same_as_reference(s1, s2, tol=1e-12, max_terms=max_terms) == "doubling"
        with pytest.raises(ConvergenceError):
            solve_series(s1, s2, tol=1e-12, max_terms=max_terms)
