"""The bounce series against the loops it replaced.

Phase 1 of `solve_series` keeps the running power of s s~ and the last
three increment norms in plain locals (each row of the power updated on its
own, each max(a, b) written as a comparison), tries the ratio bound before
the block bound, and computes the block bound, and max(|u1|, |u2|) inside it,
only when the ratio bound has not certified the stop and q < 1.  It does the
same floating-point operations in the same order as the loop it replaced.
`reference_solve_series` below
keeps the previous phase-1 loop (a growing list of norms, both bounds every
step, their minimum against tol), with s s~ from `ring._bounce` and the
amplitudes from `ring._amplitudes`; the two must give the same term counts and
the same raw bits of A..F, signed zeros included, and raise the same
ConvergenceError.

Phase 2, the doubling, runs on complex scalars with phase 1's 2x2 formulas.
`reference_series_doubling` keeps the previous version on numpy 2x2 arrays,
whose BLAS products round differently in the last bits: the two must give
the same term counts and agree to rounding.

`TestNearUnimodularRing` pins a ring on which the doubling stops short of
its tolerance, against the shared 50-digit resolvent (conftest).
"""

import math

import numpy as np
import pytest

from conftest import mp_resolvent_amplitudes
from test_grid import SHIPPED, random_ring
from yring import (
    ANTISYMMETRIC,
    SYMMETRIC,
    ConvergenceError,
    General,
    JunctionParams,
    RingAmplitudes,
    RingConfig,
    ring_matrices,
    solve_series,
)
from yring import cli, ring, solve_closed_form
from yring.ring import _SERIES_DOUBLING_THRESHOLD, _amplitudes, _bounce, _series_doubling

PI = math.pi
EPS = np.finfo(float).eps


# -- the previous solve_series, kept as the reference -----------------------------


def reference_solve_series(
    S1, S2eff, tol=1e-12, max_terms=100_000, stops=None, doubling=_series_doubling
):
    """The previous phase-1 loop; appends how phase 1 ended to `stops` if given.

    A sum that phase 1 does not end is finished by `doubling`, the library's
    own phase 2 unless another is passed.
    """
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    if max_terms < 1:
        raise ValueError("max_terms must be at least 1")
    s, t = S1.m.tolist(), S2eff.m.tolist()
    m11, m12, m21, m22 = _bounce(s, t)
    rho_matrix = max(abs(m11) + abs(m12), abs(m21) + abs(m22))
    noise_floor = 1e-3 * tol

    d1, d2 = s[1][0], s[2][0]
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
        return doubling(s, t, (p11, p12, p21, p22), (u1, u2), terms, tol, max_terms)
    return RingAmplitudes(*_amplitudes(s, t, (u1, u2))), terms


def reference_series_doubling(s, t, p, u, terms, tol, max_terms):
    """The previous phase 2, on numpy 2x2 arrays."""
    P = np.array([[p[0], p[1]], [p[2], p[3]]], dtype=complex)  # M**terms
    S = np.array([u[0], u[1]], dtype=complex)
    prev_inc = math.inf
    bound = math.inf
    while True:
        inc = P @ S  # series terms [terms, 2*terms), summed
        inc_norm = float(np.abs(inc).max())
        if inc_norm == 0.0:
            bound = 0.0
            break
        if inc_norm <= tol:
            ratios = []
            q = float(np.abs(P).sum(axis=1).max())
            if q < 1.0:
                ratios.append(q)
            if math.isfinite(prev_inc) and prev_inc > 0.0:
                ratios.append(inc_norm / prev_inc)
            if ratios and min(ratios) < 1.0:
                bound = inc_norm / (1.0 - min(ratios))
                if bound <= tol:
                    break
        if 2 * terms > max_terms:
            partial = RingAmplitudes(*_amplitudes(s, t, S.tolist()))
            raise ConvergenceError(
                f"bounce series did not reach tol={tol:g} within {max_terms} terms "
                f"(block increment {inc_norm:g})",
                partial=partial,
                terms=terms,
                bound=bound if math.isfinite(bound) else inc_norm,
            )
        S = S + inc
        P = P @ P
        terms *= 2
        prev_inc = inc_norm
    return RingAmplitudes(*_amplitudes(s, t, S.tolist())), terms


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


def series_or_error(solve, s1, s2, **kwargs):
    """(amplitudes, terms) of a converged sum, else the ConvergenceError raised."""
    try:
        return solve(s1, s2, **kwargs)
    except ConvergenceError as exc:
        return exc


def assert_doubling_agrees(s1, s2, **kwargs):
    """solve_series against the numpy phase 2: same terms, amplitudes to 64 ulps.

    The ulps are those of the largest amplitude (at least 1); the two phase-2
    versions differ only in how their 2x2 products round.  Returns solve_series's
    outcome.
    """
    got = series_or_error(solve_series, s1, s2, **kwargs)
    ref = series_or_error(reference_solve_series, s1, s2, doubling=reference_series_doubling, **kwargs)
    assert type(got) is type(ref)
    if isinstance(ref, ConvergenceError):
        assert got.terms == ref.terms
        assert got.bound == pytest.approx(ref.bound, rel=64 * EPS)
        got_amps, ref_amps = got.partial.to_array(), ref.partial.to_array()
    else:
        assert got[1] == ref[1]
        got_amps, ref_amps = got[0].to_array(), ref[0].to_array()
    assert np.abs(got_amps - ref_amps).max() <= 64 * EPS * max(1.0, np.abs(ref_amps).max())
    return got


def slow_ring(eps: float) -> RingConfig:
    # one eigenphase eps short of pi: the bounce series decays slowly
    left = JunctionParams(theta=(PI, PI, PI - eps), beta=1.1, delta=0.7, b=2.2)
    return RingConfig(left=left, mode=SYMMETRIC, xi1=1.0, xi2=0.0)


def check_calls(path, monkeypatch) -> list:
    """The solve_series calls `yring check` makes on a config (seed 20240613)."""
    calls = []

    def recording(s1, s2, **kwargs):
        calls.append((s1, s2, kwargs))
        return solve_series(s1, s2, **kwargs)

    monkeypatch.setattr(cli, "solve_series", recording)
    assert cli.main(["check", "--config", str(path)]) == 0
    assert len(calls) == cli._CHECK_KS
    return calls


# Fixed rings of the non-symmetric families, with wavenumbers where phase 1
# ends on the named bound at tol 1e-6 and at 1e-12.  Sums needing more terms
# than the hand-off go to doubling, and those include most stops on either
# bound, so a 12-ring draw need not contain one.
FIXED_STOPS = {
    ("antisymmetric", True): (RingConfig(
        left=JunctionParams(theta=(0.0, PI, PI), alpha=2.6, beta=3.4, gamma=5.1, delta=3.0,
                            a=0.2, b=5.0, L0=3.1),
        mode=ANTISYMMETRIC, xi1=1.4, xi2=0.5), {0.5: "block bound"}),
    ("antisymmetric", False): (RingConfig(
        left=JunctionParams(theta=(2.9, 4.9, 5.0), alpha=1.1, beta=2.2, gamma=0.5, delta=5.6,
                            a=0.8, b=1.6, L0=0.6),
        mode=ANTISYMMETRIC, xi1=-0.4, xi2=-1.3), {1.5: "block bound"}),
    ("general", True): (RingConfig(
        left=JunctionParams(theta=(PI, 0.0, PI), alpha=3.0, beta=5.8, gamma=3.1, delta=3.3,
                            a=3.1, b=3.7, L0=2.6),
        mode=General(JunctionParams(theta=(PI, PI, 0.0), alpha=5.4, beta=3.5, gamma=3.8,
                                    delta=2.2, a=4.3, b=0.3, L0=3.9)),
        xi1=1.6, xi2=-0.2), {0.5: "block bound", 1.7: "ratio bound"}),
    ("general", False): (RingConfig(
        left=JunctionParams(theta=(6.1, 5.6, 4.9), alpha=6.0, beta=1.4, gamma=6.0, delta=0.7,
                            a=1.9, b=1.7, L0=4.4),
        mode=General(JunctionParams(theta=(1.8, 4.4, 6.0), alpha=1.6, beta=0.8, gamma=2.0,
                                    delta=0.8, a=2.8, b=5.2, L0=0.3)),
        xi1=3.7, xi2=0.8), {2.5: "block bound", 2.8: "ratio bound"}),
}

#: Which of `yring check`'s 16 sums per shipped config hand off to doubling.
CHECK_HAND_OFFS = {
    "antisymmetric_generic": list(range(16)),
    "general_ring": list(range(16)),
    "symmetric_buttiker": [],
}

FAMILIES = [(mode, si) for mode in ("symmetric", "antisymmetric", "general") for si in (True, False)]


@pytest.fixture(scope="module")
def corpus():
    """1440 sums: 60 random rings x 4 wavenumbers in each of the six families.

    Seed 26 draws rings whose series raise ConvergenceError within 2**24
    terms in the symmetric, antisymmetric and general families.
    """
    sums = []
    for mode, scale_invariant in FAMILIES:
        rng = np.random.default_rng([26, len(mode), scale_invariant])
        for _ in range(60):
            cfg = random_ring(rng, mode, scale_invariant)
            sums += [ring_matrices(cfg, k) for k in rng.uniform(0.1, 20.0, 4).tolist()]
    return sums


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
        if (mode, scale_invariant) in FIXED_STOPS:
            cfg, expected = FIXED_STOPS[mode, scale_invariant]
            for k, expected_stop in expected.items():
                stop = assert_same_as_reference(*ring_matrices(cfg, k), tol=tol, max_terms=2**24)
                assert stop == expected_stop
                stops.add(stop)
        # symmetric rings stop on the ratio bound (a unimodular eigenvalue
        # keeps the matrix powers from decaying); elsewhere each bound ends some sums
        assert "ratio bound" in stops
        if mode != "symmetric":
            assert "block bound" in stops

    @pytest.mark.parametrize("path", SHIPPED, ids=lambda p: p.stem)
    def test_check_wavenumbers(self, path, monkeypatch, capsys):
        calls = check_calls(path, monkeypatch)
        assert "all checks passed" in capsys.readouterr().out
        stops = [assert_same_as_reference(s1, s2, **kwargs) for s1, s2, kwargs in calls]
        assert [i for i, stop in enumerate(stops) if stop == "doubling"] == CHECK_HAND_OFFS[path.stem]
        for s1, s2, kwargs in calls:
            assert_doubling_agrees(s1, s2, **kwargs)

    def test_hand_off_to_doubling(self):
        s1, s2 = ring_matrices(slow_ring(1e-2), 2.0)
        assert assert_same_as_reference(s1, s2, tol=1e-12, max_terms=2**24) == "doubling"
        _, terms = assert_doubling_agrees(s1, s2, tol=1e-12, max_terms=2**24)
        assert terms > _SERIES_DOUBLING_THRESHOLD

    def test_noise_floor(self):
        # a fully reflecting node launches only rounding noise into the ring
        mirror = JunctionParams(theta=(PI, PI, PI), beta=0.8)
        cfg = RingConfig(left=mirror, mode=SYMMETRIC, xi1=1.0, xi2=0.0)
        for k in (0.7, 2.3, 5.1):
            assert assert_same_as_reference(*ring_matrices(cfg, k)) == "noise floor"

    @pytest.mark.parametrize("eps, max_terms", [
        (1e-2, 5),  # budget runs out in phase 1, handed to doubling at once
        (1e-2, _SERIES_DOUBLING_THRESHOLD),  # exactly at the hand-off
        (1e-3, 2**20),  # budget runs out while doubling
    ])
    def test_convergence_error(self, eps, max_terms):
        s1, s2 = ring_matrices(slow_ring(eps), 2.0)
        assert assert_same_as_reference(s1, s2, tol=1e-12, max_terms=max_terms) == "doubling"
        assert isinstance(assert_doubling_agrees(s1, s2, tol=1e-12, max_terms=max_terms), ConvergenceError)


# -- the doubling phase against its numpy reference and the closed form ------------


class TestDoublingOracle:
    def test_corpus_matches_numpy_doubling(self, corpus):
        for s1, s2 in corpus:
            assert_doubling_agrees(s1, s2, tol=1e-12, max_terms=2**24)

    def test_corpus_matches_closed_form(self, corpus):
        worst = 0.0
        for s1, s2 in corpus:
            got = series_or_error(solve_series, s1, s2, tol=1e-12, max_terms=2**24)
            if not isinstance(got, ConvergenceError):
                closed = solve_closed_form(s1, s2).to_array()
                worst = max(worst, float(np.abs(got[0].to_array() - closed).max()))
        assert worst <= 2e-12

    def test_corpus_fails_where_the_4096_hand_off_fails(self, corpus, monkeypatch):
        def failures():
            return [
                i for i, (s1, s2) in enumerate(corpus)
                if isinstance(series_or_error(solve_series, s1, s2, tol=1e-12, max_terms=2**24),
                              ConvergenceError)
            ]

        failed = failures()
        monkeypatch.setattr(ring, "_SERIES_DOUBLING_THRESHOLD", 4096)
        assert failed and failures() == failed


# -- a known miss, pinned -----------------------------------------------------------

#: The 26th ring drawn by random_ring(np.random.default_rng([3, 9, False]), "symmetric",
#: False).  At NEAR_UNIMODULAR_K its s s~ has eigenvalue moduli 0.99957 and 1 - 2e-16:
#: the doubling certifies with the observed block-to-block decay, which the fast mode
#: dominates while the near-unimodular one still carries tail.
NEAR_UNIMODULAR = RingConfig(
    left=JunctionParams(
        theta=(0.5246155159373036, 1.5883190889508672, 6.1109492870081485),
        alpha=3.909463943271849, beta=2.641438236260931, gamma=0.49587153970423326,
        delta=0.2988800162817391, a=0.22031379263948256, b=4.91155076297984,
        L0=2.706875610193847,
    ),
    mode=SYMMETRIC, xi1=0.8940134020388388, xi2=-1.1659745072257186,
)
NEAR_UNIMODULAR_K = 13.725667184225056


@pytest.fixture(scope="module")
def near_unimodular_error():
    """solve_series at tol 1e-12 on NEAR_UNIMODULAR: its error against the 50-digit resolvent."""
    s1, s2 = ring_matrices(NEAR_UNIMODULAR, NEAR_UNIMODULAR_K)
    amps, terms = solve_series(s1, s2, tol=1e-12, max_terms=2**24)
    assert terms == 2**20
    return float(np.abs(amps.to_array() - mp_resolvent_amplitudes(s1.m, s2.m)).max())


class TestNearUnimodularRing:
    def test_error_reached(self, near_unimodular_error):
        assert near_unimodular_error < 5e-12  # 4.7e-12, against 7.6e-13 for solve_closed_form

    @pytest.mark.xfail(strict=True, reason="the observed block-to-block decay misses the "
                       "tail carried by an eigenvalue within rounding of the unit circle")
    def test_meets_requested_tolerance(self, near_unimodular_error):
        assert near_unimodular_error <= 1e-12
