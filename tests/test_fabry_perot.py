"""Every symmetric ring is a Fabry-Perot cavity, whatever its node.

The right node of a symmetric ring is the left one's adjoint, t0 = s0^dagger,
so the bounce block s s~ has the eigenvalues w and w |s00|^2, w = exp(2ik dxi)
(CS decomposition, Golub & Van Loan, Matrix Computations, 4th ed., 2.5.4).
det(I - s s~) = (1 - w)(1 - |s00|^2 w) then vanishes at every line
k = n pi/dxi, a bound state that the symmetry protects, and the Airy formula
|F| = (1 - rho)/|1 - rho w|, rho = |s00|^2, gives perfect transmission there
unless |s00| = 1, a node that decouples its exterior wire (Buttiker, Imry &
Azbel, Phys. Rev. A 30, 1982, 1984).

These tests hold the rings whose nodes are not scale invariant, written as
Symmetric and as General(right=left), to that result on solve_grid,
solve_auto and find_resonances.
"""

import math

import numpy as np
import pytest

from conftest import mp_resolvent_amplitudes, random_params
from test_grid import FULL_REFLECTOR, contract_ratios, per_point
from yring import (
    SYMMETRIC,
    General,
    ResonanceKind,
    RingConfig,
    find_resonances,
    is_scale_invariant,
    ring_matrices,
    solve_grid,
)

PI = math.pi
EPS = np.finfo(float).eps

#: The two spellings of a symmetric ring.
SPELLINGS = {"symmetric": lambda left: SYMMETRIC, "general": General}


def random_rings(seed: int, count: int, spelling: str) -> list[RingConfig]:
    """count symmetric rings whose nodes are not scale invariant, with arms of 0.5 to 4."""
    rng = np.random.default_rng([seed, len(spelling)])
    rings = []
    for _ in range(count):
        left = random_params(rng)
        assert not is_scale_invariant(left)
        xi2 = float(rng.uniform(-1.0, 1.0))
        rings.append(RingConfig(left=left, mode=SPELLINGS[spelling](left), xi1=xi2 + float(rng.uniform(0.5, 4.0)),
                                xi2=xi2))
    return rings


def lines(cfg: RingConfig, n: int) -> np.ndarray:
    """The first n lines n pi/dxi."""
    return np.arange(1, n + 1) * PI / cfg.dxi


@pytest.mark.parametrize("spelling", list(SPELLINGS))
class TestFabryPerot:
    def test_lines_transmit_perfectly(self, spelling):
        for cfg in random_rings(1, 50, spelling):
            ks = lines(cfg, 5)
            amps, degenerate = solve_grid(cfg, ks)
            point, point_degenerate = per_point(cfg, ks)  # a row where solve_auto raises is degenerate
            assert not degenerate.any() and not point_degenerate.any()
            for got in (amps, point):
                rho = np.array([abs(ring_matrices(cfg, k)[0].m[0, 0]) ** 2 for k in ks.tolist()])
                # |A| = |1 - w| |s00| / |1 - rho w|, with |1 - w| a few ulp of 2 k dxi
                assert (np.abs(got[:, 0]) * (1.0 - rho) <= 64 * EPS * ks * cfg.dxi).all()
                assert (np.abs(np.abs(got[:, 5]) ** 2 - 1.0) <= 16 * EPS).all()

    def test_off_the_lines_is_airy_and_meets_the_reference(self, spelling):
        rng = np.random.default_rng([2, len(spelling)])
        for cfg in random_rings(3, 20, spelling):
            ks = np.sort(rng.uniform(0.1, 20.0, 6))
            amps, degenerate = solve_grid(cfg, ks)
            point, _ = per_point(cfg, ks)
            assert not degenerate.any()
            exact = np.array([mp_resolvent_amplitudes(*cfg._route.arrays(k)) for k in ks.tolist()])
            rho = np.array([abs(ring_matrices(cfg, k)[0].m[0, 0]) ** 2 for k in ks.tolist()])
            airy = (1.0 - rho) / np.abs(1.0 - rho * np.exp(2j * ks * cfg.dxi))
            for got in (amps, point):
                assert (contract_ratios(cfg, ks, got, exact) <= 1.0).all()
                np.testing.assert_allclose(np.abs(got[:, 5]), airy, rtol=0.0, atol=1e-13)

    def test_a_decoupled_node_keeps_its_lines_degenerate(self, spelling):
        # |s00| = 1: the exterior wire decouples and the line is a real bound state
        cfg = RingConfig(left=FULL_REFLECTOR, mode=SPELLINGS[spelling](FULL_REFLECTOR), xi1=1.0, xi2=0.0)
        ks = lines(cfg, 5)
        off = ks - 7e-8
        amps, degenerate = solve_grid(cfg, np.concatenate([ks, off]))
        assert degenerate.tolist() == [True] * 5 + [False] * 5
        assert per_point(cfg, ks)[1].all() and not per_point(cfg, off)[1].any()
        assert (np.abs(amps[5:, 0]) ** 2 >= 1.0 - 1e-12).all()  # off the lines the node reflects all

    def test_find_recovers_every_line(self, spelling):
        k_min, k_max = 0.5, 10.0
        found = expected = 0
        for cfg in random_rings(4, 20, spelling):
            search = find_resonances(cfg, k_min, k_max, ResonanceKind.PERFECT_TRANSMISSION)
            assert search.warnings == ()
            ks = np.array([r.k_star for r in search.resonances])
            want = np.arange(math.ceil(k_min * cfg.dxi / PI), math.floor(k_max * cfg.dxi / PI) + 1) * PI / cfg.dxi
            assert ks.size == want.size
            # within the refine's resolution: through the resolvent's singular gap, 161 of these 256
            # lines land 1e-11 to 1e-8 off; the closed form's A crosses zero cleanly
            np.testing.assert_allclose(ks, want, rtol=0.0, atol=1e-12 * (k_max - k_min))
            found, expected = found + ks.size, expected + want.size
        assert found == expected >= 100
