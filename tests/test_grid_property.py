"""The grid/point contract on rings drawn by hypothesis.

Nodes have Euler angles over the full range and eigenphases anywhere,
including within 1e-9 of 0 and pi, where the quotients of the node matrix
divide by nearly nothing; rings have every mode, arm lengths from 0.05 to
10, and a grid of up to 160 wavenumbers.  Every draw is held to the contract
of tests/test_grid.py against solve_auto, and each node's grid matrices to
a few eps of the per-point ones.  Two rows of each draw, from the grid and
from solve_auto, are held to the same bound against the 50-digit reference,
except where solve_auto takes a closed form for a node only within
PREDICATE_TOL of scale invariance: the closed forms then model the node as
exactly scale invariant, an error of the route, not of the kernel.
"""

import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from conftest import mp_resolvent_amplitudes  # noqa: E402
from test_grid import PRODUCT_TOL, contract_ratios, per_point, unitarity_errors  # noqa: E402
from yring import (  # noqa: E402
    ANTISYMMETRIC,
    SYMMETRIC,
    General,
    JunctionParams,
    RingConfig,
    is_scale_invariant,
    solve_grid,
)
from yring.junction import Orientation, _Node, _s_array, _s_grid  # noqa: E402

TWO_PI = 2.0 * math.pi

near_special = st.builds(
    lambda centre, offset: centre + offset,
    st.sampled_from([0.0, math.pi, TWO_PI]),
    st.floats(-1e-9, 1e-9),
)
eigenphases = st.one_of(st.floats(0.0, TWO_PI), near_special, st.sampled_from([0.0, math.pi]))
angles = st.floats(0.0, TWO_PI)


@st.composite
def junctions(draw):
    return JunctionParams(
        theta=(draw(eigenphases), draw(eigenphases), draw(eigenphases)),
        alpha=draw(angles), beta=draw(angles), gamma=draw(angles),
        delta=draw(angles), a=draw(angles), b=draw(angles),
        L0=draw(st.floats(0.1, 5.0)),
    )


@st.composite
def rings(draw):
    left = draw(junctions())
    mode = draw(st.sampled_from(["symmetric", "antisymmetric", "general"]))
    ring_mode = General(draw(junctions())) if mode == "general" else (
        SYMMETRIC if mode == "symmetric" else ANTISYMMETRIC)
    xi2 = draw(st.floats(-3.0, 3.0))
    return RingConfig(left=left, mode=ring_mode, xi1=xi2 + draw(st.floats(0.05, 10.0)), xi2=xi2)


@st.composite
def grids(draw):
    k_min = draw(st.floats(0.01, 30.0))
    return np.linspace(k_min, k_min + draw(st.floats(1e-6, 20.0)), draw(st.integers(3, 160)))


def near_scale_invariant_closed_form(cfg) -> bool:
    """solve_auto takes a closed form for a node that is not exactly scale invariant."""
    exact = all(t in (0.0, math.pi) for t in cfg.left.theta)
    return cfg._route.forms is not None and is_scale_invariant(cfg.left) and not exact


@settings(max_examples=120, derandomize=True, deadline=None, database=None)
@given(cfg=rings(), ks=grids())
def test_grid_within_contract(cfg, ks):
    amps, degenerate = solve_grid(cfg, ks)
    reference, ref_degenerate = per_point(cfg, ks)
    np.testing.assert_array_equal(degenerate, ref_degenerate)
    rows = np.flatnonzero(~degenerate)
    ratios = contract_ratios(cfg, ks[rows], amps[rows], reference[rows])
    assert (ratios <= 1.0).all(), f"{ratios.max():.3g} x the bound of solve_auto"
    if near_scale_invariant_closed_form(cfg) or not rows.size:
        return
    sampled = rows[[0, -1]]
    exact = np.array([mp_resolvent_amplitudes(*cfg._route.arrays(k)) for k in ks[sampled].tolist()])
    for route, got in (("grid", amps), ("point", reference)):
        ratios = contract_ratios(cfg, ks[sampled], got[sampled], exact)
        assert (ratios <= 1.0).all(), f"{route}: {ratios.max():.3g} x the bound of the 50-digit reference"


@settings(max_examples=120, derandomize=True, deadline=None, database=None)
@given(p=junctions(), swap=st.booleans(), orientation=st.sampled_from(list(Orientation)),
       xi=st.floats(-3.0, 3.0), ks=grids())
def test_node_matrices_match_the_point_route(p, swap, orientation, xi, ks):
    node = _Node(p, swap=swap)
    got = _s_grid(node, ks, xi, orientation)
    expected = np.stack([_s_array(node, k, xi, orientation) for k in ks.tolist()])
    assert np.abs(got - expected).max() <= PRODUCT_TOL
    assert unitarity_errors(got).max() <= PRODUCT_TOL
