"""Seeded inputs for the benchmark workloads.

Every workload runs the same four stages -- CLI sweeps, resonance
searches, CLI queries and cold CLI starts -- so that each run reports every
end-to-end metric.  A workload gives one stage most of the run and feeds
each stage a variant whose input property decides which layer dominates:

* sweep "long" grids (4096 points) make per-point work dominate; "short"
  grids (256 points) leave config parsing and CSV set-up visible.
* find "refine" rings are long (arm length 3 to 30) or exactly decoupled,
  so golden-section evaluations outnumber the scan; the "shipped" variant
  searches the three shipped configs (arm length 1 or 1.1, one resonance
  per window), so the scan dominates.
* query "cold" pools hold 150 configs (about 200 distinct junctions, more
  than the 128-entry build_V cache); "warm" pools hold 24 (32 junctions).

Junctions are drawn as the test suite draws them (eigenphases uniform, or
over {0, pi}^3 for scale-invariant nodes; Euler angles uniform; L0 uniform
on [0.2, 5]).  What sets the cost and the recall of a search is fixed
instead of drawn -- arm lengths, search windows, and for scale-invariant
rings the bin of |h11| -- so that runs with different seeds do the same
amount of work.
"""

from __future__ import annotations

import copy
import itertools
import json
import math
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from oracle import boundary_matrix

PI = math.pi
EULER = ("alpha", "beta", "gamma", "delta", "a", "b")
SHIPPED = ("symmetric_buttiker", "antisymmetric_generic", "general_ring")

SWEEP_N = {"long": 4096, "short": 256}
SWEEP_RANGE = (0.5, 10.0)
#: Every search covers [k0, FIND_WINDOW * k0]: a 360-point scan at the default
#: density of 2048 points per decade, short enough to repeat each search.
FIND_WINDOW = 1.5
#: Window of the shipped-config searches; holds the arm resonance pi of all three.
SHIPPED_K0 = 3.0
#: Window start of the refine batch: with the fixed arm lengths below it fixes
#: how many lines each window holds, whatever the seed.
REFINE_K0 = 4.0
#: Arm lengths of the mixed-pattern scale-invariant rings, one ladder per mode.
REFINE_SI_DXI = tuple(float(x) for x in np.geomspace(3.0, 30.0, 8))
#: |h11| bin (of eight equal bins of [0, 1]) for the ring on each ladder rung.
#: |h11| is the exterior reflection of the node; it sets how narrow the lines
#: are, and so whether find can miss them.
REFINE_H11_BIN = (5, 2, 7, 0, 4, 6, 1, 3)
REFINE_DECOUPLED_DXI = (4.0, 12.0)
REFINE_GENERAL_DXI = tuple(float(x) for x in np.geomspace(3.0, 30.0, 4))
QUERY_POOL = {"cold": 150, "warm": 24}
#: Query commands, taken in turn.  No measured usage says how often each is
#: run, so each gets an equal count.
QUERY_MIX = ("ring", "junction", "check")
QUERY_K_RANGE = (0.5, 10.0)
#: Standard deviation of the seeded perturbation of shipped configs (radians, log-length).
#: Small on purpose: at 0.05, with eigenphases and L0 jittered too, the
#: bounce series of `check` on the general ring grew up to 3x, so query
#: latency followed the seed rather than the program.
QUERY_JITTER = 0.01
#: Distinct cold-start commands (one per shipped family), and runs of each.
COLD_INPUTS = 3
COLD_REPEATS = 6


@dataclass(frozen=True)
class WorkloadSpec:
    main: str  # stage that takes the rest of the run
    sweep: str
    find: str
    query: str
    shares: dict  # budget share of the run for each companion stage


#: Budget share of each companion stage.  A chosen figure, not a measured
#: one: companions exist only so that every workload reports every metric,
#: and a tenth of the run each leaves the main stage four fifths while
#: still giving every companion input its minimum number of runs.
COMPANION_SHARE = 0.1


WORKLOADS = {
    "sweep-long": WorkloadSpec("sweep", "long", "shipped", "warm",
                               {"find": COMPANION_SHARE, "query": COMPANION_SHARE}),
    "find-refine": WorkloadSpec("find", "short", "refine", "warm",
                                {"sweep": COMPANION_SHARE, "query": COMPANION_SHARE}),
    "cli-queries": WorkloadSpec("query", "short", "shipped", "cold",
                                {"sweep": COMPANION_SHARE, "find": COMPANION_SHARE}),
}


def _junction(rng: np.random.Generator, theta=None) -> dict:
    """A junction block: random eigenphases unless given, uniform Euler angles, L0 in [0.2, 5]."""
    if theta is None:
        theta = rng.uniform(0.0, 2.0 * PI, size=3)
    e = rng.uniform(0.0, 2.0 * PI, size=6)
    block = {"theta": [float(t) for t in theta]}
    block.update({name: float(v) for name, v in zip(EULER, e)})
    block["L0"] = float(rng.uniform(0.2, 5.0))
    return block


def _ring_doc(left: dict, mode: str, dxi: float, xi2: float, right: dict | None = None) -> dict:
    junctions = {"left": left}
    ring = {"left": "left", "mode": mode, "xi1": xi2 + dxi, "xi2": xi2}
    if right is not None:
        junctions["right"] = right
        ring["right"] = "right"
    return {"junctions": junctions, "ring": ring, "task": {"junction": "left"}}


def _parse_angle(value) -> float:
    if isinstance(value, str) and value.startswith("pi:"):
        return float(value[3:]) * PI
    return float(value)


@dataclass(frozen=True)
class SweepCase:
    config: str  # path relative to the checkout
    k_min: float
    k_max: float
    n: int


@dataclass(frozen=True)
class FindCase:
    config: str
    k_min: float
    k_max: float


@dataclass(frozen=True)
class Query:
    command: str
    config: str
    k: float


@dataclass
class Inputs:
    """Everything one run feeds to the program, generated from the seed."""

    sweeps: list
    finds: list
    queries: list
    cold: list

    def config_paths(self) -> list[str]:
        paths = [c.config for c in self.sweeps] + [c.config for c in self.finds]
        paths += [q.config for q in self.queries] + [q.config for q in self.cold]
        return sorted(set(paths))


def _write(root: Path, rel: str, doc: dict) -> str:
    (root / rel).write_text(json.dumps(doc))
    return rel


def sweep_cases(rng, variant: str, workdir: Path, root: Path) -> list[SweepCase]:
    """The three shipped configs, one decoupled ring and three random general rings.

    The decoupled ring joins two identical totally reflecting nodes (all
    eigenphases pi) in general mode and ends its grid on an arm resonance
    k = m pi / dxi, where the ring has a bound state and the sweep must flag
    the row degenerate.  Five of the seven rings take the general resolvent
    route, so the median call sits well inside that group.
    """
    n = SWEEP_N[variant]
    k_min, k_max = SWEEP_RANGE
    cases = [SweepCase(f"configs/{name}.json", k_min, k_max, n) for name in SHIPPED]
    dxi = float(rng.uniform(0.5, 3.0))
    left = _junction(rng, theta=(PI, PI, PI))
    m = math.floor(k_max * dxi / PI)
    rel = _write(root, f"{workdir}/sweep_decoupled.json",
                 _ring_doc(left, "general", dxi, 0.0, right=dict(left)))
    cases.append(SweepCase(rel, k_min, m * PI / dxi, n))
    for i in range(3):
        doc = _ring_doc(_junction(rng), "general", float(rng.uniform(0.3, 3.0)),
                        float(rng.uniform(-1.0, 1.0)), right=_junction(rng))
        cases.append(SweepCase(_write(root, f"{workdir}/sweep_general_{i}.json", doc),
                               k_min, k_max, n))
    return cases


def _si_junction(rng, theta, h11_bin: int, bins: int) -> dict:
    """A scale-invariant junction drawn as the tests draw it, conditioned on its |h11| bin."""
    lo, hi = h11_bin / bins, (h11_bin + 1) / bins
    for _ in range(100_000):
        block = _junction(rng, theta=theta)
        if lo <= abs(boundary_matrix(SimpleNamespace(**block))[0, 0]) < hi:
            return block
    raise RuntimeError(f"no draw with |h11| in [{lo}, {hi})")


def find_cases(rng, variant: str, workdir: Path, root: Path) -> list[FindCase]:
    """Rings for the resonance searches; every ring is searched for both kinds.

    refine: two decoupled symmetric rings (eigenphases all 0, all pi), eight
    symmetric and eight antisymmetric rings on mixed eigenphase patterns,
    one per rung of REFINE_SI_DXI and per |h11| bin, and four long general
    rings.  The long rings put many lines in each window and the decoupled
    ones many flat-noise minima, so refine evaluations outnumber the scan.
    shipped: the three shipped configs, the same for every seed, so the
    stage adds no seed-to-seed spread where it is not the workload's focus.
    """
    if variant == "shipped":
        return [FindCase(f"configs/{name}.json", SHIPPED_K0, FIND_WINDOW * SHIPPED_K0)
                for name in SHIPPED]
    mixed = [p for p in itertools.product((0.0, PI), repeat=3) if len(set(p)) == 2]
    rings = [((0.0, 0.0, 0.0), "symmetric", dxi, None) for dxi in REFINE_DECOUPLED_DXI[:1]]
    rings += [((PI, PI, PI), "symmetric", dxi, None) for dxi in REFINE_DECOUPLED_DXI[1:]]
    for rung, dxi in enumerate(REFINE_SI_DXI):
        for mode in ("symmetric", "antisymmetric"):
            rings.append((mixed[int(rng.integers(len(mixed)))], mode, dxi, REFINE_H11_BIN[rung]))
    rings += [(None, "general", dxi, None) for dxi in REFINE_GENERAL_DXI]
    cases = []
    for i, (theta, mode, dxi, h11_bin) in enumerate(rings):
        xi2 = float(rng.uniform(-1.0, 1.0))
        if mode == "general":
            doc = _ring_doc(_junction(rng), mode, dxi, xi2, right=_junction(rng))
        elif h11_bin is None:
            doc = _ring_doc(_junction(rng, theta=theta), mode, dxi, xi2)
        else:
            doc = _ring_doc(_si_junction(rng, theta, h11_bin, len(REFINE_H11_BIN)), mode, dxi, xi2)
        rel = _write(root, f"{workdir}/find_{i}.json", doc)
        cases.append(FindCase(rel, REFINE_K0, FIND_WINDOW * REFINE_K0))
    return cases


def _perturbed(rng, doc: dict) -> dict:
    """A shipped config with jittered Euler angles and arm length."""
    out = copy.deepcopy(doc)
    for block in out["junctions"].values():
        for name in EULER:
            block[name] = _parse_angle(block.get(name, 0.0)) + float(rng.normal(0.0, QUERY_JITTER))
    ring = out["ring"]
    ring["xi1"] = ring["xi2"] + (ring["xi1"] - ring["xi2"]) * math.exp(rng.normal(0.0, QUERY_JITTER))
    out["task"] = {"junction": ring["left"]}
    return out


def query_pool(rng, variant: str, workdir: Path, root: Path) -> list[str]:
    """Distinct configs: seeded perturbations of the shipped ones, families in turn."""
    shipped = [json.loads((root / "configs" / f"{name}.json").read_text()) for name in SHIPPED]
    return [_write(root, f"{workdir}/query_{i}.json", _perturbed(rng, shipped[i % 3]))
            for i in range(QUERY_POOL[variant])]


def queries(rng, pool: list[str]) -> list[Query]:
    """One pass over the pool, padded so every command meets every family equally often.

    Query i runs QUERY_MIX[i % 3] on a config of family (i // 3) % 3 (the
    pool cycles the families), taking that family's configs in seeded order.
    """
    families = [[j for j in range(len(pool)) if j % 3 == f] for f in range(3)]
    orders = [[family[i] for i in rng.permutation(len(family))] for family in families]
    block = len(QUERY_MIX) * len(families)
    out = []
    for i in range(math.ceil(len(pool) / block) * block):
        family = (i // len(QUERY_MIX)) % len(families)
        config = orders[family][(i // block * len(QUERY_MIX) + i % len(QUERY_MIX)) % len(orders[family])]
        out.append(Query(QUERY_MIX[i % len(QUERY_MIX)], pool[config], float(rng.uniform(*QUERY_K_RANGE))))
    return out


def generate(seed: int, spec: WorkloadSpec, workdir: Path, root: Path) -> Inputs:
    """Write the run's config files under root/workdir and describe its operations."""
    (root / workdir).mkdir(parents=True, exist_ok=True)
    rngs = [np.random.default_rng([seed, stage]) for stage in range(4)]
    pool = query_pool(rngs[2], spec.query, workdir, root)
    cold_rng = rngs[3]
    cold = [Query("junction", pool[f], float(cold_rng.uniform(*QUERY_K_RANGE)))
            for f in range(COLD_INPUTS)]
    return Inputs(
        sweeps=sweep_cases(rngs[0], spec.sweep, workdir, root),
        finds=find_cases(rngs[1], spec.find, workdir, root),
        queries=queries(rngs[2], pool),
        cold=cold,
    )
