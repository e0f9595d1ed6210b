"""Runs the workload stages through yring's public entry points and checks every output.

Timed regions cover only the call into the program (`yring.cli.main`,
`find_resonances`, or a `python -m yring.cli` subprocess); parsing and
oracle checks run between calls and are never timed.  Failed operations
(an exception, a non-zero exit code) and mismatches against the oracle are
both counted as failed, per stage; a mismatch also marks the run incorrect.
A failed operation still records the time it took, and a failed search
counts every analytic zero of its window as missed, so a crash never makes
a stage look faster or more complete by dropping out of it.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import re
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from oracle import SINGULAR_COND, RingOracle, amplitude_tolerance, boundary_matrix, node_s

CSV_HEADER = "k,abs2_A,abs2_B,abs2_C,abs2_D,abs2_E,abs2_F,re_A,im_A,re_F,im_F,degenerate"
FLUX_TOL = 1e-10
FIND_TOL = 1e-8  # find_resonances' default probability threshold
#: Found and analytic positions match within this relative distance.
MATCH_RTOL = 1e-6
#: Rows per sweep call compared against the oracle, besides every degenerate row.
SWEEP_SAMPLES = 16
#: Share of queries compared against the oracle (every output is parsed).
QUERY_SAMPLE_SHARE = 0.25
SUBPROCESS_TIMEOUT_S = 60.0

_COMPLEX = re.compile(r"([+-]\d\.\d+e[+-]\d+) ([+-]\d\.\d+e[+-]\d+)j")


@dataclass
class Samples:
    """Raw measurements and outcomes of one stretch of work."""

    # Timed calls are (pass, unit, seconds, index of the last reference kernel run
    # before the call), and for sweeps the rows delivered.
    sweep_calls: list = field(default_factory=list)
    degenerate_rows: int = 0
    find_searches: list = field(default_factory=list)
    recall_expected: int = 0
    recall_found: int = 0
    query_calls: list = field(default_factory=list)
    cold_starts: list = field(default_factory=list)
    setup: list = field(default_factory=list)  # (seconds, kernel index)
    calibration: list = field(default_factory=list)  # reference kernel seconds
    attempted: int = 0
    failed: int = 0
    stage_attempted: Counter = field(default_factory=Counter)
    stage_failed: Counter = field(default_factory=Counter)
    errors: list = field(default_factory=list)  # failed operations: exceptions, exit codes
    mismatches: list = field(default_factory=list)  # wrong outputs

    def timed(self, calls: list, pass_no: int, unit: int, seconds: float, *extra) -> None:
        calls.append((pass_no, unit, seconds, len(self.calibration) - 1, *extra))

    def attempt(self, stage: str) -> None:
        self.attempted += 1
        self.stage_attempted[stage] += 1

    def fail(self, stage: str, what: str = "") -> None:
        """Count a failed operation; `what` names a crash (mismatches are kept apart)."""
        self.failed += 1
        self.stage_failed[stage] += 1
        if what and len(self.errors) < 20:
            self.errors.append(what)

    def ok_ratio(self) -> float:
        """Share of operations that succeeded, in the stage where that share is lowest."""
        return min(((n - self.stage_failed[st]) / n for st, n in self.stage_attempted.items()),
                   default=1.0)

    def mismatch(self, what: str) -> None:
        if len(self.mismatches) < 20:
            self.mismatches.append(what)


class Harness:
    """Holds the loaded inputs and their oracles; runs and checks one input at a time."""

    def __init__(self, root: Path, workdir: Path, inputs, yring_modules, seed: int):
        self.root = root
        self.workdir = workdir
        self.inputs = inputs
        self.y = yring_modules
        self.rng = np.random.default_rng([seed, 99])
        self.configs = {}
        self.oracles = {}
        self.expected = {}
        self.samples = Samples()

    # -- set-up ---------------------------------------------------------------

    def load(self) -> None:
        """Parse every config and warm the program on each ring (timed as set-up)."""
        load_config = self.y.config.load_config
        for rel in self.inputs.config_paths():
            cfg = load_config(self.root / rel)
            self.configs[rel] = cfg
            if cfg.ring is not None:
                k = 0.5 * (cfg.ring.xi1 - cfg.ring.xi2) + 1.0
                with contextlib.suppress(ArithmeticError):
                    self.y.ring.solve_auto(cfg.ring, k)

    def prepare_checks(self) -> None:
        """Build oracles and the analytic resonance positions (not timed)."""
        for rel, cfg in self.configs.items():
            if cfg.ring is not None:
                self.oracles[rel] = RingOracle(cfg.ring)
        for case in self.inputs.finds:
            for kind in ("transmission", "reflection"):
                self.expected[(case.config, kind)] = self._analytic_zeros(case, kind)

    def _analytic_zeros(self, case, kind: str) -> list[float]:
        """Isolated zeros of the targeted probability for a scale-invariant ring.

        Symmetric transmission and antisymmetric reflection sit on the arm
        lattice n pi / dxi; antisymmetric transmission follows the cosine
        target from perfect_transmission_target.  A position counts only
        when the oracle is regular there and confirms the zero, and only
        when the probability does not vanish identically.
        """
        ring = self.configs[case.config].ring
        oracle = self.oracles[case.config]
        if not self.y.junction.is_scale_invariant(ring.left):
            return []
        dxi = ring.xi1 - ring.xi2
        top = int(case.k_max * dxi / math.pi) + 2
        if (oracle.mode, kind) in (("Symmetric", "transmission"), ("AntiSymmetric", "reflection")):
            candidates = [n * math.pi / dxi for n in range(1, top)]
        elif (oracle.mode, kind) == ("AntiSymmetric", "transmission"):
            target = self.y.ring.perfect_transmission_target(ring)
            if target.status != "ok":
                return []
            half = math.acos(max(-1.0, min(1.0, target.c_star)))
            candidates = [(2.0 * math.pi * n + s * half) / (2.0 * dxi)
                          for n in range(top) for s in (1.0, -1.0)]
        else:
            return []
        margin = (case.k_max - case.k_min) / 128.0
        candidates = sorted({k for k in candidates if case.k_min + margin < k < case.k_max - margin})
        probes = [case.k_min + (case.k_max - case.k_min) * f for f in (0.3141, 0.5772, 0.8413)]
        if not candidates or max(oracle.probability(k, kind) for k in probes) < 1e-6:
            return []
        zeros = []
        for k in candidates:
            amps, cond = oracle.solve(k)
            p = abs(amps[0] if kind == "transmission" else amps[5]) ** 2
            if cond > SINGULAR_COND and not p <= FIND_TOL:
                continue  # a bound state on a decoupled ring: no zero of the exterior amplitude
            if p > FIND_TOL:
                self.samples.mismatch(f"{case.config} {kind}: analytic zero k={k!r} has p={p:.3e}")
                continue
            zeros.append(k)
        return zeros

    # -- program calls ------------------------------------------------------

    def _cli(self, argv: list[str]) -> tuple[str, float, str]:
        """Run one CLI command in-process: (stdout, seconds, failure or "")."""
        out, err = io.StringIO(), io.StringIO()
        rc = None
        failure = ""
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                rc = self.y.cli.main(argv)
            except Exception as exc:  # any crash is a failed operation, recorded below
                failure = f"{type(exc).__name__}: {exc}"
            dt = time.perf_counter() - t0
        if not failure and rc != 0:
            failure = f"exit {rc}: {err.getvalue().strip()[:200]}"
        return out.getvalue(), dt, failure

    # -- stages -------------------------------------------------------------

    def stages(self) -> dict:
        """Stage name -> (units in one pass, function running unit i of pass p)."""
        return {
            "sweep": (len(self.inputs.sweeps), self.sweep_unit),
            "find": (2 * len(self.inputs.finds), self.find_unit),
            "query": (len(self.inputs.queries), self.query_unit),
        }

    def sweep_unit(self, s: Samples, unit: int, pass_no: int) -> None:
        case = self.inputs.sweeps[unit]
        out = self.root / self.workdir / "sweep_out.csv"
        argv = ["sweep", "--config", str(self.root / case.config), "--k-min", repr(case.k_min),
                "--k-max", repr(case.k_max), "--n", str(case.n), "--out", str(out)]
        s.attempt("sweep")
        _, dt, failure = self._cli(argv)
        if failure:
            s.timed(s.sweep_calls, pass_no, unit, dt, 0)
            s.fail("sweep", f"sweep {case.config}: {failure}")
            return
        s.timed(s.sweep_calls, pass_no, unit, dt, case.n)
        if not self._check_sweep(case, out.read_text(), s):
            s.fail("sweep")

    def _check_sweep(self, case, text: str, s: Samples) -> bool:
        where = f"sweep {case.config}"
        lines = text.split("\n")
        if lines[0] != CSV_HEADER or lines[-1] != "" or len(lines) != case.n + 2:
            s.mismatch(f"{where}: header or row count wrong")
            return False
        grid = np.linspace(case.k_min, case.k_max, case.n)
        rows = []
        degenerate = []
        for i, line in enumerate(lines[1:-1]):
            cells = line.split(",")
            if len(cells) != 12 or cells[11] not in ("0", "1") or float(cells[0]) != grid[i]:
                s.mismatch(f"{where}: malformed row {i}")
                return False
            if cells[11] == "1":
                if any(c != "nan" for c in cells[1:11]):
                    s.mismatch(f"{where}: degenerate row {i} carries numbers")
                    return False
                degenerate.append(i)
                rows.append(None)
                continue
            v = [float(c) for c in cells[1:11]]
            if not all(math.isfinite(x) for x in v) or abs(v[0] + v[5] - 1.0) > FLUX_TOL:
                s.mismatch(f"{where}: row {i} not finite or flux defect above {FLUX_TOL}")
                return False
            rows.append(v)
        s.degenerate_rows += len(degenerate)
        oracle = self.oracles[case.config]
        sample = sorted(set(self.rng.choice(case.n, size=min(SWEEP_SAMPLES, case.n), replace=False)))
        for i in sorted(set(sample) | set(degenerate)):
            k = float(grid[i])
            amps, cond = oracle.solve(k)
            if rows[i] is None:
                if cond <= SINGULAR_COND:
                    s.mismatch(f"{where}: row {i} flagged degenerate but the ring is regular "
                               f"(cond {cond:.2e})")
                    return False
                continue
            v = rows[i]
            tol = amplitude_tolerance(cond)
            got = np.array([v[6] + 1j * v[7], v[8] + 1j * v[9]])
            ref = amps[[0, 5]]
            abs2 = np.abs(amps) ** 2
            known = ~np.isnan(abs2)
            if (np.abs(got - ref)[~np.isnan(ref)].max(initial=0.0) > tol
                    or np.abs(np.array(v[:6]) - abs2)[known].max(initial=0.0) > 2.0 * tol * max(1.0, float(abs2[known].max(initial=0.0)))):
                s.mismatch(f"{where}: row {i} (k={k!r}) differs from the 6x6 oracle")
                return False
        return True

    # -- find stage -------------------------------------------------------------

    def find_unit(self, s: Samples, unit: int, pass_no: int) -> None:
        case = self.inputs.finds[unit // 2]
        kind = ("transmission", "reflection")[unit % 2]
        ring = self.configs[case.config].ring
        s.attempt("find")
        t0 = time.perf_counter()
        try:
            result = self.y.spectrum.find_resonances(
                ring, case.k_min, case.k_max, self.y.spectrum.ResonanceKind(kind))
        except Exception as exc:  # a crash is a failed operation: it found nothing
            s.timed(s.find_searches, pass_no, unit, time.perf_counter() - t0)
            if pass_no == 0:
                s.recall_expected += len(self.expected[(case.config, kind)])
            s.fail("find", f"find {case.config} {kind}: {type(exc).__name__}: {exc}")
            return
        s.timed(s.find_searches, pass_no, unit, time.perf_counter() - t0)
        if not self._check_find(case, kind, result, s, count_recall=pass_no == 0):
            s.fail("find")

    def _check_find(self, case, kind: str, result, s: Samples, count_recall: bool) -> bool:
        oracle = self.oracles[case.config]
        found = [r.k_star for r in result.resonances]
        if found != sorted(found) or any(not case.k_min < k < case.k_max for k in found):
            s.mismatch(f"find {case.config} {kind}: positions unordered or out of range")
            return False
        for k in found:
            amps, _ = oracle.solve(k)
            p = abs(amps[0] if kind == "transmission" else amps[5]) ** 2
            if p > 2.0 * FIND_TOL:  # False for NaN: the oracle cannot judge a singular point
                s.mismatch(f"find {case.config} {kind}: k*={k!r} has oracle probability {p:.3e}")
                return False
        expected = self.expected[(case.config, kind)]
        if not count_recall:
            return True
        s.recall_expected += len(expected)
        s.recall_found += sum(
            any(abs(k - e) <= MATCH_RTOL * max(1.0, e) for k in found) for e in expected
        )
        return True

    # -- query stage ------------------------------------------------------------

    def query_unit(self, s: Samples, unit: int, pass_no: int) -> None:
        q = self.inputs.queries[unit]
        argv = [q.command, "--config", str(self.root / q.config)]
        if q.command != "check":
            argv += ["--k", repr(q.k)]
        s.attempt("query")
        text, dt, failure = self._cli(argv)
        s.timed(s.query_calls, pass_no, unit, dt)
        if failure:
            s.fail("query", f"{q.command} {q.config}: {failure}")
            return
        if not self._check_query(q, text, s, deep=self.rng.random() < QUERY_SAMPLE_SHARE):
            s.fail("query")

    def _check_query(self, q, text: str, s: Samples, deep: bool) -> bool:
        where = f"{q.command} {q.config} k={q.k!r}"
        if q.command == "check":
            ok = text.endswith("all checks passed\n")
        elif q.command == "junction":
            ok = self._check_junction(q, text, deep)
        else:
            ok = self._check_ring(q, text, deep)
        if not ok:
            s.mismatch(f"{where}: output disagrees with the oracle or does not parse")
        return ok

    def _check_junction(self, q, text: str, deep: bool) -> bool:
        lines = text.splitlines()
        try:
            start = next(i for i, line in enumerate(lines) if line.startswith("S matrix")) + 1
            m = np.array([[complex(float(a), float(b)) for a, b in _COMPLEX.findall(lines[start + r])]
                          for r in range(3)])
        except (StopIteration, ValueError, IndexError):
            return False
        if m.shape != (3, 3):
            return False
        if not deep:
            return True
        cfg = self.configs[q.config]
        params = cfg.junctions[cfg.task["junction"]]
        ref = node_s(boundary_matrix(params), params.L0, q.k, 0.0, inward=True)
        return float(np.abs(m - ref).max()) <= 1e-10

    def _check_ring(self, q, text: str, deep: bool) -> bool:
        amps = {}
        for line in text.splitlines():
            if len(line) > 4 and line[0] in "ABCDEF" and line[1:4] == " = ":
                pair = _COMPLEX.search(line)
                if pair:
                    amps[line[0]] = complex(float(pair.group(1)), float(pair.group(2)))
        if len(amps) != 6:
            return False
        got = np.array([amps[c] for c in "ABCDEF"])
        if abs(abs(got[0]) ** 2 + abs(got[5]) ** 2 - 1.0) > FLUX_TOL:
            return False
        if not deep:
            return True
        ref, cond = self.oracles[q.config].solve(q.k)
        known = ~np.isnan(ref)
        return float(np.abs(got - ref)[known].max(initial=0.0)) <= amplitude_tolerance(cond) + 1e-11

    # -- cold starts --------------------------------------------------------------

    def cold_start(self, s: Samples, unit: int, pass_no: int, env: dict) -> None:
        q = self.inputs.cold[unit]
        argv = [sys.executable, "-m", "yring.cli", "junction", "--config",
                str(self.root / q.config), "--k", repr(q.k)]
        s.attempt("cold")
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(argv, cwd=self.root, env=env, capture_output=True, text=True,
                                  timeout=SUBPROCESS_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            s.timed(s.cold_starts, pass_no, unit, time.perf_counter() - t0)
            s.fail("cold", f"cold start {q.config}: timed out")
            return
        s.timed(s.cold_starts, pass_no, unit, time.perf_counter() - t0)
        if proc.returncode != 0:
            s.fail("cold", f"cold start {q.config}: exit {proc.returncode}")
            return
        if not self._check_junction(q, proc.stdout, deep=True):
            s.mismatch(f"cold start {q.config}: output disagrees with the oracle")
            s.fail("cold")


def subprocess_env(root: Path) -> dict:
    """Environment for child interpreters: the checkout's sources, one BLAS thread."""
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env
