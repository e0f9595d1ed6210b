"""yring benchmark: sweep throughput, resonance time-to-solution, CLI query latency.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sweep-long --seed 1 --seconds 20 --trace 0

With --trace 0 the run measures for --seconds seconds and reports the
end-to-end metrics; with --trace 1 it runs one fixed block of every stage
four times, untraced and traced in turn, and reports per-layer metrics, the
exact counts (asserted equal between the two traced passes) and the tracing
overhead.
The last line of standard output is the result object; the line before it
is a report with the environment, sample counts and input shares.
Exit code 0 means every output checked out; 1 means a check failed;
2 means the checkout has no yring sources.
"""

from __future__ import annotations

import os

# Pin native thread pools before numpy is imported anywhere in this process.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import numpy as np  # noqa: E402

import calibrate  # noqa: E402
import workloads  # noqa: E402
from harness import SUBPROCESS_TIMEOUT_S, Harness, Samples, subprocess_env  # noqa: E402
from tracing import LAYERS, Tracer  # noqa: E402

#: Seconds between set-up repeats during a measurement.
SETUP_INTERVAL_S = 1.0
IMPORT_REPEATS = 5
#: Every input runs at least this often (main stage, companion stages).
MIN_PASSES = {"main": 3, "companion": 5}
#: Query latency percentiles are over every call; with this many calls at
#: least ten lie beyond the 99th percentile.
MIN_QUERY_CALLS = 1000


def _import_yring(root: Path):
    src = (root / "src").resolve()
    if not (src / "yring" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(src))
    modules = SimpleNamespace(package=importlib.import_module("yring"))
    for layer in LAYERS:
        setattr(modules, layer, importlib.import_module(f"yring.{layer}"))
    if not Path(modules.package.__file__).resolve().is_relative_to(src):
        return None
    return modules


def environment() -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), "")
    except OSError:
        pass
    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "numpy": np.__version__,
        "optimize_flag": sys.flags.optimize,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "machine": platform.machine(),
    }


def _median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def warm_up(h: Harness) -> None:
    """One untimed sweep and ten queries, so first-use allocation is not measured."""
    unused = Samples()
    stages = h.stages()
    stages["sweep"][1](unused, 0, 0)
    for unit in range(min(10, stages["query"][0])):
        stages["query"][1](unused, unit, 0)


def measure(s: Samples, h: Harness, spec, seconds: float, env: dict, set_up) -> None:
    """Interleave the stages unit by unit for `seconds`, then finish MIN_PASSES of each.

    The next unit always comes from the stage furthest below its share of
    the time spent so far, and cold starts, set-up repeats (`set_up()`
    returns its seconds) and the reference kernel are spread evenly over
    the run, so every stage samples the whole run rather than one stretch
    of it.
    """
    stages = h.stages()
    share = dict(spec.shares)
    share[spec.main] = 1.0 - sum(spec.shares.values())
    spent = dict.fromkeys(stages, 0.0)
    done = dict.fromkeys(stages, 0)
    cold_inputs = len(h.inputs.cold)
    cold_total = cold_inputs * workloads.COLD_REPEATS
    cold_done = 0
    passes = {name: MIN_PASSES["main" if name == spec.main else "companion"] for name in stages}
    start = time.perf_counter()
    calibrated = set_up_at = -math.inf
    while True:
        elapsed = time.perf_counter() - start
        if elapsed - calibrated >= calibrate.INTERVAL_S:
            s.calibration.append(calibrate.kernel_seconds())
            calibrated = elapsed
        if elapsed - set_up_at >= SETUP_INTERVAL_S and elapsed < seconds:
            s.setup.append((set_up(), len(s.calibration) - 1))
            set_up_at = elapsed
        if cold_done < cold_total and cold_done <= cold_total * elapsed / seconds:
            h.cold_start(s, cold_done % cold_inputs, cold_done // cold_inputs, env)
            cold_done += 1
            continue
        pending = [name for name in stages if done[name] < passes[name] * stages[name][0]
                   or (name == "query" and done[name] < MIN_QUERY_CALLS)]
        if elapsed >= seconds and not pending and cold_done == cold_total:
            return
        candidates = pending if elapsed >= seconds else list(stages)
        name = min(candidates, key=lambda n: spent[n] / share[n])
        size, run_unit = stages[name]
        t0 = time.perf_counter()
        run_unit(s, done[name] % size, done[name] // size)
        spent[name] += time.perf_counter() - t0
        done[name] += 1


def end_to_end(s: Samples) -> tuple[dict, dict]:
    """The user-facing metrics, over every timed call.

    Returns the metrics with each call scaled to reference machine speed by
    the kernel runs around it (calibrate.py), and the same metrics unscaled.
    """
    kernels = s.calibration
    return (_metrics(s, lambda dt, k: dt * calibrate.factor(kernels, k)),
            _metrics(s, lambda dt, k: dt))


def _input_medians(calls: list, t) -> list[float]:
    """Median time of each input over its runs, so that every input weighs the same
    however many times it ran."""
    times = {}
    for _, unit, dt, k, *_ in calls:
        times.setdefault(unit, []).append(t(dt, k))
    return [_median(v) for v in times.values()]


def _metrics(s: Samples, t) -> dict:
    """End-to-end metrics with call times t(seconds, kernel index)."""
    sweep_s = [t(dt, k) for _, _, dt, k, _ in s.sweep_calls]
    search_s = _input_medians(s.find_searches, t)
    query_ms = [1e3 * t(dt, k) for _, _, dt, k in s.query_calls]
    return {
        "setup_s": (_median(t(dt, k) for dt, k in s.setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "ok_ratio": (s.ok_ratio(), "ratio"),
        "sweep.points_per_s": (sum(rows for *_, rows in s.sweep_calls) / sum(sweep_s) if sweep_s else 0.0,
                               "1/s"),
        "sweep.call_s.p50": (_median(_input_medians(s.sweep_calls, t)), "s"),
        "find.search_s.p50": (_median(search_s), "s"),
        "find.total_s": (sum(search_s), "s"),  # one search of each input
        "find.recall": (s.recall_found / s.recall_expected if s.recall_expected else 1.0, "ratio"),
        "query.latency_ms.p50": (_median(query_ms), "ms"),
        "query.latency_ms.p99": (float(np.percentile(query_ms, 99)) if query_ms else 0.0, "ms"),
        "query.per_s": (1e3 * len(query_ms) / sum(query_ms) if query_ms else 0.0, "1/s"),
        "cold_start_s.p50": (_median(t(dt, k) for _, _, dt, k in s.cold_starts), "s"),
    }


def _tail(values: list) -> dict:
    """The highest whole percentile with at least ten values beyond it, and the count."""
    out = {"calls": len(values)}
    for q in range(99, 0, -1):
        v = float(np.percentile(values, q)) if len(values) > 10 else math.inf
        beyond = sum(x > v for x in values)
        if beyond >= 10:
            return {**out, "percentile": q, "value": v, "beyond": beyond}
    return out


def _import_seconds(root: Path, env: dict) -> float:
    """Fresh-process import of yring.cli beyond an interpreter that imports numpy."""
    base, full = [], []
    for _ in range(IMPORT_REPEATS):
        for code, out in (("import numpy", base), ("import numpy, yring.cli", full)):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], cwd=root, env=env, check=True,
                           capture_output=True, timeout=SUBPROCESS_TIMEOUT_S)
            out.append(time.perf_counter() - t0)
    return _median(full) - _median(base)


def _diff(after: dict, before: dict) -> dict:
    zero = [0, 0.0, 0.0]
    return {k: [a - b for a, b in zip(v, before.get(k, zero))] for k, v in after.items()}


def traced(h: Harness, root: Path, env: dict, build_v) -> tuple[Samples, dict, dict]:
    """Untraced, traced, untraced and traced passes over every unit of every stage.

    The overhead compares the mean traced and untraced pass, each pass scaled
    by the reference kernel runs just before and after it (calibrate.py), so
    that a slow stretch of the machine does not read as tracing cost.
    """
    s = Samples()
    stages = h.stages()

    def fixed_pass(tracer: Tracer | None):
        build_v.cache_clear()
        per_stage = {}
        t0 = time.perf_counter()
        for name, (size, run_unit) in stages.items():
            before = tracer.snapshot() if tracer else None
            n_queries = len(s.query_calls)
            for unit in range(size):
                run_unit(s, unit, 0)
            if tracer:
                stats, counts = tracer.snapshot()
                per_stage[name] = (_diff(stats, before[0]), counts - before[1],
                                   len(s.query_calls) - n_queries)
        return time.perf_counter() - t0, per_stage

    tracer = Tracer()
    kernels = [calibrate.kernel_seconds()]
    passes = {False: [], True: []}  # traced? -> [(seconds, seconds at reference speed)]
    for traced_pass in (False, True, False, True):
        if traced_pass:
            tracer.install()
        try:
            dt, per_stage = fixed_pass(tracer if traced_pass else None)
        finally:
            tracer.uninstall()
        kernels.append(calibrate.kernel_seconds())
        passes[traced_pass].append((dt, dt * calibrate.factor(kernels, len(kernels) - 2)))
        if traced_pass and len(passes[True]) == 1:
            stages_1, counts_1 = per_stage, tracer.snapshot()[1]
    counts_2 = tracer.counts - counts_1
    if counts_1 != counts_2:
        s.mismatch(f"counts differ between two identical passes: {dict(counts_1)} != {dict(counts_2)}")
        s.fail("trace")
    untraced_s, traced_s = (statistics.mean(ref for _, ref in passes[p]) for p in (False, True))
    metrics = per_layer(tracer, counts_1, stages_1, sum(dt for dt, _ in passes[True]))
    metrics["cli.import_s"] = (_import_seconds(root, env), "s")
    metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
    metrics["trace.overhead_pct"] = (100.0 * (traced_s - untraced_s) / untraced_s, "%")
    report = {"untraced_pass_s": [dt for dt, _ in passes[False]],
              "traced_pass_s": [dt for dt, _ in passes[True]],
              "counts": dict(counts_1),
              "span_calls": {k: v[0] for k, v in sorted(tracer.stats.items())}}
    return s, metrics, report


def per_layer(tracer: Tracer, counts, stages: dict, traced_wall_s: float) -> dict:
    stats = tracer.stats

    def us(name: str) -> float:
        n, incl, _ = stats.get(name, (0, 0.0, 0.0))
        if not n:
            raise RuntimeError(f"no calls recorded for {name}")
        return 1e6 * incl / n

    sweep_stats, sweep_counts, _ = stages["sweep"]
    query_stats, _, n_queries = stages["query"]
    zero = (0, 0.0, 0.0)
    cli_sweep_self = (sweep_stats.get("cli.main", zero)[1] - sweep_stats.get("spectrum.sweep", zero)[1]
                      - sweep_stats.get("config.load_config", zero)[1])
    query_cli_self = sum(v[2] for k, v in query_stats.items() if k.startswith("cli."))
    evals = tracer.counts["find.scan_evals"] + tracer.counts["find.refine_evals"]
    hits, misses = counts["build_V.hits"], counts["build_V.misses"]
    metrics = {
        "junction.s_matrix_us": (us("junction.s_matrix"), "us"),
        "junction.validate_us": (us("junction.validate"), "us"),
        "junction.build_V_us": (1e6 * tracer.seconds["build_V.miss"] / tracer.counts["build_V.misses"], "us"),
        "junction.build_V.hit_ratio": (hits / max(1, hits + misses), "ratio"),
        "junction.build_V.hits": (hits, "count"),
        "junction.build_V.misses": (misses, "count"),
        "ring.ring_matrices_us": (us("ring.ring_matrices"), "us"),
        "ring.solve_auto_us.general": (us("ring.solve_auto.general"), "us"),
        "ring.solve_auto_us.symmetric": (us("ring.solve_auto.symmetric"), "us"),
        "ring.solve_auto_us.antisymmetric": (us("ring.solve_auto.antisymmetric"), "us"),
        "ring.fast_path_us.symmetric": (us("ring.solve_symmetric_scale_invariant"), "us"),
        "ring.fast_path_us.antisymmetric": (us("ring.solve_antisymmetric_scale_invariant"), "us"),
        "ring.solve_series_us": (us("ring.solve_series"), "us"),
        "ring.series_terms": (counts["series.terms"], "count"),
        "ring.solve_algebraic_us": (us("ring.solve_algebraic"), "us"),
        "spectrum.sweep_us_per_point": (1e6 * stats["spectrum.sweep"][1] / tracer.counts["sweep.points"], "us"),
        "spectrum.sweep.degenerate_rows": (counts["sweep.degenerate_rows"], "count"),
        "spectrum.find.scan_evals": (counts["find.scan_evals"], "count"),
        "spectrum.find.refine_evals": (counts["find.refine_evals"], "count"),
        "spectrum.find.eval_us": (1e6 * tracer.seconds["find.eval"] / evals, "us"),
        "spectrum.find.refine_yield": (counts["find.kept"] / max(1, counts["find.brackets"]), "ratio"),
        "cli.self_us_per_row": (1e6 * cli_sweep_self / sweep_counts["sweep.points"], "us"),
        "cli.query_self_ms": (1e3 * query_cli_self / max(1, n_queries), "ms"),
        "config.load_config_us": (us("config.load_config"), "us"),
        "smallmat.unitarity_error_us": (us("smallmat.unitarity_error"), "us"),
    }
    for layer in LAYERS:
        busy = sum(v[2] for k, v in stats.items() if k.startswith(layer + "."))
        metrics[f"{layer}.busy_share"] = (busy / traced_wall_s, "ratio")
    return metrics


def input_shares(h: Harness) -> dict:
    """Share of the run's rings that are scale-invariant, and that are decoupled.

    Decoupled: the left node's exterior wire reflects with |s11| >= 0.999 at
    the middle of the stage's k range (any k for a scale-invariant node).
    """
    rings = [(c.config, 0.5 * (c.k_min + c.k_max)) for c in h.inputs.sweeps + h.inputs.finds]
    rings += [(q.config, q.k) for q in h.inputs.queries]
    si = sum(h.y.junction.is_scale_invariant(h.configs[rel].ring.left) for rel, _ in rings)
    decoupled = sum(h.oracles[rel].exterior_reflection(k) >= 0.999 for rel, k in rings)
    return {"rings": len(rings), "scale_invariant_share": si / len(rings),
            "decoupled_share": decoupled / len(rings)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    y = _import_yring(root)
    if y is None:
        print(f"error: no yring sources under {root / 'src'}", file=sys.stderr)
        return 2
    build_v = y.junction.build_V  # the cache object itself, kept before any wrapping
    env = subprocess_env(root)
    spec = workloads.WORKLOADS[args.workload]
    rundir = Path(".bench_work") / f"run-{os.getpid()}"
    try:
        # Writing the inputs is the benchmark's work, not the program's: untimed.
        inputs = workloads.generate(args.seed, spec, rundir, root)

        def set_up() -> tuple[float, Harness]:
            build_v.cache_clear()  # every repeat starts as cold as the first
            t0 = time.perf_counter()
            fresh = Harness(root, rundir, inputs, y, args.seed)
            fresh.load()
            return time.perf_counter() - t0, fresh

        s = Samples()
        calibrate.kernel_seconds()  # first use of the kernel's numpy routines, not kept
        s.calibration.append(calibrate.kernel_seconds())
        first_setup_s, h = set_up()
        s.setup.append((first_setup_s, 0))
        h.prepare_checks()
        # Compile bytecode for the child interpreters before any cold start is timed.
        subprocess.run([sys.executable, "-c", "import yring.cli"], cwd=root, env=env, check=True,
                       timeout=SUBPROCESS_TIMEOUT_S)
        warm_up(h)
        if args.trace:
            s, metrics, extra = traced(h, root, env, build_v)
        else:
            measure(s, h, spec, args.seconds, env, lambda: set_up()[0])
            metrics, raw = end_to_end(s)
            extra = {"unscaled": {name: value for name, (value, _) in raw.items()},
                     "reference_kernel_s": {
                         "p10": float(np.percentile(s.calibration, 10)),
                         "median": _median(s.calibration), "runs": len(s.calibration)},
                     "samples": {"sweep_calls": len(s.sweep_calls),
                                 "find_searches": len(s.find_searches),
                                 "recall_expected": s.recall_expected,
                                 "queries": len(s.query_calls),
                                 "cold_starts": len(s.cold_starts)},
                     "tails_s": {name: _tail([dt for _, _, dt, *_ in calls]) for name, calls in (
                         ("sweep", s.sweep_calls), ("find", s.find_searches),
                         ("query", s.query_calls), ("cold_start", s.cold_starts))},
                     "attempted_by_stage": dict(s.stage_attempted),
                     "failed_by_stage": dict(s.stage_failed),
                     "setup_s": [dt for dt, _ in s.setup], "degenerate_rows": s.degenerate_rows}
        extra["input_shares"] = input_shares(h)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
        with contextlib.suppress(OSError):
            rundir.parent.rmdir()  # only when no other run is using it

    mismatches = h.samples.mismatches + s.mismatches
    correct = not mismatches
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment(), **extra,
              "errors": s.errors, "mismatches": mismatches}
    for name, (value, unit) in metrics.items():
        print(f"{name:36s} {value:16.6g} {unit}")
    print(json.dumps({"report": report}))
    result = {
        "correct": correct,
        "attempted": s.attempted,
        "failed": s.failed + len(h.samples.mismatches),
        "metrics": {name: {"value": float(value), "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    if any(not math.isfinite(v["value"]) for v in result["metrics"].values()):
        result["correct"] = False
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
