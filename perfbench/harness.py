"""Passes, correctness gates and metrics of one benchmark run.

Importing this module imports ``nscausal`` and numpy (through
``workloads``), so ``run.py`` times the import as part of set-up.
"""

import hashlib
import json
import math
import os
import platform
import resource
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import nscausal as ns
import workloads as wl
from tracing import NullTracer, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
PROBE_REPS = 50

END_TO_END = {"setup_s": "s", "wall_s": "s", "ops_per_s": "1/s",
              "op_p50_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "optimizer.fit_baseline_s": "s", "optimizer.fit_s": "s",
    "optimizer.dual_steps.baseline": "count",
    "optimizer.dual_steps.selective": "count",
    "optimizer.inner_iterations.baseline": "count",
    "optimizer.inner_iterations.selective": "count",
    "optimizer.capped_solve_share": "ratio",
    "optimizer.inner_solves": "count",
    "optimizer.converged_share": "ratio", "optimizer.fits": "count",
    "optimizer.us_per_inner_iter.baseline": "us",
    "optimizer.us_per_inner_iter.selective": "us",
    "optimizer.h1_grad_us": "us", "optimizer.h2_us": "us",
    "optimizer.ls_us": "us",
    "effects.delta_star_s": "s", "effects.total_effects_us": "us",
    "bench.truth_s": "s", "scm.sample_s": "s", "graph.score_s": "s",
    "graph.shd_mean": "count", "graph.tpr_mean": "ratio",
    "graph.fdr_mean": "ratio",
    "mec.dag_to_cpdag_s": "s", "mec.enumerate_s": "s",
    "mec.undirected_edges": "count", "mec.members": "count",
    "trace.overhead_s": "s", "trace.spans": "count", "trace.span_us": "us",
}
# ROADMAP re-anchor table, per fit: (dual steps, inner iterations)
ROADMAP_COUNTS = (
    ("s1", 100, ("nscsl-te",), 300,
     {"baseline": (17, 10_301), "nscsl-te": (4, 5_700)}),
    ("s4", 1000, ("baseline",), 300, {"baseline": (17, 25_500)}),
)


# Times are reported at a reference speed: raw seconds * REF_SECONDS / the
# duration of reference_seconds()'s fixed work measured next to them.  On a
# shared host the speed of identical work drifts by up to 1.7x over minutes,
# which no run length averages out; the ratio to work measured alongside
# does.  REF_SECONDS is that work's duration on the 2-core x86 box the
# workloads were calibrated on.
REF_LOOPS = 5000
REF_SECONDS = 0.05
_REF_MATRIX = np.arange(25.0).reshape(5, 5) / 50.0


def reference_seconds() -> float:
    """Duration of a fixed piece of work that does not touch nscausal: the
    mix the ops spend their time in, small numpy calls and Python loops."""
    start = time.perf_counter()
    for _ in range(REF_LOOPS):
        np.linalg.matrix_power(_REF_MATRIX, 4)
        sorted({j: -j for j in range(20)}.items())
    return time.perf_counter() - start


def speed_factor(before: float, after: float) -> float:
    """Reference-speed seconds per raw second, from the reference work
    measured just before and just after the timed work."""
    return REF_SECONDS / (0.5 * (before + after))


def settled_speed_factor() -> float:
    """Speed factor for work just finished: the median of three reference
    measurements taken right after it."""
    return REF_SECONDS / median(reference_seconds() for _ in range(3))


def median(values) -> float:
    """Median, or 0.0 for a layer that did no work in this workload."""
    values = sorted(values)
    if not values:
        return 0.0
    mid = len(values) // 2
    if len(values) % 2:
        return values[mid]
    return 0.5 * (values[mid - 1] + values[mid])


def tail(values):
    """(percentile, value): the highest percentile with at least 10 ops
    beyond it, by nearest rank; None below 20 ops."""
    n = len(values)
    if n < 20:
        return None
    pct = math.floor(100 * (n - 10) / n)
    return pct, sorted(values)[max(1, math.ceil(pct / 100 * n)) - 1]


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "machine": platform.machine(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas_name,
            "blas_threads": _blas_threads()}


def _blas_threads():
    """Threads of the loaded OpenBLAS, asked through its own API."""
    import ctypes

    try:
        with open("/proc/self/maps") as maps:
            libs = {line.split()[-1] for line in maps if "openblas" in line}
    except OSError:
        libs = set()
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(handle, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return getter()
    return ("unknown, OPENBLAS_NUM_THREADS="
            f"{os.environ.get('OPENBLAS_NUM_THREADS')}")


@dataclass
class Pass:
    """One execution of every op, with its raw time and speed factor."""

    ops: list = field(default_factory=list)
    raw: list = field(default_factory=list)  # seconds per op, spans included
    factors: list = field(default_factory=list)

    def wall(self) -> float:
        return sum(r * f for r, f in zip(self.raw, self.factors))

    def latencies(self) -> list:
        return [op.seconds * f for op, f in zip(self.ops, self.factors)]


def run_pass(prepared, tracers) -> list:
    """Each op once per tracer, interleaved op by op so that every tracer
    sees the same machine conditions, with the reference work measured
    between any two ops; one ``Pass`` per tracer."""
    passes = [Pass() for _ in tracers]
    before = reference_seconds()
    for index, item in enumerate(prepared.ops):
        for done, tracer in zip(passes, tracers):
            tracer.op = index
            start = time.perf_counter()
            with tracer.span("op"):
                if prepared.workload.kind == "fit":
                    op = wl.fit_op(prepared.spec, prepared.config,
                                   prepared.workload.n, item, tracer)
                else:
                    op = wl.mec_op(item, tracer)
            done.raw.append(time.perf_counter() - start)
            after = reference_seconds()
            done.ops.append(op)
            done.factors.append(speed_factor(before, after))
            before = after
    return passes


def _source_digest(env) -> str:
    digest = hashlib.sha256(f"{env['python']} {env['numpy']}".encode())
    paths = sorted((ROOT / "src").rglob("*.py")) + sorted(HERE.glob("*.py"))
    for path in paths:
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def counters_repeat(prepared, counters, env) -> tuple:
    """Deterministic counters must match every earlier run of the same code,
    seed and op count; the first such run records them."""
    name = (f"{prepared.workload.name}-seed{prepared.seed}-"
            f"ops{len(prepared.ops)}-{_source_digest(env)}.json")
    path = OUT / "counters" / name
    shown = path.relative_to(ROOT)
    current = json.loads(json.dumps(counters))
    if path.is_file():
        same = json.loads(path.read_text()) == current
        return same, f"compared with {shown}"
    path.parent.mkdir(parents=True, exist_ok=True)
    partial = path.with_suffix(f".{os.getpid()}.tmp")
    partial.write_text(json.dumps(current))
    os.replace(partial, path)
    return True, f"first run of this code and seed; recorded {shown}"


def gates(prepared, ops) -> dict:
    """Correctness gates on one pass: name -> (ok, detail)."""
    if prepared.workload.kind == "mec":
        errors = [e for op in ops for e in wl.mec_errors(op)]
        return {"mec: p members per p-node tree, all map back":
                (not errors, "; ".join(errors[:3]) or f"{len(ops)} classes")}
    errors = [f"seed {seed}, {role}: {e}"
              for seed, op in zip(prepared.ops, ops)
              for role, result in op.fits
              for e in wl.fit_invariant_errors(result, prepared.spec.p)]
    fits = sum(len(op.fits) for op in ops)
    out = {"fit invariants (outcome row, acyclic, |selected|=p-1)":
           (not errors, "; ".join(errors[:3]) or f"{fits} fits")}
    seed = prepared.ops[0]
    expected = wl.run_scenario_keys(prepared, seed)
    got = tuple(wl.row_key(r) for r in ops[0].rows)
    detail = f"seed {seed}: {len(got)} rows"
    if got != expected:
        detail += f"; composed {got}, run_scenario {expected}"
    out["rows equal bench.run_scenario"] = (got == expected, detail)
    return out


def _quality(ops) -> dict:
    """Recovery of the selective methods against nscg(truth), convergence."""
    rows = [r for op in ops for r in op.rows
            if r["method"] != "baseline" and not r["failed"]]
    fits = [result for op in ops for _, result in op.fits]
    out = {}
    if rows:
        for key in ("shd", "tpr", "fdr"):
            out[f"{key}_mean"] = sum(r[key] for r in rows) / len(rows)
        out["rows"] = len(rows)
    if fits:
        out["converged_share"] = sum(f.converged for f in fits) / len(fits)
        out["fits"] = len(fits)
    return out


def end_to_end(done: Pass, setup_samples) -> tuple:
    """(JSON metrics, report lines) of the untraced pass; ``setup_samples``
    holds (raw seconds, speed factor) pairs."""
    ops, lat, wall = done.ops, done.latencies(), done.wall()
    failed = sum(op.failed for op in ops)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {"setup_s": median(raw * f for raw, f in setup_samples),
               "wall_s": wall, "ops_per_s": len(ops) / wall,
               "op_p50_s": median(lat), "peak_rss_mb": rss_mb}
    lines = [f"speed factor    {median(done.factors):.4f}  (median over "
             f"{len(ops)} ops, range {min(done.factors):.4f}-"
             f"{max(done.factors):.4f}; times below are raw seconds times "
             "this factor)",
             f"setup_s         {metrics['setup_s']:.4f} s  (median of "
             f"{len(setup_samples)} fresh imports + input builds; raw "
             f"{median(raw for raw, _ in setup_samples):.4f} s)",
             f"wall_s          {wall:.4f} s  (raw {sum(done.raw):.4f} s)",
             f"ops_per_s       {metrics['ops_per_s']:.4f} 1/s",
             f"op_p50_s        {metrics['op_p50_s']:.4f} s  (n={len(lat)}; "
             f"raw {median(op.seconds for op in ops):.4f} s)"]
    op_tail = tail(lat)
    if op_tail:
        lines.append(f"op_tail_s       {op_tail[1]:.4f} s  "
                     f"(p{op_tail[0]}, n={len(lat)})")
    else:
        lines.append(f"op_tail_s       omitted (n={len(lat)} < 20 ops)")
    quality = _quality(ops)
    if "rows" in quality:
        for key, unit in (("shd_mean", "count"), ("tpr_mean", "ratio"),
                          ("fdr_mean", "ratio")):
            lines.append(f"{key:15s} {quality[key]:.6g} {unit}  (selective "
                         f"vs nscg(truth), n={quality['rows']} rows)")
    if "fits" in quality:
        lines.append(f"converged_share {quality['converged_share']:.6g} "
                     f"ratio  (base: {quality['fits']} fits)")
    lines.append(f"failed_share    {failed / len(ops):.6g} ratio  "
                 f"({failed} of {len(ops)} ops)")
    lines.append(f"peak_rss_mb     {rss_mb:.4f} MB")
    return metrics, lines


def per_layer(prepared, traced: Pass, tracer, overhead: float) -> dict:
    """Per-layer metrics of the traced pass, at reference speed; 0 for
    layers not exercised."""
    ops = traced.ops
    spans = [(name, op, seconds * traced.factors[op])
             for name, op, seconds in tracer.self_times()]
    selfs: dict = {}
    for name, op, seconds in spans:
        selfs.setdefault(name, []).append((op, seconds))

    def per_call(name):
        return median(s for _, s in selfs.get(name, []))

    def per_op(*names):
        totals: dict = {}
        for name in names:
            for op, s in selfs.get(name, []):
                totals[op] = totals.get(op, 0.0) + s
        return median(totals.values())

    metrics = dict.fromkeys(PER_LAYER, 0.0)
    metrics.update({
        "optimizer.fit_baseline_s": per_call("optimizer.fit_baseline"),
        "optimizer.fit_s": per_call("optimizer.fit"),
        "effects.delta_star_s": per_call("effects.delta_star"),
        "bench.truth_s": per_op("bench.scenario_truth", "bench.nscg"),
        "scm.sample_s": per_op("scm.sample"),
        "graph.score_s": per_op("graph.score"),
        "mec.dag_to_cpdag_s": per_call("mec.dag_to_cpdag"),
        "mec.enumerate_s": per_call("mec.enumerate_mec"),
        "trace.overhead_s": overhead,
        "trace.spans": len(tracer.spans),
        "trace.span_us": _span_cost_us(),
    })
    if prepared.workload.kind == "mec":
        good = [op for op in ops if not op.failed]
        if good:
            metrics["mec.undirected_edges"] = \
                sum(op.counters[1] for op in good) / len(good)
            metrics["mec.members"] = \
                sum(op.counters[2] for op in good) / len(good)
        return metrics

    # fit spans of one op, in call order, pair up with that op's fits
    fit_spans: dict = {}
    for name, op, seconds in spans:
        if name in ("optimizer.fit_baseline", "optimizer.fit"):
            fit_spans.setdefault(op, []).append(seconds)
    groups = {"baseline": [], "selective": []}  # (dual, inner, capped, self s)
    for index, op in enumerate(ops):
        for (role, result), seconds in zip(op.fits, fit_spans.get(index, [])):
            _, dual, inner, capped, _ = wl.fit_counters(role, result,
                                                        prepared.config)
            group = "baseline" if role == "baseline" else "selective"
            groups[group].append((dual, inner, capped, seconds))
    solves = capped = 0
    for group, entries in groups.items():
        if not entries:
            continue
        metrics[f"optimizer.dual_steps.{group}"] = \
            sum(e[0] for e in entries) / len(entries)
        metrics[f"optimizer.inner_iterations.{group}"] = \
            sum(e[1] for e in entries) / len(entries)
        metrics[f"optimizer.us_per_inner_iter.{group}"] = median(
            e[3] / e[1] * 1e6 for e in entries if e[1])
        solves += sum(e[0] for e in entries)
        capped += sum(e[2] for e in entries)
    metrics["optimizer.inner_solves"] = solves
    metrics["optimizer.capped_solve_share"] = \
        capped / solves if solves else 0.0
    quality = _quality(ops)
    metrics["optimizer.fits"] = quality.get("fits", 0)
    metrics["optimizer.converged_share"] = quality.get("converged_share", 0.0)
    for key in ("shd", "tpr", "fdr"):
        metrics[f"graph.{key}_mean"] = quality.get(f"{key}_mean", 0.0)
    probes: dict = {}
    for op in ops:
        if op.fits:
            before = reference_seconds()
            timed = wl.probe(op, prepared.workload.effect_kind, PROBE_REPS)
            factor = speed_factor(before, reference_seconds())
            for name, values in timed.items():
                probes.setdefault(name, []).extend(v * factor for v in values)
    metrics.update({name: median(values) for name, values in probes.items()})
    return metrics


def _span_cost_us(reps: int = 10_000) -> float:
    """Cost of one empty span: the tracing overhead without machine noise."""
    tracer = Tracer()
    before = reference_seconds()
    start = time.perf_counter()
    for _ in range(reps):
        with tracer.span("probe"):
            pass
    seconds = time.perf_counter() - start
    return seconds / reps * 1e6 * speed_factor(before, reference_seconds())


def run(prepared, trace: bool, setup_samples) -> int:
    """Measure, gate and report one run; the exit code is 1 if a gate trips."""
    env = environment()
    workload = prepared.workload
    print(f"workload {workload.name}: seed {prepared.seed}, "
          f"{len(prepared.ops)} ops")
    print("environment " + json.dumps(env))

    tracer = Tracer() if trace else None
    origin = time.perf_counter()
    passes = run_pass(prepared, [NullTracer()] + ([tracer] if tracer else []))
    ops = passes[0].ops
    counters = [list(op.counters) for op in ops]
    checks = gates(prepared, ops)
    checks["deterministic counters repeat across runs"] = \
        counters_repeat(prepared, counters, env)
    attempted = sum(len(p.ops) for p in passes)
    failed = sum(op.failed for p in passes for op in p.ops)

    if tracer:
        traced = passes[1]
        tracer.write(OUT / f"spans-{workload.name}-seed{prepared.seed}.jsonl",
                     origin, {"workload": workload.name, "seed": prepared.seed,
                              "ops": len(prepared.ops), "environment": env,
                              "speed_factors": traced.factors})
        same = [list(op.counters) for op in traced.ops] == counters
        checks["traced counts equal untraced counts"] = (
            same, f"{len(traced.ops)} ops")
        wall, traced_wall = passes[0].wall(), traced.wall()
        metrics = per_layer(prepared, traced, tracer, traced_wall - wall)
        units = PER_LAYER
        lines = [f"{name:38s} {metrics[name]:.6g} {unit}"
                 for name, unit in PER_LAYER.items()]
        lines.append(f"tracing overhead: traced wall_s {traced_wall:.4f} s - "
                     f"untraced wall_s {wall:.4f} s = "
                     f"{traced_wall - wall:.4f} s")
    else:
        metrics, lines = end_to_end(passes[0], setup_samples)
        units = END_TO_END

    for line in lines:
        print(line)
    correct = all(ok for ok, _ in checks.values())
    for name, (ok, detail) in checks.items():
        print(f"gate {'PASS' if ok else 'FAIL'}: {name} ({detail})")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed,
                      "metrics": {name: {"value": metrics[name], "unit": unit}
                                  for name, unit in units.items()}}))
    return 0 if correct else 1


def check_roadmap() -> int:
    """Re-measure the ROADMAP re-anchor counters through ``fit_op``."""
    ok = True
    for scenario_id, n, methods, seed, expected in ROADMAP_COUNTS:
        spec = ns.scenario(scenario_id, sample_sizes=(n,), methods=methods,
                           seed_base=seed, replications=1)
        op = wl.fit_op(spec, ns.FitConfig(), n, seed, NullTracer())
        for role, result in op.fits:
            got = (len(result.diagnostics),
                   sum(d["inner_iterations"] for d in result.diagnostics))
            match = got == expected[role]
            ok &= match
            print(f"{scenario_id} n={n} seed {seed} {role}: {got[0]} dual "
                  f"steps, {got[1]} inner iterations; ROADMAP "
                  f"{expected[role][0]}, {expected[role][1]}: "
                  f"{'match' if match else 'MISMATCH'}")
    return 0 if ok else 1
