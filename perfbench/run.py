"""End-to-end and per-layer benchmark of the randterm CLI.

    python3 perfbench/run.py --workload grid --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 50 --trace 1

Run from the repository root.  One process per workload acts as a single
closed-loop client: it calls randterm.cli.main(argv) for each of the
workload's commands back to back (one pass), and repeats passes until the next
one would end after --seconds.  Set-up (importing the package in a fresh
interpreter, a warm-up pass on small inputs, generating the inputs from the
seed) is timed separately, SETUP_REPEATS times; setup_s is the median.

Times are reported in reference seconds.  The speed of a shared host drifts
(on a 2-vCPU Xeon guest, by 1.4-1.7x over seconds to minutes), so a fixed
calibration kernel runs before and after every command and every set-up, and
the times of a pass (or of the set-ups) are scaled by CALIBRATION_REF_S /
(mean kernel time in that pass): the time they would take on a machine that
runs the kernel in CALIBRATION_REF_S.  The kernel does not use randterm, so
a change to the package moves the scaled times as it moves the raw ones.
Raw times are reported too (wall_raw_s, setup_raw_s and calibration_s with
--trace 1, and every sample in the full record).

--trace 0 reports the end-to-end metrics of BENCHMARK.json as medians over
passes.  --trace 1 alternates untraced and traced passes; traced passes wrap
the public entry points of every randterm module (tracer.py) and report the
per-layer metrics of BENCHMARK.json.

After every command the outputs are checked (checks are not timed): exit
code, per-command value checks (workloads.py), sha256 of every CSV against the
first pass, and work counters against the first pass.  A command that fails
any of these counts in `failed`.  The last stdout line is one JSON object;
the full record (hashes, per-pass samples, spans, machine) is written to
.perfbench_out/.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import heapq
import io as _io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 3
# import cost of the package in a fresh interpreter, one sample per set-up
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, %r); "
                "t = time.perf_counter(); import randterm.cli; "
                "print(time.perf_counter() - t)")

# Time of calibrate() that one reference second corresponds to; about the
# kernel's median time on a 2-vCPU Intel Xeon guest.
CALIBRATION_REF_S = 0.3

sys.path.insert(0, str(HERE))
from tracer import Tracer, summarize  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS, GraphOracle, check_graph, check_grid, check_idle)


def median(values):
    return statistics.median(values) if values else 0.0


def spread(values):
    """Interquartile range as a share of the median (0 for < 2 samples)."""
    if len(values) < 2 or not median(values):
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median(values)


def machine():
    cpu = platform.processor()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    import numpy
    import scipy

    return {"nproc": os.cpu_count(), "cpu": cpu or "unknown",
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def calibrate(_data=[]):
    """Run a fixed piece of CPU work in the mix the package does (heap
    operations, dict updates, float arithmetic, float formatting, a numpy
    sort) and return its duration in seconds.  On the host above its time
    follows the host's speed: against a 1 s run-grid command timed between
    two kernels the correlation was 0.85.  Single kernel times spread
    widely (0.22-0.51 s within one run), so a block of work is scaled by
    the mean of all kernel times in it.  Over ten runs per workload this
    cut the spread (IQR / median) of wall_s from 0.11 to 0.05 on grid and
    from 0.16 to 0.08 on graph."""
    import numpy as np

    if not _data:
        _data.append(np.random.default_rng(0).random(100_000))
    data = _data[0]
    t0 = time.perf_counter()
    heap, table, total = [], {}, 0.0
    for i in range(100_000):
        heapq.heappush(heap, ((i * 7919) % 10007, i))
        table[i % 1021] = table.get(i % 1021, 0.0) + math.sqrt(i)
    while heap:
        total += heapq.heappop(heap)[0] * 0.5
    "".join("%r,%r\n" % (v, v * 0.5) for v in data[:50_000].tolist())
    np.sort(data)
    return time.perf_counter() - t0


def scale(cals):
    """Factor from raw seconds to reference seconds for a block of work
    interleaved with the calibrate() runs that took `cals` seconds."""
    return CALIBRATION_REF_S / statistics.fmean(cals)


# --- layer hooks -------------------------------------------------------------


def _n(key, fn):
    return lambda result: {key: int(fn(result))}


def install_layers(tracer):
    """Wrap the public entry points of every randterm module.  Per-point
    kernels (quadrant_update, node_update, exact_value, edge_wait_cost, ...)
    are left alone: a span per gridpoint or edge would swamp the timing."""
    import numpy as np
    from randterm import analytic, eikonal, graph, grid, idle, io, trajectory

    counters = {
        "eikonal.eikonal_solve": _n("points", lambda u: np.isfinite(u).sum()),
        "grid.fmm_solve": _n("points_accepted", lambda s: (s.order >= 0).sum()),
        "trajectory.trace": _n("points", lambda t: len(t.points)),
        "graph.value_iteration": _n("iterations", lambda s: s.iterations),
        "graph.dijkstra_solve": _n("nodes_accepted",
                                   lambda s: len(s.acceptance_order)),
        "graph.dial_solve": _n("nodes_accepted",
                               lambda s: len(s.acceptance_order)),
    }
    layers = {
        io: ("load_graph", "load_idle", "is_idle_scenario",
             "load_grid_scenario", "read_field_csv", "write_graph_solution",
             "write_field_csv", "write_mask_csv", "write_points_csv",
             "write_trajectory_csv", "write_convergence_csv"),
        eikonal: ("eikonal_solve", "response_cost"),
        grid: ("fmm_solve", "sweep_oracle", "motionless_set",
               "discretization_residual", "local_minima_mask"),
        trajectory: ("trace", "gradient_field"),
        analytic: ("exact_field", "error_norms", "free_boundary_radius"),
        graph: ("validate", "dijkstra_solve", "dial_solve", "value_iteration",
                "solve_v0", "solve_v1"),
        idle: ("expected_response_times", "build_problem", "all_pairs_times"),
    }
    for module, attrs in layers.items():
        prefix = module.__name__.rsplit(".", 1)[-1]
        for attr in attrs:
            name = "%s.%s" % (prefix, attr)
            tracer.wrap(module, attr, name, counters.get(name))
    # names bound at import time are looked up in the importing module
    tracer.wrap(io, "response_cost", "eikonal.response_cost")
    tracer.wrap(trajectory, "motionless_set", "grid.motionless_set")


@contextlib.contextmanager
def capture_fmm(sink):
    """Keep (problem, solution) of every grid.fmm_solve call for the
    residual check; one wrapper call per solve, in every pass."""
    from randterm import grid

    orig = grid.fmm_solve

    def fmm_solve(problem):
        sol = orig(problem)
        sink.append((problem, sol))
        return sol

    grid.fmm_solve = fmm_solve
    try:
        yield
    finally:
        grid.fmm_solve = orig


# --- one command ---------------------------------------------------------------


def csv_digests(out_dir):
    """file name -> (sha256, bytes) for every CSV the command wrote."""
    out = {}
    for name in sorted(os.listdir(out_dir)):
        if name.endswith(".csv"):
            with open(os.path.join(out_dir, name), "rb") as fh:
                data = fh.read()
            out[name] = (hashlib.sha256(data).hexdigest(), len(data))
    return out


def run_command(cmd, traced):
    """Run one CLI command; returns its record (timing and raw outputs)."""
    from randterm import cli

    fields = []
    shutil.rmtree(cmd.out, ignore_errors=True)  # no stale outputs
    gc.collect()
    with capture_fmm(fields), contextlib.redirect_stdout(_io.StringIO()), \
            Tracer() as tracer:
        if traced:
            install_layers(tracer)
        c0 = time.process_time()
        with tracer.span("cli") as root:
            rc = cli.main(cmd.argv)
        cpu = time.process_time() - c0
    return {"metric": cmd.metric, "argv": cmd.argv, "rc": rc,
            "seconds": root.end - root.start, "cpu": cpu, "fields": fields,
            "spans": tracer.spans if traced else []}


class Checker:
    """Untimed output checks; keeps the first pass's digests and counters."""

    def __init__(self):
        self.oracle = GraphOracle()
        self.first = {}  # (command index, traced) -> counts
        self.digests = {}  # command index -> csv digests

    def check(self, k, cmd, rec, solved):
        errors = []
        counts = {}
        facts = {}
        digests = {}
        if rec["rc"] != 0:
            errors.append("exit code %d" % rec["rc"])
        else:
            digests = csv_digests(cmd.out)
            counts["csv_bytes"] = sum(n for _, n in digests.values())
            summary_path = os.path.join(cmd.out, "summary.json")
            if os.path.exists(summary_path):  # run-convergence writes none
                with open(summary_path) as fh:
                    summary = json.load(fh)
                for key in ("heap_operations", "iterations"):
                    if key in summary:
                        counts[key] = summary[key]
            if rec["fields"]:
                counts["points_accepted"] = sum(
                    int((s.order >= 0).sum()) for _, s in rec["fields"])
            if cmd.kind in ("grid", "convergence"):
                errs, facts = check_grid(cmd, rec["fields"])
            elif cmd.kind == "graph":
                errs, facts = check_graph(cmd, self.oracle, solved)
            else:
                errs, facts = check_idle(cmd)
            errors += errs
            if self.digests.setdefault(k, digests) != digests:
                errors.append("CSV bytes differ from the first pass")
        if rec["spans"]:
            for name, agg in summarize(rec["spans"]).items():
                for key, val in agg.items():
                    if key not in ("s", "self_s"):
                        counts["%s.%s" % (name, key)] = val
        first = self.first.setdefault((k, bool(rec["spans"])), counts)
        if first != counts:
            diff = sorted(key for key in set(first) | set(counts)
                          if first.get(key) != counts.get(key))
            errors.append("counts not steady across passes: %s" % diff)
        rec.update(errors=errors, counts=counts, facts=facts,
                   digests={n: h for n, (h, _) in digests.items()})
        rec["fields"] = None  # drop solved fields before the next command
        return rec


# --- the run -----------------------------------------------------------------


def set_up(args, wl, in_dir, out_dir):
    """SETUP_REPEATS times: import the package in a fresh interpreter, run
    the warm-up pass on small inputs and generate the inputs.  Returns
    (commands, set-up durations in reference seconds, raw durations,
    calibration times, warm-up failures)."""
    probe = [sys.executable, "-c", IMPORT_PROBE % str(ROOT / "src")]
    times, raw, cals, failures = [], [], [calibrate()], 0
    for _ in range(SETUP_REPEATS):
        import_s = float(subprocess.run(probe, capture_output=True, text=True,
                                        check=True, timeout=120).stdout)
        t0 = time.perf_counter()
        for cmd in wl.make(args.seed, in_dir, out_dir, small=True):
            failures += run_command(cmd, traced=False)["rc"] != 0
        cmds = wl.make(args.seed, in_dir, out_dir, small=False)
        raw.append(import_s + time.perf_counter() - t0)
        cals.append(calibrate())
    times = [t * scale(cals) for t in raw]
    return cmds, times, raw, cals, failures


def run_passes(args, cmds, checker):
    """Passes back to back (alternating untraced and traced with --trace 1)
    until the next one would end after --seconds of measured time.  A
    calibration kernel runs before the first command and after each one."""
    passes = []
    peak_rss_mb = window = 0.0
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        t0 = time.perf_counter()
        cals, recs = [calibrate()], []
        for cmd in cmds:
            recs.append(run_command(cmd, traced))
            cals.append(calibrate())
        elapsed = time.perf_counter() - t0
        window += elapsed
        for r in recs:
            r["scale"] = scale(cals)
            r["ref_seconds"] = r["seconds"] * r["scale"]
        wall = sum(r["ref_seconds"] for r in recs)
        if not passes:
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            peak_rss_mb = peak_kb / 1024
        solved = {}
        recs = [checker.check(k, c, r, solved)
                for k, (c, r) in enumerate(zip(cmds, recs))]
        by_metric, layers = {}, {}
        for r in recs:
            m = r["metric"]
            by_metric[m] = by_metric.get(m, 0.0) + r["ref_seconds"]
            for name, agg in summarize(r["spans"]).items():
                tot = layers.setdefault(name, {})
                for key, val in agg.items():
                    if key in ("s", "self_s"):
                        val *= r["scale"]
                    tot[key] = tot.get(key, 0) + val
        passes.append({
            "traced": traced, "wall": wall, "cals": cals,
            "wall_raw": sum(r["seconds"] for r in recs),
            "by_metric": by_metric,
            "layers": layers, "commands": recs,
            "csv_bytes": sum(r["counts"].get("csv_bytes", 0) for r in recs),
            "heap_operations": sum(r["counts"].get("heap_operations", 0)
                                   for r in recs),
        })
        if len(passes) >= 1 + args.trace and window + elapsed > args.seconds:
            return passes, peak_rss_mb, window


def layer_metrics(traced, untraced, names):
    """Per-layer values: medians over traced passes of per-pass totals, the
    untraced per-command times, and the tracing overhead."""
    def per_pass(fn):
        return median([fn(p) for p in traced])

    def layer(p, name, key):
        return p["layers"].get(name, {}).get(key, 0)

    def ratio(num, den):
        return lambda p: num(p) / den(p) if den(p) else 0.0

    writes = ("io.write_field_csv", "io.write_mask_csv", "io.write_points_csv",
              "io.write_trajectory_csv", "io.write_graph_solution",
              "io.write_convergence_csv")
    out = {
        "grid.fmm_solve.points_per_s": per_pass(ratio(
            lambda p: layer(p, "grid.fmm_solve", "points_accepted"),
            lambda p: layer(p, "grid.fmm_solve", "self_s"))),
        "eikonal.points_per_s": per_pass(ratio(
            lambda p: layer(p, "eikonal.eikonal_solve", "points"),
            lambda p: layer(p, "eikonal.eikonal_solve", "s"))),
        "io.csv_bytes": per_pass(lambda p: p["csv_bytes"]),
        "io.write_MBps": per_pass(ratio(
            lambda p: p["csv_bytes"] / 1e6,
            lambda p: sum(layer(p, w, "s") for w in writes))),
        "graph.nodes_accepted": per_pass(lambda p: sum(
            layer(p, s, "nodes_accepted")
            for s in ("graph.dijkstra_solve", "graph.dial_solve"))),
        "graph.heap_operations": per_pass(lambda p: p["heap_operations"]),
        "trace_overhead_s": (median([p["wall"] for p in traced])
                             - median([p["wall"] for p in untraced])),
    }
    for name in names:
        base, _, key = name.rpartition(".")
        if name in out:
            continue
        if name.startswith("run_"):
            out[name] = median([p["by_metric"].get(name, 0.0)
                                for p in untraced])
        elif base:
            out[name] = per_pass(lambda p: layer(p, base, key))
    return out


def run_workload(args, spec):
    import randterm.cli

    src = Path(randterm.cli.__file__).resolve()
    if ROOT / "src" not in src.parents:
        print("error: imported randterm from %s, not %s/src" % (src, ROOT),
              file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    work = ROOT / ".perfbench_out" / ("%s-%d-%d" % (wl.name, args.seed,
                                                     os.getpid()))
    in_dir, out_dir = work / "in", work / "out"
    in_dir.mkdir(parents=True)
    out_dir.mkdir()
    try:
        return measure(args, spec, wl, str(in_dir), str(out_dir))
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, spec, wl, in_dir, out_dir):
    checker = Checker()
    cmds, setup, setup_raw, setup_cals, failed = set_up(args, wl, in_dir,
                                                         out_dir)
    attempted = SETUP_REPEATS * len(cmds)
    passes, peak_rss_mb, window = run_passes(args, cmds, checker)
    recs = [r for p in passes for r in p["commands"]]
    attempted += len(recs)
    failed += sum(bool(r["errors"]) for r in recs)
    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]

    samples = {"wall_s": [p["wall"] for p in untraced], "setup_s": setup}
    for m in wl.metrics:
        samples[m] = [p["by_metric"][m] for p in untraced]
    samples.update(wall_raw_s=[p["wall_raw"] for p in untraced],
                   setup_raw_s=setup_raw,
                   calibration_s=setup_cals + [c for p in passes
                                               for c in p["cals"]])
    e2e = {k: median(v) for k, v in samples.items()}
    e2e["peak_rss_mb"] = peak_rss_mb
    e2e["failed_ops"] = failed / attempted
    linf = [r["facts"]["linf_err"] for r in recs if "linf_err" in r["facts"]]
    if linf:
        e2e["linf_err"] = max(linf)

    if args.trace:
        chosen = spec["per_layer"]
        values = layer_metrics(traced, untraced, [m["name"] for m in chosen])
        values.update(failed_ops=e2e["failed_ops"],
                      linf_err=e2e.get("linf_err", 0.0),
                      wall_raw_s=e2e["wall_raw_s"],
                      setup_raw_s=e2e["setup_raw_s"],
                      calibration_s=e2e["calibration_s"])
        values["grid.residual_max"] = max(
            (r["facts"]["residual_max"] for r in recs
             if "residual_max" in r["facts"]), default=0.0)
    else:
        chosen = spec["end_to_end"]
        values = e2e
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in chosen}
    correct = failed == 0

    info = machine()
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    print("# perfbench %s seed=%d trace=%d: %d passes (%d traced) in %.1f s"
          % (wl.name, args.seed, args.trace, len(passes), len(traced), window))
    print("# machine: nproc=%(nproc)s cpu=%(cpu)s python=%(python)s "
          "numpy=%(numpy)s scipy=%(scipy)s" % info)
    print("%-34s %14s %6s %3s %8s" % ("end-to-end metric", "median", "unit",
                                      "n", "iqr/med"))
    for name, val in e2e.items():
        n = len(samples.get(name, [])) or 1
        print("%-34s %14.6g %6s %3d %8.3f" % (name, val, units.get(name, "s"),
                                              n, spread(samples.get(name, []))))
    if args.trace:
        print("%-34s %14s %6s %3s" % ("per-layer metric (traced)", "median",
                                      "unit", "n"))
        for name, val in values.items():
            if name in units and name not in e2e:
                print("%-34s %14.6g %6s %3d" % (name, val, units[name],
                                                len(traced)))
    for k, r in enumerate(recs):
        for err in r["errors"]:
            print("FAILED %s %s (pass %d): %s"
                  % (r["argv"][0], os.path.basename(r["argv"][1]),
                     k // len(cmds), err), file=sys.stderr)

    results = ROOT / ".perfbench_out" / ("%s-seed%d-trace%d.json"
                                         % (wl.name, args.seed, args.trace))
    with open(results, "w") as fh:
        json.dump({
            "workload": wl.name, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "machine": info,
            "samples": samples,
            "spread": {k: spread(v) for k, v in samples.items()},
            "end_to_end": e2e, "metrics": metrics, "correct": correct,
            "passes": [{"traced": p["traced"], "wall": p["wall"],
                        "wall_raw": p["wall_raw"], "calibration": p["cals"],
                        "commands": [{
                            "argv": r["argv"], "rc": r["rc"],
                            "seconds": r["seconds"],
                            "ref_seconds": r["ref_seconds"], "cpu_s": r["cpu"],
                            "errors": r["errors"], "counts": r["counts"],
                            "facts": r["facts"], "sha256": r["digests"],
                            "spans": [[s.name, s.parent, s.start, s.end,
                                       s.counts] for s in r["spans"]],
                        } for r in p["commands"]]} for p in passes],
        }, fh, indent=1)
    print("# full record: %s" % results.relative_to(ROOT))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def run_all(args):
    """Every workload in its own process, one after another."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            return proc.returncode or 1
        res = json.loads(lines[-1])
        correct &= res["correct"]
        attempted += res["attempted"]
        failed += res["failed"]
        metrics.update({"%s/%s" % (name, k): v
                        for k, v in res["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "randterm" / "__init__.py").is_file():
        print("error: %s/src/randterm not found; run from a checkout of the "
              "repository" % ROOT, file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    sys.path.insert(0, str(ROOT / "src"))
    return run_workload(args, spec)


if __name__ == "__main__":
    sys.exit(main())
