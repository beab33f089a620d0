"""Self-test of the benchmark's tracer and hooks.

    python3 perfbench/selftest.py
    python3 -m pytest -q perfbench/selftest.py

Checks that self times add up to the enclosing span, that every wrapped
randterm name is restored afterwards, that traced and untraced runs of every
workload (on its small warm-up inputs) write byte-identical CSVs, and that
every per-layer metric in BENCHMARK.json names a traced span or a derived
value.
"""

from __future__ import annotations

import json
import shutil
import sys
import time
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
from tracer import Tracer, summarize  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

DERIVED = {"grid.fmm_solve.points_per_s", "eikonal.points_per_s",
           "io.csv_bytes", "io.write_MBps", "graph.nodes_accepted",
           "graph.heap_operations", "trace_overhead_s", "failed_ops",
           "linf_err", "grid.residual_max", "wall_raw_s", "setup_raw_s",
           "calibration_s"}


def _busy(seconds):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_self_times_add_up():
    mod = types.SimpleNamespace(
        leaf=lambda: _busy(0.004),
        mid=lambda: (_busy(0.002), mod.leaf(), mod.leaf()),
        top=lambda: (mod.mid(), _busy(0.002), mod.leaf()),
    )
    with Tracer() as tracer:
        for name in ("leaf", "mid", "top"):
            tracer.wrap(mod, name, name)
        with tracer.span("root"):
            mod.top()
    spans = tracer.spans
    assert [s.name for s in spans] == ["root", "top", "mid", "leaf", "leaf",
                                       "leaf"]
    agg = summarize(spans)
    assert {n: a["calls"] for n, a in agg.items()} == {
        "root": 1, "top": 1, "mid": 1, "leaf": 3}
    # a parent's self time plus its children's spans is the parent span
    top, mid = agg["top"], agg["mid"]
    leaf_under_top = spans[5].end - spans[5].start
    assert abs(top["self_s"] + mid["s"] + leaf_under_top - top["s"]) < 1e-9
    assert abs(mid["self_s"] + agg["leaf"]["s"] - leaf_under_top
               - mid["s"]) < 1e-9
    # and the self times of the whole tree add up to the root span
    total_self = sum(a["self_s"] for a in agg.values())
    assert abs(total_self - (spans[0].end - spans[0].start)) < 1e-9
    assert all(a["self_s"] > 0 for a in agg.values())


def _module_attrs():
    from randterm import analytic, cli, eikonal, graph, grid, idle, io, trajectory

    return {(m.__name__, k): v
            for m in (analytic, cli, eikonal, graph, grid, idle, io, trajectory)
            for k, v in vars(m).items() if callable(v)}


def test_wrapped_names_restored():
    before = _module_attrs()
    with Tracer() as tracer:
        run.install_layers(tracer)
        with run.capture_fmm([]):
            during = _module_attrs()
    after = _module_attrs()
    wrapped = [k for k in before if before[k] is not during[k]]
    assert ("randterm.grid", "fmm_solve") in wrapped
    assert ("randterm.io", "response_cost") in wrapped
    assert ("randterm.trajectory", "motionless_set") in wrapped
    assert all(before[k] is after[k] for k in before)
    assert before.keys() == after.keys()


def test_traced_and_untraced_csvs_identical():
    work = ROOT / ".perfbench_out" / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    try:
        for name, wl in WORKLOADS.items():
            in_dir, out_dir = work / name / "in", work / name / "out"
            in_dir.mkdir(parents=True)
            out_dir.mkdir()
            for cmd in wl.make(0, str(in_dir), str(out_dir), small=True):
                digests = []
                for traced in (False, True):
                    rec = run.run_command(cmd, traced)
                    assert rec["rc"] == 0, cmd.argv
                    assert bool(rec["spans"]) == traced
                    digests.append(run.csv_digests(cmd.out))
                assert digests[0] and digests[0] == digests[1], cmd.argv
    finally:
        shutil.rmtree(work, ignore_errors=True)


def test_per_layer_names_resolve():
    names = ["cli"]

    class Recorder(Tracer):
        def wrap(self, module, attr, name, count=None):
            names.append(name)

    run.install_layers(Recorder())
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    for metric in spec["per_layer"]:
        name = metric["name"]
        if name not in DERIVED and not name.startswith("run_"):
            assert name.rpartition(".")[0] in names, name


if __name__ == "__main__":
    for fn_name, fn in list(globals().items()):
        if fn_name.startswith("test_"):
            fn()
            print("ok", fn_name)
