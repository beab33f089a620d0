import json
import math

import numpy as np
import pytest

from randterm import graph, io
from randterm.cli import main, random_graph_problem

from conftest import scenario


def run(*argv):
    return main(list(argv))


class TestRunGraph:
    def test_success_writes_solution_and_summary(self, tmp_path):
        out = tmp_path / "out"
        assert run("run-graph", scenario("three_node_chain.txt"),
                   "--p", "0.1", "--out", str(out)) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["solver"] == "dijkstra"
        assert summary["nodes"] == 3
        assert len(summary["config_hash"]) == 16
        lines = (out / "solution.csv").read_text().strip().splitlines()
        assert float(lines[1].split(",")[1]) == pytest.approx(1.0)

    def test_dial_matches_dijkstra(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for solver, out in (("dijkstra", a), ("dial", b)):
            assert run("run-graph", scenario("subtle_motionless.txt"),
                       "--p", "0.5", "--solver", solver, "--out", str(out)) == 0
        assert (a / "solution.csv").read_bytes() == (b / "solution.csv").read_bytes()

    def test_validation_failure_exit_2(self, tmp_path):
        # the two-node cycle violates the cost-margin assumption unless run
        # through value iteration; label-setting must refuse it
        assert run("run-graph", scenario("two_node_cycle.txt"), "--p", "0.5",
                   "--solver", "dial", "--out", str(tmp_path)) == 2

    def test_vi_accepts_zero_margin_cycle(self, tmp_path):
        assert run("run-graph", scenario("two_node_cycle.txt"), "--p", "0.5",
                   "--solver", "vi", "--out", str(tmp_path)) == 0

    def test_nonconvergence_exit_3(self, tmp_path):
        # vanishing kill probability makes the fixed point contraction factor
        # approach 1; with a strict tolerance the sweep budget runs out
        assert run("run-graph", scenario("two_node_cycle.txt"), "--p", "1e-9",
                   "--solver", "vi", "--tol", "1e-15",
                   "--out", str(tmp_path)) == 3

    def test_malformed_scenario_exit_2(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("nodes two\n")
        assert run("run-graph", str(bad), "--p", "0.5",
                   "--out", str(tmp_path)) == 2

    def test_missing_file_exit_4(self, tmp_path):
        assert run("run-graph", str(tmp_path / "nope.txt"), "--p", "0.5",
                   "--out", str(tmp_path)) == 4

    @pytest.mark.parametrize("line", ["edge 1 7 1.0", "call 9 0.0"])
    def test_idle_index_out_of_range_exit_2(self, tmp_path, capsys, line):
        bad = tmp_path / "bad.txt"
        bad.write_text("nodes 3\nlambda 1.0\nedge 0 1 1.0\nedge 1 2 1.0\n"
                       "edge 2 0 1.0\ncall 0 1.0\n%s\n" % line)
        assert run("run-graph", str(bad), "--out", str(tmp_path)) == 2
        assert "bad.txt:7:" in capsys.readouterr().err

    @pytest.mark.parametrize("text", [
        "nodes 3\np 0.5\nedge 0 1 1\nedge 1 2 1\nedge 0 1 5\n",
        "nodes 3\nlambda 1.0\nedge 0 1 1.0\nedge 1 2 1.0\nedge 0 1 5.0\n"
        "call 2 1.0\n",
    ], ids=["graph", "idle"])
    def test_duplicate_edge_exit_2(self, tmp_path, capsys, text):
        bad = tmp_path / "bad.txt"
        bad.write_text(text)
        assert run("run-graph", str(bad), "--out", str(tmp_path)) == 2
        assert "bad.txt:5: duplicate edge (0,1)" in capsys.readouterr().err

    @pytest.mark.parametrize("name, text", [
        ("bad.txt", "nodes 2\nlambda 1.0\nedge 0 1 1.0\nedge 1 0 1.0\n"
                    "call 0 1.5\ncall 1 -0.5\n"),
        ("bad.json", json.dumps({
            "grid": {"n": 11, "extent": [0, 1, 0, 1]}, "lambda": 0.5,
            "calls": [{"location": [0.2, 0.2], "prob": 1.5},
                      {"location": [0.8, 0.8], "prob": -0.5}]})),
    ], ids=["idle", "grid"])
    def test_negative_call_probability_exit_2(self, tmp_path, capsys, name,
                                              text):
        bad = tmp_path / name
        bad.write_text(text)
        command = "run-grid" if name.endswith(".json") else "run-graph"
        assert run(command, str(bad), "--out", str(tmp_path)) == 2
        assert ">= 0" in capsys.readouterr().err

    def test_idle_scenario_detected(self, tmp_path):
        out = tmp_path / "out"
        assert run("run-graph", scenario("idle_ring.txt"),
                   "--out", str(out)) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["nodes"] == 6
        assert summary["motionless_count"] == 6  # symmetric ring: stay put


class TestRunGrid:
    def test_default_emit_value(self, tmp_path):
        out = tmp_path / "out"
        assert run("run-grid", scenario("radial_trivial.json"),
                   "--grid", "51x51", "--out", str(out)) == 0
        V = np.loadtxt(out / "value.csv", delimiter=",")
        assert V.shape == (51, 51)
        summary = json.loads((out / "summary.json").read_text())
        assert summary["grid"] == [51, 51]

    def test_emits(self, tmp_path):
        out = tmp_path / "out"
        assert run("run-grid", scenario("radial_circular.json"),
                   "--grid", "51x51", "--emit", "value", "--emit", "mask",
                   "--emit", "boundary", "--emit", "trajectory:0.8,0.0",
                   "--out", str(out)) == 0
        for name in ("value.csv", "mask.csv", "boundary.csv", "trajectory.csv"):
            assert (out / name).exists()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["trajectory_status"] == "ok"

    def test_lambda_override_changes_solution(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for lam, out in (("0.5", a), ("5.0", b)):
            assert run("run-grid", scenario("radial_circular.json"),
                       "--grid", "41x41", "--lambda", lam,
                       "--out", str(out)) == 0
        Va = np.loadtxt(a / "value.csv", delimiter=",")
        Vb = np.loadtxt(b / "value.csv", delimiter=",")
        assert np.all(Vb >= Va - 1e-10)
        assert Vb.mean() > Va.mean()  # corners are motionless either way

    def test_sweep_solver_agrees_with_fmm(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for solver, out in (("fmm", a), ("sweep", b)):
            assert run("run-grid", scenario("radial_trivial.json"),
                       "--grid", "41x41", "--solver", solver,
                       "--out", str(out)) == 0
        Va = np.loadtxt(a / "value.csv", delimiter=",")
        Vb = np.loadtxt(b / "value.csv", delimiter=",")
        assert np.max(np.abs(Va - Vb)) <= 1e-9

    def test_sweep_nonconvergence_exit_3(self, tmp_path):
        # a negative tolerance is unattainable, so the sweep budget runs out
        assert run("run-grid", scenario("radial_trivial.json"),
                   "--grid", "21x21", "--solver", "sweep", "--tol", "-1",
                   "--out", str(tmp_path)) == 3

    def test_bad_emit_exit_2(self, tmp_path):
        assert run("run-grid", scenario("radial_trivial.json"),
                   "--grid", "21x21", "--emit", "bogus",
                   "--out", str(tmp_path)) == 2

    @pytest.mark.parametrize("doc, key", [
        ({"lambda": 0.5, "q": 1.0}, "'grid'"),
        ({"grid": [0, 1], "lambda": 0.5, "q": 1.0}, "'grid'"),
        ({"grid": {"n": 11}, "lambda": 0.5, "q": 1.0}, "'grid.extent'"),
        ({"grid": {"n": 11, "extent": [0, 1, "a", 1]}, "lambda": 0.5,
          "q": 1.0}, "'grid.extent'"),
        ({"grid": {"extent": [0, 1, 0, 1]}, "lambda": 0.5, "q": 1.0}, "'n'"),
        ({"grid": {"n": 1, "extent": [0, 1, 0, 1]}, "lambda": 0.5,
          "q": 1.0}, "at least 2 points"),
    ])
    def test_grid_schema_exit_2(self, tmp_path, capsys, doc, key):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert run("run-grid", str(bad), "--out", str(tmp_path)) == 2
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("spec, key", [
        ({"calls": [{"prob": 1.0}]}, "'location'"),
        ({"calls": [{"location": [0.5], "prob": 1.0}]}, "'calls'"),
        ({"calls": 5}, "'calls'"),
        ({"f": {"radial": 5}, "q": 1.0}, "'f'"),
        ({"q": {"rects": {"rects": []}}}, "'default'"),
        ({"f": {"disk": {"radius": 1, "value": 1}}, "q": 1.0}, "'center'"),
        ({"q": {"constant": "-inf"}}, "finite"),
    ], ids=["no-location", "short-location", "calls-not-list", "radial-5",
            "rects-no-default", "disk-no-center", "q-minus-inf"])
    def test_malformed_grid_fields_exit_2(self, tmp_path, capsys, spec, key):
        doc = {"grid": {"n": 11, "extent": [0, 1, 0, 1]}, "lambda": 0.5}
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({**doc, **spec}))
        assert run("run-grid", str(bad), "--out", str(tmp_path)) == 2
        err = capsys.readouterr().err
        assert key in err and "Traceback" not in err

    def test_q_and_calls_rejected_before_solving(self, tmp_path, capsys,
                                                 monkeypatch):
        def unexpected(*args, **kwargs):
            raise AssertionError("eikonal solve before the schema check")

        monkeypatch.setattr(io, "response_cost", unexpected)
        with open(scenario("slow_disk.json")) as fh:
            doc = json.load(fh)
        doc["q"] = 1.0
        bad = tmp_path / "both.json"
        bad.write_text(json.dumps(doc))
        assert run("run-grid", str(bad), "--out", str(tmp_path)) == 2
        assert "either 'q' or 'calls'" in capsys.readouterr().err

    def test_rectangular_grid_override_rejected(self, tmp_path):
        assert run("run-grid", scenario("radial_trivial.json"),
                   "--grid", "21x41", "--out", str(tmp_path)) == 2


class TestRunConvergence:
    def test_table_and_csv(self, tmp_path, capsys):
        assert run("run-convergence", "trivial", "--lambda", "0.5",
                   "--grids", "51,101", "--out", str(tmp_path)) == 0
        lines = (tmp_path / "convergence.csv").read_text().strip().splitlines()
        assert len(lines) == 3
        last = lines[2].split(",")
        assert 0.5 <= float(last[4]) <= 1.5  # first-order
        printed = capsys.readouterr().out
        assert "order=" in printed


class TestRandomGraph:
    def test_generator_is_valid_and_deterministic(self):
        a = random_graph_problem(7)
        b = random_graph_problem(7)
        assert graph.validate(a) == []
        assert a.K == b.K and a.p == b.p and np.array_equal(a.q, b.q)

    def test_round_trip_through_file(self, tmp_path):
        f = tmp_path / "g.txt"
        assert run("random-graph", "--seed", "3", "--nodes", "20",
                   "--out", str(f)) == 0
        out = tmp_path / "out"
        assert run("run-graph", str(f), "--out", str(out)) == 0
        from randterm.io import load_graph
        pb = load_graph(str(f))
        ref = random_graph_problem(3, nodes=20)
        sol_file = graph.dijkstra_solve(pb)
        sol_ref = graph.dijkstra_solve(ref)
        assert np.allclose(sol_file.V, sol_ref.V, atol=1e-12)
