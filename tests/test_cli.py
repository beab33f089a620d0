import json
import locale
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from randterm import eikonal, graph, grid, io
from randterm.cli import main, random_graph_problem

from conftest import MASKED_RECT, both_paths, read_lines, scenario


def run(*argv):
    return main(list(argv))


@pytest.fixture
def opened(monkeypatch):
    """The files the test opens through builtins.open, in order."""
    files, builtin_open = [], open

    def counting_open(file, *args, **kwargs):
        files.append(file)
        return builtin_open(file, *args, **kwargs)

    monkeypatch.setattr("builtins.open", counting_open)
    return files


def undecodable(data):
    """Skip the test where the locale's encoding decodes data."""
    try:
        data.decode(locale.getpreferredencoding(False))
    except UnicodeDecodeError:
        return
    pytest.skip("the locale's encoding decodes every byte")


# summary.json keys of every run-graph and run-grid solve
SHARED_KEYS = {"scenario", "solver", "status", "iterations",
               "heap_operations", "wall_time_s", "motionless_count",
               "config_hash"}


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

    @pytest.mark.parametrize("solver", ["dijkstra", "dial", "vi"])
    def test_summary_keys(self, tmp_path, solver):
        assert run("run-graph", scenario("subtle_motionless.txt"), "--p",
                   "0.5", "--solver", solver, "--out", str(tmp_path)) == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert set(summary) == SHARED_KEYS | {"nodes"}
        assert summary["status"] == "ok"
        pb = io.load_graph(scenario("subtle_motionless.txt"), default_p=0.5)
        sol = graph.dijkstra_solve(pb)
        assert summary["motionless_count"] == sol.motionless.sum()
        if solver == "vi":
            assert summary["heap_operations"] == 0
            assert summary["iterations"] > 0
        else:
            assert summary["heap_operations"] >= 2 * pb.node_count
            assert summary["iterations"] == 0

    @pytest.mark.parametrize("argv, config_hash", [
        (["run-graph", "three_node_chain.txt", "--p", "0.1"],
         "a1bd26acb413c1f0"),
        (["run-graph", "idle_ring.txt", "--solver", "dial"],
         "0cd3c0f34d0ab988"),
        (["run-grid", "radial_trivial.json", "--grid", "21x21", "--emit",
          "mask"], "b8e72d6faead0fb3"),
    ])
    def test_config_hash_pinned(self, tmp_path, argv, config_hash):
        # the sha256 of the scenario file's bytes and of the flags
        command, name, *flags = argv
        assert run(command, scenario(name), *flags, "--out", str(tmp_path)) == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["config_hash"] == config_hash

    @pytest.mark.parametrize("name", ["three_node_chain.txt", "idle_ring.txt"])
    def test_scenario_read_once(self, tmp_path, opened, name):
        path = scenario(name)
        # an idle file takes its p from lambda, never from --p
        p = [] if name == "idle_ring.txt" else ["--p", "0.1"]
        assert run("run-graph", path, *p, "--out", str(tmp_path)) == 0
        assert opened.count(path) == 1

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

    def test_dial_infinite_bucket_index_exit_2(self, tmp_path, capsys):
        # delta 5e-324 leaves no finite bucket index for q = 10
        path = tmp_path / "g.txt"
        path.write_text("nodes 3\np 0.5\nq 0 0.0\nq 1 10.0\nq 2 1.0\n"
                        "edge 0 0 0.0\nedge 1 1 0.0\nedge 2 2 0.0\n"
                        "edge 2 0 5e-324\n")
        assert run("run-graph", str(path), "--solver", "dial",
                   "--out", str(tmp_path / "out")) == 2
        assert capsys.readouterr().err == (
            "error: dial_solve: (max q - min q) / delta = inf is not finite "
            "(delta 5e-324 too small)\n")
        assert not (tmp_path / "out" / "solution.csv").exists()

    @pytest.mark.parametrize("p", ["1.5", "-0.5"])
    def test_vi_probability_out_of_range_exit_2(self, tmp_path, capsys, p):
        assert run("run-graph", scenario("two_node_cycle.txt"), "--p", p,
                   "--solver", "vi", "--out", str(tmp_path)) == 2
        assert "outside [0, 1] on edge (0,0)" in capsys.readouterr().err

    def test_validation_message_is_bounded(self, tmp_path, capsys):
        path = tmp_path / "big.txt"
        assert run("random-graph", "--nodes", "2000", "--out",
                   str(path)) == 0
        assert run("run-graph", str(path), "--p", "1.5",
                   "--out", str(tmp_path)) == 2
        err = capsys.readouterr().err
        pb = io.load_graph(str(path))
        pb.p[:] = 1.5
        issues = graph.validate(pb)  # still the full list
        assert len(issues) == pb.dst.size
        assert len(err) < 500
        assert err.count("; ") == 5
        assert err.endswith("; and %d more\n" % (len(issues) - 5))

    def test_vi_accepts_zero_margin_cycle(self, tmp_path):
        assert run("run-graph", scenario("two_node_cycle.txt"), "--p", "0.5",
                   "--solver", "vi", "--out", str(tmp_path)) == 0

    def test_nonconvergence_exit_3(self, tmp_path, monkeypatch):
        # vanishing kill probability makes the fixed point contraction factor
        # approach 1; with a strict tolerance the sweep budget runs out.  A
        # budget of 100 iterations, not 100,000, keeps the test short.
        vi = graph.value_iteration
        monkeypatch.setattr(graph, "value_iteration",
                            lambda pb, tol: vi(pb, tol=tol, max_iters=100))
        assert run("run-graph", scenario("two_node_cycle.txt"), "--p", "1e-9",
                   "--solver", "vi", "--tol", "1e-15",
                   "--out", str(tmp_path)) == 3
        assert list(tmp_path.iterdir()) == []

    def test_nan_tol_exit_2(self, tmp_path, capsys):
        # refused before the first iteration, not after the last: -1 can
        # never be met and inf is met by any first iterate
        for tol in ("nan", "inf", "-1"):
            assert run("run-graph", scenario("two_node_cycle.txt"), "--p",
                       "0.25", "--solver", "vi", "--tol", tol,
                       "--out", str(tmp_path)) == 2
            assert "tol must be finite and >= 0" in capsys.readouterr().err

    def test_nan_cost_in_any_line_order(self, tmp_path, capsys):
        # delta is a function of the costs, so the line order of a nan cost
        # changes nothing, and only the nan edge breaks A3
        edges = ["edge 0 1 nan\n", "edge 1 2 1.0\n", "edge 2 0 2.0\n"]
        errs = []
        for order in (edges, [edges[1], edges[0], edges[2]]):
            path = tmp_path / "g.txt"
            path.write_text("nodes 3\np 0.5\n" + "".join(order))
            assert run("run-graph", str(path), "--out", str(tmp_path)) == 2
            errs.append(capsys.readouterr().err)
        assert errs[0] == errs[1] == (
            "error: invalid problem: A3 edge (0,1) cost nan not >= 0\n")

    def test_vi_infinite_q_never_motionless(self, tmp_path):
        # V_0 = 1 + 0.5 * 1 + 0.5 * V_1 = 2 < q_0 = inf: node 0 moves
        path = tmp_path / "g.txt"
        path.write_text("nodes 2\np 0.5\nq 0 inf\nq 1 1.0\n"
                        "edge 0 1 1.0\nedge 1 0 1.0\n")
        assert run("run-graph", str(path), "--solver", "vi",
                   "--out", str(tmp_path)) == 0
        rows = (tmp_path / "solution.csv").read_text().splitlines()
        assert rows[1:] == ["0,2.0,inf,0,1", "1,1.0,1.0,1,1"]

    def test_vi_nan_q_exit_2(self, tmp_path, capsys):
        path = tmp_path / "g.txt"
        path.write_text("nodes 2\np 0.5\nq 0 nan\nq 1 1.0\n"
                        "edge 0 1 1.0\nedge 1 0 1.0\n")
        assert run("run-graph", str(path), "--solver", "vi",
                   "--out", str(tmp_path)) == 2
        assert "terminal cost nan at node 0" in capsys.readouterr().err
        assert not (tmp_path / "solution.csv").exists()

    def test_malformed_scenario_exit_2(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("nodes two\n")
        assert run("run-graph", str(bad), "--p", "0.5",
                   "--out", str(tmp_path)) == 2

    @pytest.mark.parametrize("data", [
        b"nodes 2\np 0.5\nedge 0 1 1.0 \xff\n",
        b"nodes 2\nlambda 1.0\nedge 0 1 \xff1.0\ncall 0 1.0\n",
    ], ids=["graph", "idle"])
    def test_undecodable_byte_exit_2(self, tmp_path, data):
        # off the lambda line the byte is left to the load, which refuses it
        bad = tmp_path / "bad.txt"
        bad.write_bytes(data)
        assert run("run-graph", str(bad), "--out", str(tmp_path)) == 2

    @pytest.mark.parametrize("data, line", [
        (b"nodes 2\n# caf\xe9\nq 0 1.0\nq 1 2.0\nedge 0 1 1.0 0.5\n", 2),
        # past the first block the decoder reads, with \r\n and \r lines
        (b"nodes 3\r\n" + b"# pad\r\n" * 3000 + b"\r# \xff\n", 3003),
    ], ids=["comment", "far-line"])
    def test_undecodable_byte_names_the_line(self, tmp_path, capsys, data,
                                             line):
        undecodable(data)
        bad = tmp_path / "bad.txt"
        bad.write_bytes(data)
        assert run("run-graph", str(bad), "--out", str(tmp_path)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: %s:%d: " % (bad, line))
        assert "can't decode byte" in err

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

    @pytest.mark.parametrize("text", [
        "nodes 10000000000\np 0.5\nedge 0 1 1\n",
        "nodes 0\np 0.5\n",
        "nodes 10000000000\nlambda 1.0\nedge 0 1 1.0\ncall 0 1.0\n",
    ], ids=["graph", "graph-empty", "idle"])
    def test_node_count_bound_exit_2(self, tmp_path, capsys, text):
        # checked on the nodes line, before anything is sized by it
        bad = tmp_path / "bad.txt"
        bad.write_text(text)
        assert run("run-graph", str(bad), "--out", str(tmp_path)) == 2
        assert ("bad.txt:1: nodes %s outside [1, %d]"
                % (text.split()[1], io.MAX_NODES)) in capsys.readouterr().err

    @pytest.mark.parametrize("p", ["0.5", "nan"])
    def test_idle_file_refuses_p(self, tmp_path, capsys, p):
        # an idle file's p come from lambda and tau; a default p would
        # leave K of the idle model with p of another
        assert run("run-graph", scenario("idle_ring.txt"), "--p", p,
                   "--out", str(tmp_path)) == 2
        assert capsys.readouterr().err == (
            "error: %s: an idle file takes p from 'lambda'; a default p "
            "(--p) does not apply\n" % scenario("idle_ring.txt"))
        assert list(tmp_path.iterdir()) == []

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
        assert set(summary) == SHARED_KEYS | {"grid"}

    @pytest.mark.parametrize("solver", ["fmm", "sweep"])
    def test_summary_keys(self, tmp_path, solver):
        assert run("run-grid", scenario("radial_circular.json"),
                   "--grid", "21x21", "--solver", solver, "--emit", "mask",
                   "--emit", "trajectory:0.8,0.0", "--out", str(tmp_path)) == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert set(summary) == SHARED_KEYS | {"grid", "trajectory_status"}
        assert summary["status"] == "ok"
        mask = np.loadtxt(tmp_path / "mask.csv", delimiter=",")
        assert summary["motionless_count"] == mask.sum() > 0
        assert (summary["iterations"] > 0) == (solver == "sweep")
        if solver == "sweep":
            assert summary["heap_operations"] == 0
        else:
            assert summary["heap_operations"] >= 2 * 21 * 21

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

    def test_scenario_read_once(self, tmp_path, opened):
        # the config hash and the problem come from the same bytes, which
        # the loader reads, for a field scenario and for a calls scenario
        for name in ("radial_trivial.json", "slow_disk.json"):
            path = scenario(name)
            assert run("run-grid", path, "--grid", "21x21",
                       "--out", str(tmp_path / name)) == 0
            assert opened.count(path) == 1

    def test_sweep_solver_agrees_with_fmm(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for solver, out in (("fmm", a), ("sweep", b)):
            assert run("run-grid", scenario("radial_trivial.json"),
                       "--grid", "41x41", "--solver", solver,
                       "--out", str(out)) == 0
        Va = np.loadtxt(a / "value.csv", delimiter=",")
        Vb = np.loadtxt(b / "value.csv", delimiter=",")
        assert np.max(np.abs(Va - Vb)) <= 1e-9

    def test_sweep_nonconvergence_exit_3(self, tmp_path, monkeypatch):
        # tol 0 needs 5 sweeps here, so a budget of one runs out
        sweep = grid.sweep_oracle
        monkeypatch.setattr(grid, "sweep_oracle",
                            lambda pb, tol: sweep(pb, tol=tol, max_iters=1))
        assert run("run-grid", scenario("radial_trivial.json"),
                   "--grid", "21x21", "--solver", "sweep", "--tol", "0",
                   "--out", str(tmp_path)) == 3
        assert list(tmp_path.iterdir()) == []

    def test_nan_tol_exit_2(self, tmp_path, capsys):
        for tol in ("nan", "inf", "-1"):
            assert run("run-grid", scenario("radial_trivial.json"),
                       "--grid", "21x21", "--solver", "sweep", "--tol", tol,
                       "--out", str(tmp_path)) == 2
            assert "tol must be finite and >= 0" in capsys.readouterr().err

    def test_bad_emit_exit_2(self, tmp_path, capsys, monkeypatch):
        # every --emit is checked before the scenario is loaded: no solve
        # and no file
        def unexpected(*args, **kwargs):
            raise AssertionError("scenario loaded before the emit check")

        monkeypatch.setattr(io, "load_grid_scenario", unexpected)
        for emit in ("bogus", "trajectory", "trajectory:1", "trajectory:a,b",
                     "trajectory:", "trajectory:1,2,3"):
            assert run("run-grid", scenario("radial_trivial.json"),
                       "--grid", "21x21", "--emit", "value", "--emit", emit,
                       "--out", str(tmp_path)) == 2
            assert capsys.readouterr().err == (
                "error: --emit %r: expected value, mask, boundary or "
                "trajectory:X,Y\n" % emit)
        assert list(tmp_path.iterdir()) == []

    def test_config_hash_of_the_parsed_settings(self, tmp_path):
        # every spelling of one run hashes alike; another run does not
        def config_hash(*flags):
            out = tmp_path / "out"
            assert run("run-grid", scenario("radial_trivial.json"), *flags,
                       "--out", str(out)) == 0
            return json.loads((out / "summary.json").read_text())[
                "config_hash"]

        for spellings in (
                [["--grid", g] for g in ("21", "21x21", "021x21")],
                [["--grid", "21"], ["--grid", "21", "--emit", "value"],
                 ["--grid", "21", "--emit", " value"]],
                [["--grid", "21", "--emit", e] for e in (
                    "trajectory:1,0.5", "trajectory:1.0,0.5",
                    " trajectory:1e0,.5")],
                [["--grid", "21", "--emit", a, "--emit", b]
                 for a, b in (("mask", "value"), ("value", "mask"))]):
            assert len({config_hash(*flags) for flags in spellings}) == 1
        assert config_hash("--grid", "21") != config_hash("--grid", "23")
        # radial_trivial.json's own n and lambda, given or not
        assert (config_hash() == config_hash("--grid", "101")
                == config_hash("--lambda", "0.5")
                == config_hash("--grid", "101", "--lambda", "0.50"))
        assert config_hash() != config_hash("--lambda", "0.25")

    def test_overflowing_travel_time_exit_2(self, tmp_path, capsys):
        # h / f = inf made q = +inf, read as masked: V = inf but at the call
        path = tmp_path / "slow.json"
        path.write_text(json.dumps({
            "grid": {"extent": [0, 1, 0, 1], "n": 11}, "lambda": 1.0,
            "f": 1e-310, "calls": [{"location": [0.5, 0.5], "prob": 1.0}]}))
        out = tmp_path / "out"
        assert run("run-grid", str(path), "--out", str(out)) == 2
        assert capsys.readouterr().err == (
            "error: %s: 'calls': the travel-time mix is not finite at every "
            "grid point\n" % path)
        assert not out.exists()

    @pytest.mark.parametrize("value", ["21", "21x21", "021x21"])
    def test_grid_values(self, tmp_path, value):
        assert run("run-grid", scenario("radial_trivial.json"), "--grid",
                   value, "--out", str(tmp_path)) == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["grid"] == [21, 21]

    @pytest.mark.parametrize("value, message", [
        ("5x", "--grid '5x': expected N or NxN"),
        ("x5", "--grid 'x5': expected N or NxN"),
        ("abc", "--grid 'abc': expected N or NxN"),
        ("", "--grid '': expected N or NxN"),
        ("5x5x5", "--grid '5x5x5': expected N or NxN"),
        (" 21", "--grid ' 21': expected N or NxN"),
        ("+21", "--grid '+21': expected N or NxN"),
        ("2_1", "--grid '2_1': expected N or NxN"),
        ("21X21", "--grid '21X21': expected N or NxN"),
        ("21x31", "--grid override must be square (NxN)"),
    ])
    def test_malformed_grid_exit_2(self, tmp_path, capsys, monkeypatch,
                                   value, message):
        # refused before the scenario is loaded
        def unexpected(*args, **kwargs):
            raise AssertionError("scenario loaded before the --grid check")

        monkeypatch.setattr(io, "load_grid_scenario", unexpected)
        assert run("run-grid", scenario("radial_trivial.json"), "--grid",
                   value, "--out", str(tmp_path)) == 2
        assert capsys.readouterr().err == "error: %s\n" % message
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("start", ["1e400,0.5", "nan,0"])
    def test_non_finite_trajectory_start_exit_2(self, tmp_path, capsys,
                                                monkeypatch, start):
        def unexpected(*args, **kwargs):
            raise AssertionError("solve before the start was checked")

        monkeypatch.setattr(grid, "fmm_solve", unexpected)
        assert run("run-grid", scenario("radial_trivial.json"),
                   "--grid", "21x21", "--emit", "trajectory:" + start,
                   "--out", str(tmp_path)) == 2
        assert "outside the grid" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_masked_trajectory_start_exit_2(self, tmp_path, capsys,
                                            monkeypatch):
        def unexpected(*args, **kwargs):
            raise AssertionError("solve before the start was checked")

        path = tmp_path / "masked.json"
        path.write_text(json.dumps(MASKED_RECT))
        monkeypatch.setattr(grid, "fmm_solve", unexpected)
        out = tmp_path / "out"
        assert run("run-grid", str(path), "--emit", "value", "--emit",
                   "trajectory:1.0,1.0", "--out", str(out)) == 2
        assert capsys.readouterr().err == (
            "error: trajectory start (1.0, 1.0) lies on a masked point\n")
        assert not out.exists()

    @pytest.mark.parametrize("doc, key", [
        ({"lambda": 0.5, "q": 1.0}, "'grid'"),
        ({"grid": [0, 1], "lambda": 0.5, "q": 1.0}, "'grid'"),
        ({"grid": {"n": 11}, "lambda": 0.5, "q": 1.0}, "'grid.extent'"),
        ({"grid": {"n": 11, "extent": [0, 1, "a", 1]}, "lambda": 0.5,
          "q": 1.0}, "'grid.extent'"),
        ({"grid": {"extent": [0, 1, 0, 1]}, "lambda": 0.5, "q": 1.0}, "'n'"),
        ({"grid": {"n": 1, "extent": [0, 1, 0, 1]}, "lambda": 0.5,
          "q": 1.0}, "at least 2 points"),
        ({"grid": {"nx": 3163, "ny": 3163, "extent": [0, 1, 0, 1]},
          "lambda": 0.5, "q": 1.0}, "exceeds %d points" % io.MAX_NODES),
        # counts first: no float arithmetic on a count past float range
        ({"grid": {"n": 10 ** 400, "extent": [0.0, 1.0, 0, 1]},
          "lambda": 0.5, "q": 1.0}, "exceeds %d points" % io.MAX_NODES),
        ({"grid": {"n": 11.0, "extent": [0, 1, 0, 1]}, "lambda": 0.5,
          "q": 1.0}, "integer 'n'"),
        ({"grid": {"n": 11, "extent": [0, math.nan, 0, 1]}, "lambda": 0.5,
          "q": 1.0}, "extent must be finite"),
        ({"grid": {"n": 11, "extent": [0, math.inf, 0, math.inf]},
          "lambda": 0.5, "q": 1.0}, "extent must be finite"),
        ({"grid": {"n": 11, "extent": [0, 1, 0, 1]}, "lambda": [1],
          "q": 1.0}, "'lambda'"),
        ({"grid": {"n": 11, "extent": [0, 1, 0, 1]}, "lambda": 0.5,
          "calls": [{"location": [math.inf, 0.5], "prob": 1.0}]},
         "outside the grid"),
        # JSON booleans are not numbers
        ({"grid": {"n": 11, "extent": [False, True, 0, 1]}, "lambda": 0.5,
          "q": 1.0}, "'grid.extent'"),
        ({"grid": {"n": 11, "extent": [0, 1, 0, 1]}, "lambda": True,
          "q": 1.0}, "'lambda'"),
        # n, or nx and ny, never both
        *(({"grid": {"n": 11, **counts, "extent": [0, 1, 0, 1]},
            "lambda": 0.5, "q": 1.0},
           "bad.json: 'grid' gives 'n' and also 'nx' or 'ny'")
          for counts in ({"nx": 21, "ny": 21}, {"nx": 11}, {"ny": 11})),
        # every call lies on the grid, one of probability 0 too
        ({"grid": {"n": 11, "extent": [0, 1, 0, 1]}, "lambda": 0.5,
          "calls": [{"location": [0.5, 0.5], "prob": 1.0},
                    {"location": [5, 5], "prob": 0.0}]},
         "bad.json: 'calls': point (5.0, 5.0) outside the grid"),
    ])
    def test_grid_schema_exit_2(self, tmp_path, capsys, doc, key):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert run("run-grid", str(bad), "--out", str(tmp_path)) == 2
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("doc, keys", [
        ({"k": 5.0}, "'k'"),
        ({"grid": {"n": 11, "extent": [0, 1, 0, 1], "N": 21}}, "'grid.N'"),
        ({"Lambda": 1.0, "grid": {"n": 11, "extent": [0, 1, 0, 1], "m": 1}},
         "'Lambda', 'grid.m'"),
    ], ids=["top-level", "grid", "both"])
    def test_unknown_key_exit_2(self, tmp_path, capsys, doc, keys):
        base = {"grid": {"n": 11, "extent": [0, 1, 0, 1]}, "lambda": 0.5,
                "q": 1.0}
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({**base, **doc}))
        assert run("run-grid", str(bad), "--out", str(tmp_path)) == 2
        assert "unknown keys %s" % keys in capsys.readouterr().err

    @pytest.mark.parametrize("spec, key", [
        ({"calls": [{"prob": 1.0}]}, "'location'"),
        ({"calls": [{"location": [0.5], "prob": 1.0}]}, "'calls'"),
        ({"calls": 5}, "'calls'"),
        ({"f": {"radial": 5}, "q": 1.0}, "'f'"),
        ({"q": {"rects": {"rects": []}}}, "'default'"),
        ({"f": {"disk": {"radius": 1, "value": 1}}, "q": 1.0}, "'center'"),
        ({"q": {"constant": "-inf"}}, "finite"),
        ({"f": True, "q": 1.0}, "'f'"),
        ({"q": {"constant": False}}, "'q'"),
        ({"q": {"radial": {"pieces": [{"range": [0, True], "value": 1}]}}},
         "'q'"),
        ({"q": {"rects": {"default": 1, "rects": [
            {"x": [0, True], "y": [0, 1], "value": 2}]}}}, "'q'"),
        ({"K": {"disk": {"center": [True, 0.5], "radius": 1, "value": 1}},
          "q": 1.0}, "'K'"),
        ({"calls": [{"location": [True, 0.5], "prob": 1.0}]}, "'calls'"),
        ({"calls": [{"location": [0.5, 0.5], "prob": True}]}, "'calls'"),
    ], ids=["no-location", "short-location", "calls-not-list", "radial-5",
            "rects-no-default", "disk-no-center", "q-minus-inf", "f-true",
            "constant-false", "range-true", "rect-x-true", "center-true",
            "location-true", "prob-true"])
    def test_malformed_grid_fields_exit_2(self, tmp_path, capsys, spec, key):
        doc = {"grid": {"n": 11, "extent": [0, 1, 0, 1]}, "lambda": 0.5}
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({**doc, **spec}))
        assert run("run-grid", str(bad), "--out", str(tmp_path)) == 2
        err = capsys.readouterr().err
        assert key in err and "Traceback" not in err

    DEEP = "[" * 100000 + "]" * 100000

    @pytest.mark.parametrize("text, message", [
        ('{"grid": {"n": 2, "extent": [0, 1, 0, 1]}, "lambda": 0.5, '
         '"q": {"csv": "q.csv"}}',
         "ill-formed field 'q' (field larger than field limit"),
        (DEEP, "bad.json: maximum recursion depth exceeded"),
        ('{"grid": {"n": 2, "extent": [0, 1, 0, 1]}, "lambda": 0.5, "q": %s}'
         % DEEP, "bad.json: maximum recursion depth exceeded"),
        ('{"grid": ', "bad.json: Expecting value: line 1 column 10 (char 9)"),
    ], ids=["csv-cell-past-limit", "deep-document", "deep-q", "truncated"])
    def test_unreadable_input_exit_2(self, tmp_path, capsys, text, message):
        # a CSV cell longer than the csv module's field limit, and JSON
        # nested deeper than the decoder recurses
        (tmp_path / "q.csv").write_text("1," + "9" * 200000 + "\n1,1\n")
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        assert run("run-grid", str(bad), "--out", str(tmp_path)) == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err

    def test_undecodable_byte_names_the_file(self, tmp_path, capsys):
        data = b'{"comment":\n "caf\xe9"}'
        undecodable(data)
        bad = tmp_path / "bad.json"
        bad.write_bytes(data)
        assert run("run-grid", str(bad), "--out", str(tmp_path)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: %s:2: " % bad)
        assert "can't decode byte 0xe9" in err

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

    @pytest.mark.parametrize("key, value, message", [
        ("f", {"disk": {"center": [5.0, 5.0], "radius": 2.5,
                        "value": math.inf, "default": 1.0}},
         "speed must be positive and finite off the mask"),
        ("K", -1.0, "running cost must be nonnegative and finite"),
        ("lambda", 0.0, "termination rate must be positive and finite"),
        # the first three calls lie inside the grid
        ("calls", [{"location": [1.5, 1.5], "prob": 0.2},
                   {"location": [8.5, 1.5], "prob": 0.2},
                   {"location": [8.5, 8.5], "prob": 0.2},
                   {"location": [50, 0.1], "prob": 0.4}],
         "bad.json: 'calls': point (50.0, 0.1) outside the grid"),
    ], ids=["infinite-speed", "negative-cost", "zero-rate", "call-outside"])
    def test_fields_checked_before_eikonal_solves(self, tmp_path, capsys,
                                                  monkeypatch, key, value,
                                                  message):
        def unexpected(*args, **kwargs):
            raise AssertionError("eikonal solve before the field check")

        monkeypatch.setattr(eikonal, "eikonal_solve", unexpected)
        with open(scenario("slow_disk.json")) as fh:
            doc = json.load(fh)
        doc[key] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert run("run-grid", str(bad), "--grid", "301",
                   "--out", str(tmp_path)) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["run-grid", scenario("radial_trivial.json"), "--grid", "3163x3163"],
        ["run-convergence", "trivial", "--grids", "11,3163"],
    ], ids=["grid-override", "convergence"])
    def test_grid_size_bound_exit_2(self, tmp_path, capsys, argv):
        # 3163^2 is the smallest square grid past io.MAX_NODES; it is refused
        # when the grid is built, before any field of that size exists
        assert run(*argv, "--out", str(tmp_path)) == 2
        assert ("grid of 3163 x 3163 points exceeds %d points" % io.MAX_NODES
                in capsys.readouterr().err)

    def test_rectangular_grid_override_rejected(self, tmp_path):
        assert run("run-grid", scenario("radial_trivial.json"),
                   "--grid", "21x41", "--out", str(tmp_path)) == 2


class TestRunConvergence:
    def test_grid_sizes_checked_before_solving(self, tmp_path, capsys,
                                               monkeypatch):
        def unexpected(*args, **kwargs):
            raise AssertionError("solve before every grid size was checked")

        monkeypatch.setattr(grid, "fmm_solve", unexpected)
        assert run("run-convergence", "circular", "--grids", "401,3163",
                   "--out", str(tmp_path)) == 2
        assert "3163 x 3163" in capsys.readouterr().err
        assert not (tmp_path / "convergence.csv").exists()

    @pytest.mark.parametrize("grids, message", [
        ("11,,21", "--grids '': expected N or NxN"),
        ("11,abc", "--grids 'abc': expected N or NxN"),
        ("11, 21", "--grids ' 21': expected N or NxN"),
        ("11,+21", "--grids '+21': expected N or NxN"),
        ("11,21x31", "--grids override must be square (NxN)"),
    ], ids=["empty", "letters", "space", "sign", "rectangle"])
    def test_grids_parsed_as_grid_sizes(self, tmp_path, capsys, monkeypatch,
                                        grids, message):
        # each entry is read as --grid reads its value, before any solve
        def unexpected(*args, **kwargs):
            raise AssertionError("solve before every grid size was parsed")

        monkeypatch.setattr(grid, "fmm_solve", unexpected)
        assert run("run-convergence", "circular", "--grids", grids,
                   "--out", str(tmp_path)) == 2
        assert capsys.readouterr().err == "error: %s\n" % message
        assert not (tmp_path / "convergence.csv").exists()

    def test_grids_take_square_sizes(self, tmp_path):
        tables = []
        for grids in ("11,21", "11x11,021"):
            assert run("run-convergence", "trivial", "--grids", grids,
                       "--out", str(tmp_path)) == 0
            tables.append((tmp_path / "convergence.csv").read_bytes())
        assert tables[0] == tables[1]

    def test_table_and_csv(self, tmp_path, capsys):
        assert run("run-convergence", "trivial", "--lambda", "0.5",
                   "--grids", "51,101", "--out", str(tmp_path)) == 0
        lines = (tmp_path / "convergence.csv").read_text().strip().splitlines()
        assert len(lines) == 3
        last = lines[2].split(",")
        assert 0.5 <= float(last[4]) <= 1.5  # first-order
        printed = capsys.readouterr().out
        assert "order=" in printed


class TestImport:
    @staticmethod
    def after_import(expr, then="pass", **env):
        """expr printed by a fresh interpreter that imported the package and
        then ran the statement then (the last line it printed)."""
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        env = dict(os.environ, **env, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        return subprocess.run(
            [sys.executable, "-c", "import sys, randterm, randterm.cli; "
             "%s; print(%s)" % (then, expr)], env=env, capture_output=True,
            text=True, check=True).stdout.strip().splitlines()[-1]

    def test_import_loads_no_scipy(self):
        # scipy is imported inside the functions that need it, which keeps
        # the start-up of every command short
        assert self.after_import("sorted(m for m in sys.modules "
                                 "if m.split('.')[0] == 'scipy')") == "[]"

    def test_idle_run_loads_no_scipy(self, tmp_path):
        # the idle travel times come from the package's own label setting
        argv = ["run-graph", scenario("idle_ring.txt"), "--out", str(tmp_path)]
        assert self.after_import(
            "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')",
            then="assert randterm.cli.main(%r) == 0" % argv) == "[]"
        assert (tmp_path / "solution.csv").exists()

    def test_import_leaves_the_compiled_march_alone(self, tmp_path):
        # the native library (the compiled march and scanner) is looked for,
        # built and loaded by the first solve or graph load, never at
        # import, for the same reason
        assert self.after_import(
            "randterm.native.library.cache_info().misses, "
            "'subprocess' in sys.modules", XDG_CACHE_HOME=str(tmp_path)
        ) == "0 False"
        assert list(tmp_path.iterdir()) == []


class TestRandomGraph:
    @pytest.mark.parametrize("nodes", [0, -3, io.MAX_NODES + 1])
    def test_node_count_bound_exit_2(self, capsys, nodes):
        assert run("random-graph", "--nodes", str(nodes)) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert ("nodes %d outside [1, %d]" % (nodes, io.MAX_NODES)
                in captured.err)

    def test_generator_is_valid_and_deterministic(self):
        a = random_graph_problem(7)
        b = random_graph_problem(7)
        assert graph.validate(a) == []
        assert np.array_equal(a.K, b.K) and np.array_equal(a.p, b.p)
        assert np.array_equal(a.q, b.q)

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


# tokens a mutation may write: small node counts only (every graph is sized by
# its node count), values past int64 and float range, and stray keywords
FUZZ_TOKENS = ["-1", "0", "1", "2", "5", "12", "0.5", "-0.5", "1e-9", "nan",
               "inf", "-inf", "1e308", str(2 ** 64), "x", "#", "nodes", "p",
               "q", "edge", "lambda", "call"]


def _mutate(data, lines):
    """One edit of a scenario's token lines: drop or copy a line, write a
    token, or shift a number."""
    op = data.draw(st.sampled_from(["drop", "copy", "token", "number"]))
    k = data.draw(st.integers(0, len(lines) - 1))
    if op == "drop":
        del lines[k]
    elif op == "copy":
        lines.insert(data.draw(st.integers(0, len(lines))), list(lines[k]))
    else:
        m = data.draw(st.integers(0, len(lines[k]) - 1))
        tok = lines[k][m]
        if op == "token":
            lines[k][m] = data.draw(st.sampled_from(FUZZ_TOKENS))
        elif tok.lstrip("-").isdigit():
            lines[k][m] = str(int(tok) + data.draw(st.integers(-3, 3)))
        else:
            try:
                lines[k][m] = repr(float(tok) * data.draw(
                    st.sampled_from([-1.0, 0.0, 1e-9, 1e9])))
            except ValueError:
                pass


class TestFuzz:
    @settings(max_examples=150, deadline=None, derandomize=True,
              database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_mutated_graph_files_exit_cleanly(self, tmp_path, data):
        name = data.draw(st.sampled_from(["idle_ring.txt", "three_node_chain.txt",
                                          "two_node_cycle.txt",
                                          "subtle_motionless.txt"]))
        with open(scenario(name)) as fh:
            lines = [raw.split() for raw in fh if raw.strip()]
        for _ in range(data.draw(st.integers(1, 4))):
            _mutate(data, lines)
        bad = tmp_path / "fuzz.txt"
        bad.write_text("".join(" ".join(tok) + "\n" for tok in lines))
        # the compiled scanner reads the file as the Python loop does, or
        # refuses it and leaves it to that loop
        compiled, python = both_paths(lambda: read_lines(str(bad)))
        assert compiled == python
        argv = ["run-graph", str(bad), "--out", str(tmp_path / "out"),
                "--solver", data.draw(st.sampled_from(["dijkstra", "dial", "vi"]))]
        if data.draw(st.booleans()):
            argv += ["--p", "0.3"]
        # an exception escaping main() is a traceback at the command line
        assert main(argv) in (0, 2, 3, 4)


# JSON values a grid mutation may write: numbers at and past the edges of
# float range, strings, null and lists
GRID_FUZZ_VALUES = ["0", "1", "-1", "1" + "0" * 400, "NaN", "Infinity",
                    "-Infinity", '"x"', '"r"', "null", "[]", "[1]", "[0, 1]",
                    "[0, 1, 0, 1]"]


def _json_paths(node, path=()):
    """The path to every key of every object, and every item of every list,
    of a JSON document."""
    for k, v in node.items() if isinstance(node, dict) else enumerate(node):
        yield path + (k,)
        if isinstance(v, (dict, list)):
            yield from _json_paths(v, path + (k,))


class TestGridFuzz:
    @settings(max_examples=150, deadline=None, derandomize=True,
              database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_mutated_grid_files_exit_cleanly(self, tmp_path, data):
        name = data.draw(st.sampled_from(["maze.json", "radial_circular.json",
                                          "radial_trivial.json",
                                          "slow_disk.json"]))
        with open(scenario(name)) as fh:
            doc = json.load(fh)
        doc["grid"]["n"] = data.draw(st.sampled_from([2, 5, 11, 21]))
        center = "5,5" if doc["grid"]["extent"][0] == 0 else "0.8,0"
        for _ in range(data.draw(st.integers(1, 4))):
            paths = list(_json_paths(doc))
            if not paths:
                break
            *parents, key = data.draw(st.sampled_from(paths))
            node = doc
            for k in parents:
                node = node[k]
            if data.draw(st.booleans()):
                del node[key]
            else:
                node[key] = json.loads(
                    data.draw(st.sampled_from(GRID_FUZZ_VALUES)))
        bad = tmp_path / "fuzz.json"
        bad.write_text(json.dumps(doc))
        start = data.draw(st.sampled_from([center, "1e400,0", "nan,nan"]))
        argv = ["run-grid", str(bad), "--out", str(tmp_path / "out"),
                "--solver", data.draw(st.sampled_from(["fmm", "sweep"])),
                "--emit", "value", "--emit", "mask", "--emit", "boundary",
                "--emit", "trajectory:" + start]
        # an exception escaping main() is a traceback at the command line
        assert main(argv) in (0, 2, 3, 4)


class TestBenchmarkHooks:
    def test_perfbench_selftest(self):
        # the benchmark wraps randterm functions by name; a renamed one
        # fails its self-test
        root = os.path.join(os.path.dirname(__file__), "..")
        out = subprocess.run(
            [sys.executable, os.path.join(root, "perfbench", "selftest.py")],
            capture_output=True, text=True, timeout=300)
        assert out.returncode == 0, out.stdout + out.stderr
