import hashlib
import json
import math
import os
import random
import re
import sys
import tracemalloc
import types

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from randterm import eikonal, graph, idle, io, native
from randterm.cli import main, random_graph_problem
from randterm.grid import GridProblem, fmm_solve, motionless_set
from randterm.trajectory import TrajectoryPath, trace

from conftest import (JSON_SCENARIOS, SCENARIOS, bit_equal, both_paths,
                      graph_problem, problem_bytes, read_lines, scenario)


class TestLoadGraph:
    def test_chain_scenario(self):
        pb = io.load_graph(scenario("three_node_chain.txt"), default_p=0.1)
        assert pb.node_count == 3
        assert list(pb.q) == [1.0, 10.0, 0.0]
        sol = graph.dijkstra_solve(pb)
        assert np.allclose(sol.V, [min(1.0, 10 * 0.1), 0.0, 0.0])

    def test_file_p_overrides_default(self):
        pb = io.load_graph(scenario("two_node_cycle.txt"), default_p=0.3)
        assert pb.p[pb.edge(0, 1)] == 0.3  # file has no p line; default applies

    def test_missing_p_rejected(self):
        with pytest.raises(io.FormatError):
            io.load_graph(scenario("two_node_cycle.txt"))

    def test_parse_error_names_line(self, tmp_path):
        f = tmp_path / "bad.txt"
        f.write_text("nodes 2\nq 0 one\n")
        with pytest.raises(io.FormatError, match=r"bad\.txt:2"):
            io.load_graph(str(f), default_p=0.5)

    def test_out_of_range_edge(self, tmp_path):
        f = tmp_path / "bad.txt"
        f.write_text("nodes 2\nedge 0 5 1.0 0.5\n")
        with pytest.raises(io.FormatError, match="out of range"):
            io.load_graph(str(f))

    def test_missing_nodes_line(self, tmp_path):
        f = tmp_path / "bad.txt"
        f.write_text("q 0 1.0\n")
        with pytest.raises(io.FormatError, match="nodes"):
            io.load_graph(str(f), default_p=0.5)

    def test_comments_and_blank_lines(self, tmp_path):
        f = tmp_path / "ok.txt"
        f.write_text("# header\nnodes 2\nq 0 7.0\n\nq 0 3.0  # trailing\n"
                     "edge 0 1 1.0 0.5\n")
        pb = io.load_graph(str(f), default_p=0.5)
        assert pb.q[0] == 3.0  # the last q line of a node counts
        assert pb.K[pb.edge(0, 1)] == 1.0

    def test_rows_sorted_from_file_order(self, tmp_path):
        f = tmp_path / "ok.txt"
        f.write_text("nodes 3\nedge 2 0 4.0\nedge 0 2 3.0 0.25\n"
                     "edge 0 1 2.0\nedge 1 1 0.0 0.75\np 0.5\n")
        pb = io.load_graph(str(f))
        assert pb.indptr.tolist() == [0, 3, 4, 6]
        assert pb.dst.tolist() == [0, 1, 2, 1, 0, 2]
        assert pb.K.tolist() == [0.0, 2.0, 3.0, 0.0, 4.0, 0.0]
        # the last 'p' line is the default of every edge without a P
        assert pb.p.tolist() == [0.5, 0.5, 0.25, 0.75, 0.5, 0.5]
        assert pb.delta == 2.0

    def test_stated_self_loop_kept(self, tmp_path):
        f = tmp_path / "ok.txt"
        f.write_text("nodes 2\nedge 1 1 2.0 nan\nedge 0 1 1.0\n")
        pb = io.load_graph(str(f), default_p=0.5)
        assert pb.K[pb.edge(1, 1)] == 2.0
        assert math.isnan(pb.p[pb.edge(1, 1)])  # given, so no default
        assert graph.validate(pb) == ["A2 nonzero self-cost at node 1",
                                      "p out of (0,1) on edge (1,1)"]

    @pytest.mark.parametrize("text, message", [
        ("nodes 2\nedge 1 1 0.0\nedge 1 1 0.0\n", "bad.txt:3: duplicate edge (1,1)"),
        ("edge 0 1 1\nedge 0 1 2\n", "bad.txt:2: duplicate edge (0,1)"),
        ("nodes 2\nedge 0 1 1\nedge 0 %d 1\n" % 2 ** 64,
         "bad.txt:3: edge (0,%d) out of range" % 2 ** 64),
        ("nodes 2\nq 3 1.0\nedge 0 5 1\n", "bad.txt:2: q index 3 out of range"),
        ("nodes 2\nedge 0 5 1\nedge 0 1 1\n",
         "bad.txt:2: edge (0,5) out of range"),
        # the first edge without p in row order is an implicit loop, or a
        # stated edge, whose line is named
        ("nodes 3\nedge 2 0 1\nedge 0 2 1\n",
         "bad.txt: implicit self-loop (0,0) has no p and no default"),
        ("nodes 2\nedge 1 1 0 0.5\nedge 0 1 1\nedge 0 0 0\n",
         "bad.txt:4: edge (0,0) has no p and no default"),
        ("nodes 2\nedge 1 1 0 0.5\nedge 0 0 0 0.5\nedge 0 1 1\n",
         "bad.txt:4: edge (0,1) has no p and no default"),
    ], ids=["self-loop", "before-nodes", "past-int64", "q-first",
            "edge-range", "first-without-p", "stated-loop-without-p",
            "stated-edge-without-p"])
    def test_load_errors(self, tmp_path, text, message):
        f = tmp_path / "bad.txt"
        f.write_text(text)
        with pytest.raises(io.FormatError) as err:
            io.load_graph(str(f))
        assert message in str(err.value)

    def test_implicit_self_loops(self, tmp_path):
        f = tmp_path / "ok.txt"
        f.write_text("nodes 2\nedge 0 1 1.0 0.5\n")
        pb = io.load_graph(str(f), default_p=0.5)
        assert pb.K[pb.edge(0, 0)] == 0.0 and pb.K[pb.edge(1, 1)] == 0.0
        assert graph.validate(pb) == []


class TestIdleDetection:
    def test_idle_file(self):
        assert io.is_idle_scenario(scenario("idle_ring.txt"))

    def test_graph_file(self):
        assert not io.is_idle_scenario(scenario("three_node_chain.txt"))

    def test_load_idle_requires_lambda(self, tmp_path):
        f = tmp_path / "bad.txt"
        f.write_text("nodes 2\nedge 0 1 1.0\ncall 0 1.0\n")
        with pytest.raises(io.FormatError, match="needs 'lambda' and 'call'"):
            io.load_idle(str(f))

    @pytest.mark.parametrize("text, idle", [
        ("nodes 2\n# lambda 1.0\n", False),
        ("nodes 2\nq 0 1 # lambda 1.0\n", False),
        ("nodes 2\n  \tlambda 1.0\n", True),
        ("nodes 2\nlambda#x\n", True),
        ("nodes 2\nlambdax 1.0\n", False),
        ("nodes 2\r\nlambda 1.0\r\n", True),
        ("nodes 2\rlambda 1.0\r", True),
        ("nodes 2\nedge 0 1 lambda\nlambdax\nlambda", True),
        ("nodes 2\n\x1clambda 1.0\n", True),
        ("nodes 2\x1clambda 1.0\n", False),
        ("nodes 2\n\xa0lambda 1.0\n", True),
        ("nodes 2\nlambda\xa01.0\n", True),
        ("nodes 2\n\udcff 1\nlambda 1.0\n", True),
    ], ids=["comment", "trailing-comment", "leading-space", "hash-after",
            "longer-word", "crlf", "cr", "last-line", "fs-before",
            "fs-no-line-end", "nbsp-before", "nbsp-after",
            "undecodable-other-line"])
    def test_lambda_line_detection(self, tmp_path, text, idle):
        # \udcff writes the byte 0xff, which no line with lambda holds
        f = tmp_path / "sc.txt"
        f.write_bytes(text.encode(errors="surrogateescape"))
        assert io.is_idle_scenario(str(f)) is idle
        assert io.is_idle_scenario(str(f), f.read_bytes()) is idle

    def test_rows_with_self_loops(self, tmp_path):
        f = tmp_path / "sc.txt"
        f.write_text("nodes 3\nlambda 0.5\nedge 2 0 4.0\nedge 1 1 9.0\n"
                     "edge 0 2 3.0\nedge 0 1 2.0\ncall 2 0.25\ncall 0 0.75\n")
        sc = io.load_idle(str(f))
        assert sc.src.tolist() == [0, 0, 0, 1, 2, 2]
        assert sc.dst.tolist() == [0, 1, 2, 1, 0, 2]
        assert sc.tau.tolist() == [0.0, 2.0, 3.0, 9.0, 4.0, 0.0]
        assert sc.call_nodes.tolist() == [2, 0]
        assert sc.call_probs.tolist() == [0.25, 0.75]

    @pytest.mark.parametrize("text, message", [
        ("nodes 2\nlambda 1\nedge 0 1 1\nedge 0 1 2\ncall 0 1\n",
         "bad.txt:4: duplicate edge (0,1)"),
        ("nodes 2\nlambda 1\nedge 0 -1 1\ncall 0 1\n",
         "bad.txt:3: edge (0,-1) out of range"),
        ("nodes 2\nlambda 1\nedge 0 1 1\ncall 2 1\n",
         "bad.txt:4: call index 2 out of range"),
        ("nodes 2\nlambda 1\ncall %d 1\n" % 2 ** 63,
         "bad.txt:3: call index %d out of range" % 2 ** 63),
        ("nodes 2\nlambda 1\nedge 0 1 1 0.5\ncall 0 1\n",
         "bad.txt:3: cannot parse 'edge 0 1 1 0.5'"),
        ("lambda 1\nedge 0 1 1\ncall 0 1\n", "missing 'nodes' line"),
    ], ids=["duplicate", "edge-range", "call-range", "past-int64", "p-column",
            "no-nodes"])
    def test_load_idle_errors(self, tmp_path, text, message):
        f = tmp_path / "bad.txt"
        f.write_text(text)
        with pytest.raises(io.FormatError) as err:
            io.load_idle(str(f))
        assert message in str(err.value)


class TestScenarioLoad:
    """load_graph reads a graph or idle file once: it hashes the bytes,
    searches them for a lambda line only when scan.c refuses them under the
    graph grammar, and keeps no reference to them once they are scanned."""

    @pytest.fixture
    def searches(self, monkeypatch):
        calls = []
        search = io.is_idle_scenario
        monkeypatch.setattr(io, "is_idle_scenario", lambda *args: (
            calls.append(args[0]) or search(*args)))
        return calls

    @staticmethod
    def load(path, default_p=None):
        return io.load_graph(path, default_p, hashlib.sha256())

    @staticmethod
    def same(a, b):
        fields = [(k, np.asarray(v).dtype, np.asarray(v).tobytes())
                  for k, v in vars(a).items()]
        return fields == [(k, np.asarray(v).dtype, np.asarray(v).tobytes())
                          for k, v in vars(b).items()]

    @pytest.mark.usefixtures("compiled_march")
    def test_scanned_graph_file_is_not_searched(self, searches):
        pb = self.load(scenario("three_node_chain.txt"), 0.1)
        assert pb.q.tolist() == [1.0, 10.0, 0.0] and searches == []

    @pytest.mark.parametrize("text", ["nodes 2\r\nq 0 1.5\r\n",
                                      "nodes 2\nq 0 nan\n"])
    def test_refused_graph_file_is_searched(self, tmp_path, searches, text):
        f = tmp_path / "g.txt"
        f.write_bytes(text.encode())
        assert self.load(str(f), 0.5).node_count == 2
        assert searches == [str(f)]

    def test_idle_file_gives_its_problem(self, searches):
        path = scenario("idle_ring.txt")
        compiled, python = both_paths(lambda: (
            io.load_graph(path), idle.build_problem(io.load_idle(path))))
        for pb, expected in compiled, python:
            assert self.same(pb, expected)
        assert searches == [path, path]

    def test_idle_file_refuses_a_default_p(self):
        path = scenario("idle_ring.txt")

        def message():
            with pytest.raises(io.FormatError) as err:
                io.load_graph(path, 0.3)
            return str(err.value)

        assert both_paths(message) == (
            "%s: an idle file takes p from 'lambda'; a default p (--p) does "
            "not apply" % path,) * 2

    def test_no_library_searches_every_file(self, monkeypatch, searches):
        monkeypatch.setattr(native, "library", lambda: None)
        self.load(scenario("three_node_chain.txt"), 0.1)
        assert searches == [scenario("three_node_chain.txt")]

    def test_sha256_of_the_bytes(self):
        # each loader hashes the bytes it reads, on both paths
        loads = {"three_node_chain.txt": lambda path, h:
                 io.load_graph(path, 0.1, h),
                 "idle_ring.txt": lambda path, h: io.load_graph(path, None, h),
                 "slow_disk.json": lambda path, h:
                 io.load_grid_scenario(path, None, 21, h)}
        for name, load in loads.items():
            path = scenario(name)
            with open(path, "rb") as fh:
                expected = hashlib.sha256(fh.read()).hexdigest()

            def digest():
                h = hashlib.sha256()
                load(path, h)
                return h.hexdigest()

            assert both_paths(digest) == (expected, expected)

    def test_bytes_freed_once_scanned(self, tmp_path, monkeypatch):
        # no frame of run-graph holds the file's bytes while the arrays are
        # built, so nothing keeps them alive
        path = tmp_path / "g.txt"
        assert main(["random-graph", "--nodes", "200", "--out",
                     str(path)]) == 0
        size, held = path.stat().st_size, []
        assemble = io._assemble

        def spy(*args):
            frame = sys._getframe(1)
            while frame is not None:
                held.extend(frame.f_code.co_name
                            for v in frame.f_locals.values()
                            if isinstance(v, bytes) and len(v) == size)
                frame = frame.f_back
            return assemble(*args)

        monkeypatch.setattr(io, "_assemble", spy)
        assert main(["run-graph", str(path), "--out",
                     str(tmp_path / "out")]) == 0
        assert held == []


def twin_and_pass(text, default_p):
    """(twin, pass): what io._graph_problem of io._read_lines, the Python
    twin, and io._assemble, the compiled pass, make of a graph file's rows,
    as problem_bytes compares them; the twin's FormatError message, and the
    pass's None when it refuses the file.  Both get the one default p that
    io.load_graph chooses: the file's p line, else default_p."""
    data = text.encode()
    scanned = io._scan(data, *io._GRAPH) or io._parse("g.txt", data,
                                                      *io._GRAPH)
    default_p = default_p if scanned[1] is None else scanned[1]
    try:
        twin = problem_bytes(io._graph_problem(
            "g.txt", io._read_lines("g.txt", scanned, "q"), default_p))
    except io.FormatError as exc:
        twin = str(exc)
    made = io._assemble(scanned, default_p)
    return twin, None if made is None else problem_bytes(made)


@st.composite
def graph_files(draw):
    """The text of a graph file of at most 12 nodes: q lines (a node's
    repeated at times), edge lines with and without p, self-loops stated or
    not, a p line at times, all in any order; now and then a missing nodes
    line, an index out of range or a repeated edge.  At most 12 nodes, so
    no row is far enough from (i, j) order for assemble() to refuse it on
    that ground alone (see scan.c)."""
    M = draw(st.integers(1, 12))
    index = st.integers(0, M - 1)
    # scan.c reads the files without nan and inf; _parse the others
    value = st.sampled_from(["0", "-0.0", "1.5", "0.1", "7e-3", "2.5e300",
                             "0.30000000000000004"] + draw(st.sampled_from(
                                 [[], ["nan", "inf"]])))
    pairs = draw(st.lists(st.tuples(index, index), unique=True, max_size=30))
    if pairs and draw(st.integers(0, 9)) == 9:
        pairs.append(draw(st.sampled_from(pairs)))  # repeated (i, j)
    lines = ["edge %d %d %s%s" % (i, j, draw(value), draw(
        st.sampled_from(["", " 0.25", " 0.5", " " + draw(value)])))
        for i, j in pairs]
    lines += ["q %d %s" % (i, draw(value))
              for i in draw(st.lists(index, max_size=2 * M))]
    lines += ["p %s" % v for v in draw(st.lists(
        st.sampled_from(["0.75", "nan", "1e-9"]), max_size=2))]
    if draw(st.integers(0, 9)) < 9:
        lines.append("nodes %d" % M)
    if lines and draw(st.integers(0, 9)) == 9:
        at = draw(st.integers(0, len(lines) - 1))
        if lines[at].startswith(("edge", "q")):  # an index out of range
            tok = lines[at].split()
            tok[1] = str(draw(st.sampled_from([-1, M, M + 5, 2 ** 62])))
            lines[at] = " ".join(tok)
    return "".join("%s\n" % line for line in draw(st.permutations(lines)))


@pytest.mark.usefixtures("compiled_march")
class TestAssemble:
    """assemble() of scan.c builds the CSR arrays of a graph file bit for
    bit as io._read_lines and io._graph_problem, its Python twin, do, or
    refuses the file, which the twin then reads or names the fault of."""

    @pytest.mark.parametrize("name", sorted(
        name for name in os.listdir(SCENARIOS) if name.endswith(".txt")))
    @pytest.mark.parametrize("default_p", [None, 0.3, math.nan])
    def test_scenarios(self, name, default_p):
        path = scenario(name)
        compiled, python = both_paths(lambda: graph_problem(path, default_p))
        assert compiled == python
        if not io.is_idle_scenario(path):
            with open(path) as fh:
                twin, made = twin_and_pass(fh.read(), default_p)
            assert made == (None if isinstance(twin, str) else twin)

    @settings(max_examples=300, deadline=None, derandomize=True,
              database=None)
    @given(graph_files(), st.sampled_from([None, 0.5, math.nan]))
    @example("nodes 3\nedge 2 0 1\nedge 0 2 1 0.5\nedge 1 1 0 0.5\n", 0.5)
    @example("nodes 2\nq 1 1\nq 1 2\nq 0 3\nq 1 -0.0\n", 0.5)
    @example("nodes 2\np 0.75\nedge 1 0 2\nedge 0 1 1\n", None)
    def test_equals_the_twin(self, tmp_path_factory, text, default_p):
        twin, made = twin_and_pass(text, default_p)
        # the pass refuses just the files that the twin names a fault of
        assert made == (None if isinstance(twin, str) else twin)
        path = tmp_path_factory.getbasetemp() / "g.txt"
        path.write_text(text)
        compiled, python = both_paths(lambda: graph_problem(str(path),
                                                            default_p))
        assert compiled == python

    @pytest.mark.parametrize("text, default_p, message", [
        ("q 0 1\nedge 0 0 0 0.5\n", 0.5, "g.txt: missing 'nodes' line"),
        ("nodes 2\nedge 0 2 1 0.5\n", 0.5,
         "g.txt:2: edge (0,2) out of range"),
        ("nodes 2\nedge -1 0 1 0.5\n", 0.5,
         "g.txt:2: edge (-1,0) out of range"),
        ("nodes 2\nq 0 1\nq 2 1\n", 0.5, "g.txt:3: q index 2 out of range"),
        ("nodes 2\nedge 1 0 1\nedge 0 1 1\nedge 1 0 2\n", 0.5,
         "g.txt:4: duplicate edge (1,0)"),
        ("nodes 2\nedge 1 1 0\nedge 1 1 0\n", 0.5,
         "g.txt:3: duplicate edge (1,1)"),
        ("nodes 2\nedge 0 0 0 0.5\nedge 1 1 0 0.5\nedge 1 0 1\n", None,
         "g.txt:4: edge (1,0) has no p and no default"),
        ("nodes 2\nedge 0 0 0 0.5\nedge 1 0 1 0.5\n", None,
         "g.txt: implicit self-loop (1,1) has no p and no default"),
    ], ids=["no-nodes", "edge-range", "negative", "q-range", "duplicate",
            "duplicate-loop", "stated-without-p", "implicit-without-p"])
    def test_refused_with_the_twins_message(self, tmp_path, text, default_p,
                                            message):
        assert twin_and_pass(text, default_p) == (message, None)
        path = tmp_path / "g.txt"
        path.write_text(text)
        compiled, python = both_paths(lambda: graph_problem(str(path),
                                                            default_p))
        assert compiled == python and compiled.endswith(message)

    def test_p_line_or_nan_default(self):
        # a p line replaces the default; --p nan is a default p, which
        # validate then reports
        text = "nodes 2\nedge 1 0 2\nedge 0 1 1 0.25\n"
        _, made = twin_and_pass(text + "p 0.75\n", None)
        assert made[1][3] == ("<f8", np.array([0.75, 0.25, 0.75, 0.75])
                              .tobytes())
        twin, made = twin_and_pass(text, math.nan)
        assert made == twin and np.isnan(
            np.frombuffer(made[1][3][1])).tolist() == [True, False, True, True]

    def test_rows_far_from_order_are_left_to_the_twin(self, tmp_path):
        # row 0 written backwards: 4,851 moves to sort it by insertion,
        # past the 8 an edge on average that assemble() allows
        M = 100
        text = "nodes %d\n%s" % (M, "".join(
            "edge 0 %d 1.0 0.5\n" % j for j in range(M - 1, 0, -1)))
        twin, made = twin_and_pass(text, 0.5)
        assert made is None and not isinstance(twin, str)
        path = tmp_path / "g.txt"
        path.write_text(text)
        compiled, python = both_paths(lambda: graph_problem(str(path), 0.5))
        assert compiled == python == twin
        # every row's loop written first, as perfbench writes them, and
        # short rows in any order are taken
        text = "nodes %d\n%s" % (M, "".join(
            "edge %d %d 0.0 0.5\nedge %d %d 1 0.5\nedge %d %d 2 0.5\n"
            % (i, i, i, (i + 7) % M, i, (i + 3) % M) for i in range(M)))
        twin, made = twin_and_pass(text, None)
        assert made == twin and not isinstance(twin, str)

    def test_random_graph_file(self, tmp_path):
        path = str(tmp_path / "random.txt")
        assert main(["random-graph", "--seed", "4", "--nodes", "300",
                     "--out", path]) == 0
        with open(path) as fh:
            twin, made = twin_and_pass(fh.read(), None)
        assert made == twin and twin[0] == 300
        assert twin == problem_bytes(random_graph_problem(4, nodes=300))


GRAMMARS = {"graph": ("p", "q", (4, 5)), "idle": ("lambda", "call", (4,))}

# decimal strings of the compiled scanner's float grammar,
# [+-]digits[.digits][(e|E)[+-]digits]
SIGN, DIGITS = st.sampled_from(["", "+", "-"]), st.text("0123456789", min_size=1,
                                                        max_size=30)
DECIMALS = st.builds("{}{}{}{}".format, SIGN, DIGITS, st.just("") | DIGITS.map(
    ".{}".format), st.just("") | st.builds("{}{}{}".format, st.sampled_from(
        "eE"), SIGN, st.text("0123456789", min_size=1, max_size=4)))


def scan(text, kind="graph"):
    """io._scan of a file's text: what the compiled scanner reads, or None
    when it refuses the file."""
    return io._scan(text.encode(), *GRAMMARS[kind])


@pytest.mark.usefixtures("compiled_march")
class TestScanner:
    """The compiled scanner (scan.c) reads what the Python loop reads, bit
    for bit, or refuses the file and leaves it to that loop."""

    @pytest.mark.parametrize("name", ["idle_ring.txt", "three_node_chain.txt",
                                      "two_node_cycle.txt",
                                      "subtle_motionless.txt", "random"])
    def test_scenarios_take_the_compiled_path(self, tmp_path, name):
        path = scenario(name)
        if name == "random":
            path = str(tmp_path / "random.txt")
            assert main(["random-graph", "--seed", "4", "--nodes", "300",
                         "--out", path]) == 0
        with open(path) as fh:
            assert scan(fh.read(), "idle" if "idle" in name else "graph")
        compiled, python = both_paths(lambda: read_lines(path))
        assert compiled == python

    @pytest.mark.parametrize("text", [
        "nodes 3\t# tab, then a comment\n\n  \tq 2 -1.5e+3#no space\n"
        "p 0.25\nedge +0 -0 0 0.5\nedge 0 2 7E-2\nedge 2 0 1.0 1",
        "nodes 2\nq 1 1e400\nq 0 -0.0\nq 0 5e-324\np 1\np 0.5\n",
        "nodes 2\nedge 0 9 1 0.5\n",
        "nodes 2\nedge 0 1 1 0.5\nedge 0 1 2 0.5\n",
        "q 0 1.0\n",
        "# nothing\n",
    ], ids=["tabs-comments-signs-no-final-newline", "range-edges-last-wins",
            "index-out-of-range", "duplicate", "no-nodes", "empty"])
    def test_accepted(self, tmp_path, text):
        f = tmp_path / "g.txt"
        f.write_bytes(text.encode())
        assert scan(text) is not None
        compiled, python = both_paths(lambda: read_lines(str(f)))
        assert compiled == python

    @pytest.mark.parametrize("text, check", [
        ("nodes 2\nq 0 nan\n", lambda pb: math.isnan(pb.q[0])),
        ("nodes 2\nedge 0 1 inf 0.5\n",
         lambda pb: pb.K[pb.edge(0, 1)] == math.inf),
        ("nodes 1_0\n", lambda pb: pb.node_count == 10),
        ("nodes 2\np .5\n", lambda pb: np.all(pb.p == 0.5)),
        ("nodes 2  # caf\u00e9\n", lambda pb: pb.node_count == 2),
        ("nodes 2\r\nq 0 1.5\r\n", lambda pb: pb.q[0] == 1.5),
        ("nodes 2\x0c\nq\x0c0 1.5\n", lambda pb: pb.q[0] == 1.5),
        ("nodes 2\nedge 0 %d 1\n" % 2 ** 63,
         "g.txt:2: edge (0,%d) out of range" % 2 ** 63),
    ], ids=["nan", "inf", "underscore", "no-leading-digit",
            "non-ascii-comment", "crlf", "form-feed", "int64-overflow"])
    def test_refused_and_left_to_python(self, tmp_path, text, check):
        f = tmp_path / "g.txt"
        f.write_bytes(text.encode())
        assert scan(text) is None
        if isinstance(check, str):
            with pytest.raises(io.FormatError) as err:
                io.load_graph(str(f), default_p=0.5)
            assert str(err.value).endswith(check)
        else:
            assert check(io.load_graph(str(f), default_p=0.5))

    @pytest.mark.parametrize("text", [
        "nodes 2\nq 0\n", "nodes 2\nedge 0 1\n", "nodes 2\nedge 0 1 1 1 1\n",
        "nodes 0\n", "nodes %d\n" % (io.MAX_NODES + 1), "nodes 2\nq 0.0 1\n",
        "nodes 2\nq 0 1.\n", "nodes 2\nq 0 1e\n", "nodes 2\nq 0 0x10\n",
        "nodes 2\nedges 0 1 1\n", "nodes 2\np\n", "nodes 2\nlambda 1\n",
        "nodes 2\nq 0 1\x00\n", "nodes 2\nq 0 1\x7f\n",
        "nodes 00000000000000000002\n",
    ])
    def test_refused_lines(self, text):
        assert scan(text) is None

    def test_idle_grammar(self):
        text = "nodes 2\nlambda 0.5\nedge 0 1 2.0\ncall 1 1\n"
        assert scan(text, "idle") is not None
        assert scan(text) is None  # lambda and call are no graph keywords
        assert scan("nodes 2\nlambda 1\nedge 0 1 1 0.5\n", "idle") is None

    def test_arrays_sized_by_rows(self):
        M, value, lines, *arrays = scan("# c\n" * 100000
                                        + "nodes 2\nedge 0 1 1.0 0.5\n")
        assert (M, value, lines.tolist()) == (2, None, [100002])
        assert [a.size for a in arrays] == [1] * 5

    @pytest.mark.parametrize("rows, read", [(8, True), (9, False)])
    def test_rows_up_to_the_capacity(self, rows, read):
        # a nodes line of 8 bytes and rows of 6: 8 or 9 rows make 56 or 62
        # bytes, a capacity of 8 rows either way
        text = "nodes 1\n" + "q 0 0\n" * rows
        assert len(text) // io._ROW_BYTES + 1 == 8
        assert (scan(text) is not None) == read

    @pytest.fixture
    def caps(self, monkeypatch):
        """The row capacity of each call of scan.c's scan()."""
        lib, caps = native.library(), []

        class Spy:
            def scan(self, *args):
                caps.append(args[6])
                return lib.scan(*args)

        monkeypatch.setattr(native, "library", Spy)
        return caps

    def test_arrays_reserve_a_multiple_of_the_bytes(self, caps):
        # sized by the byte count, never by a number written in the file:
        # 41 bytes of arrays a row
        text = "# c\n" * 100000 + "nodes 2\nedge 0 1 1.0 0.5\n"
        assert scan(text)[2].size == 1
        assert len(caps) == 1 and 41 * caps[0] <= 6 * len(text)

    def test_more_rows_than_the_first_capacity(self, caps):
        # rows of 6 bytes, fewer than io._ROW_BYTES a row: scan.c is called
        # once, refuses the file past the capacity of its arrays, and the
        # Python loop reads it
        text = "nodes 3\n" + "q 1 5\nq 2 0\nq 0 -0\n" * 5000
        assert scan(text) is None
        assert caps == [len(text) // io._ROW_BYTES + 1]
        M, value, lines, *_ = io._parse("g.txt", text.encode(), *io._GRAPH)
        assert (M, value, lines.size) == (3, None, 15000)

    @pytest.mark.parametrize("text, read", [
        ("nodes 2\nq 0 1.5#c\nq 1\t-2e3\t# tab\n", True),
        ("nodes 2#c\nedge 0 1\t2.5#c\nedge\t1\t0\t1e-3\t0.25#", True),
        ("nodes 2\nq 0\t7#c\nq 1 1e+1\t", True),
        ("nodes 2\nq 0 1.5x\n", False),
        ("nodes 2\nq 0 2e+\n", False),
        ("nodes 2\nq 0 2e+", False),
        ("nodes 2\nq 0 1e", False),
        ("nodes 2\nq 0x 1.5\n", False),
        ("nodes 2\nedge 0 1 2.5 0.5x\n", False),
        ("nodes 2x\n", False),
        ("nodes 2\nedge 0 1-1 2\n", False),
        ("nodes 2\nedge 0 1 1.5+2\n", False),
    ])
    def test_number_ends(self, tmp_path, text, read):
        # a number ends where a token does, at a space, tab, #, \n or the
        # end of the file; any other byte after it refuses the file
        f = tmp_path / "g.txt"
        f.write_bytes(text.encode())
        assert (scan(text) is not None) == read
        compiled, python = both_paths(lambda: read_lines(str(f)))
        assert compiled == python
        if not read:  # _parse's message
            assert "cannot parse" in python

    @settings(max_examples=150, deadline=None, derandomize=True,
              database=None)
    @given(st.lists(st.one_of(DECIMALS, st.floats(
        allow_nan=False, allow_infinity=False).map(repr)), min_size=1,
        max_size=40))
    @example(["4.9e-324",  # the least subnormal
              "2.4703282292062327e-324",  # just under half of it: 0
              "2.4703282292062328e-324",  # just over: the least subnormal
              "2.2250738585072011e-308",  # a hard case by the least normal
              "1.7976931348623158e308",  # rounds to the largest double
              "1e400", "-1e400", "-0.0", "-1e-400",
              "9007199254740993",  # 2^53 + 1: ties to even
              "1e99999999999999999999", "0." + "0" * 400 + "1"])
    # the edges of scan.c's exact path: 19 significant digits at most, and
    # exponents within +-19
    @example(["9999999999999999999", "18446744073709551615",
              "-9.999999999999999999e-1", "1.0000000000000000001"])
    @example(["1e19", "1e-19", "1e20", "1e-20", "9999999999999999999e19",
              "1e-0000000000000000000000019", "123.456e-17"])
    @example(["0e5", "-0.0", "-0e-99999", "0" * 25 + "1.5",
              "0." + "0" * 25 + "17", "-" + "0" * 30 + "." + "0" * 30])
    @example(["4503599627370496.5",  # 2^52 + 1/2: ties to even, down
              "4503599627370497.5",  # 2^52 + 3/2: ties to even, up
              "9007199254740993.0",  # 2^53 + 1 with a dot: down
              "0.30000000000000001", "1.7976931348623157e19"])
    # a long fraction moves e far from the exponent written: an exponent of
    # 1000 or more goes to strtod whatever the fraction
    @example(["0." + "0" * 99 + "1e1000", "-0." + "0" * 118 + "1e1234",
              "0." + "0" * 999 + "1e1000", "0." + "0" * 99 + "1e100",
              "1" + "0" * 999 + "e-1000", "0e1000", "-0.0e-99999"])
    def test_float_bits_equal_python(self, decimals):
        x = scan("nodes 1\n" + "".join("q 0 %s\n" % s for s in decimals))[5]
        assert bit_equal(x, [float(s) for s in decimals])

    def test_fuzz_floats_equal_python(self):
        # 200,000 decimals through one scan: 1 to 20 digits with a dot
        # anywhere, exponents within +-25 and signs, and the reprs of
        # doubles scaled by 10^-22 to 10^22
        rng = random.Random(17)
        decimals = []
        for _ in range(200000):
            if rng.random() < 0.25:
                s = repr(rng.uniform(-1, 1) * 10.0 ** rng.randint(-22, 22))
            else:
                s = "%d" % rng.randrange(10 ** rng.randint(1, 20))
                if rng.random() < 0.6:
                    k = rng.randint(1, len(s))
                    s = s[:k] + "." + (s[k:] or "0")
                if rng.random() < 0.5:
                    s += "%s%+d" % (rng.choice("eE"), rng.randint(-25, 25))
                s = rng.choice(("", "+", "-")) + s
            decimals.append(s)
        x = scan("nodes 1\n" + "".join("q 0 %s\n" % s for s in decimals))[5]
        assert bit_equal(x, [float(s) for s in decimals])

    @pytest.mark.parametrize("text", ["%d" % -2 ** 63, "%d" % (2 ** 63 - 1),
                                      "-0", "+0000000000000000042"])
    def test_int_equal_python(self, text):
        assert scan("nodes 1\nq %s 1\n" % text)[3].tolist() == [int(text)]

    @pytest.mark.parametrize("text", ["%d" % 2 ** 63, "%d" % (-2 ** 63 - 1),
                                      "+%d" % 2 ** 63, "99999999999999999999"])
    def test_int_past_int64_refused(self, text):
        assert scan("nodes 1\nq %s 1\n" % text) is None


class TestGridScenario:
    def test_radial_scenarios(self):
        pb = io.load_grid_scenario(scenario("radial_trivial.json"))
        assert pb.grid.nx == pb.grid.ny == 101
        assert pb.grid.origin == (-2.0, -2.0)
        X, Y = np.meshgrid(pb.grid.xs(), pb.grid.ys())
        assert np.allclose(pb.q, np.hypot(X, Y))
        assert np.allclose(pb.K, 0.0)
        pb2 = io.load_grid_scenario(scenario("radial_circular.json"))
        assert np.allclose(pb2.K, np.hypot(X, Y))

    def test_overrides(self):
        pb = io.load_grid_scenario(scenario("radial_trivial.json"),
                                   lam=7.0, n=51)
        assert pb.grid.nx == 51
        assert np.allclose(pb.lam, 7.0)

    def test_calls_build_q(self):
        pb = io.load_grid_scenario(scenario("slow_disk.json"))
        with open(scenario("slow_disk.json")) as fh:
            calls = json.load(fh)["calls"]
        assert len(calls) == 4
        assert np.array_equal(pb.q, eikonal.response_cost(
            pb.grid, pb.f, eikonal.CallSpec(
                [tuple(c["location"]) for c in calls],
                [c["prob"] for c in calls])))
        assert np.all(np.isfinite(pb.q))
        # q vanishes only if a single call sits at that point; here it is a mix
        assert pb.q.min() > 0.0

    @pytest.mark.parametrize("name", JSON_SCENARIOS)
    def test_one_problem_per_load(self, monkeypatch, name):
        # a calls scenario too: its travel times go into the one problem's q
        built, check = [], GridProblem.__post_init__

        def spy(problem):
            built.append(problem)
            check(problem)

        monkeypatch.setattr(GridProblem, "__post_init__", spy)
        pb = io.load_grid_scenario(scenario(name))
        assert len(built) == 1 and built[0] is pb

    def test_fields_at_their_information_size(self):
        # radial_circular: f and lambda constants, K and q one read-only
        # radius grid; a calls scenario's q one writable grid
        pb = io.load_grid_scenario(scenario("radial_circular.json"))
        assert pb.f.strides == pb.lam.strides == (0, 0)
        assert np.shares_memory(pb.K, pb.q) and pb.K.strides == (8 * 101, 8)
        with pytest.raises(ValueError, match="read-only"):
            pb.q[0, 0] = 0.0
        pb = io.load_grid_scenario(scenario("slow_disk.json"))
        assert pb.K.strides == pb.lam.strides == (0, 0)
        assert pb.q.flags.writeable and pb.q.strides == (8 * pb.grid.nx, 8)

    def test_overflowing_travel_time_refused(self, tmp_path):
        # h / f = inf: every travel time but the call's overflows
        doc = {"grid": {"extent": [0, 1, 0, 1], "n": 11}, "lambda": 1.0,
               "f": 1e-310, "calls": [{"location": [0.5, 0.5], "prob": 1.0}]}
        f = tmp_path / "slow.json"
        f.write_text(json.dumps(doc))
        with pytest.raises(io.FormatError, match="^%s: 'calls': .* not "
                           "finite" % re.escape(str(f))):
            io.load_grid_scenario(str(f))

    # One float grid of the 801^2 radial case is 8 * 801^2 bytes (5.1 MB).
    # load_grid_scenario keeps K = q, one radius grid (two when each field
    # built its own), and peaks at 1.75 grids (2.75 with two radius grids,
    # 7.7 when f and lambda were full grids and fields were meshgrid-built);
    # fmm_solve keeps V, the int32 acceptance order and the bool motionless
    # set, 13 bytes a point (17 with an int64 order), and peaks at 2.3
    # grids above its entry with bool temporaries (2.6 with an int64 order,
    # 5.4 when the motionless set was found at once).
    GRID_BYTES = 8 * 801 ** 2

    @staticmethod
    def traced(run):
        """(peak, kept) bytes that run() allocates, by tracemalloc."""
        tracemalloc.start()
        try:
            entry = tracemalloc.get_traced_memory()[0]
            run()
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak - entry, kept - entry

    def test_radial_801_load_memory(self):
        peak, kept = self.traced(lambda: io.load_grid_scenario(
            scenario("radial_circular.json"), None, 801))
        assert peak < 3 * self.GRID_BYTES
        assert kept < 1.1 * self.GRID_BYTES

    @pytest.mark.usefixtures("compiled_march")
    def test_slow_disk_401_load_memory(self):
        # a calls load keeps f and q, 2.01 grids, and peaks at 3.64 while a
        # call's travel times are scaled and added into q (4.02 when each
        # call made a scaled copy of them, 4.64 when each was kept until the
        # next solve had made its own)
        grid_bytes = 8 * 401 ** 2
        peak, kept = self.traced(lambda: io.load_grid_scenario(
            scenario("slow_disk.json"), None, 401))
        assert peak <= 3.8 * grid_bytes
        assert kept < 2.1 * grid_bytes

    @pytest.mark.usefixtures("compiled_march")
    def test_radial_801_fmm_memory(self):
        pb = io.load_grid_scenario(scenario("radial_circular.json"), None, 801)
        solutions = []
        peak, kept = self.traced(lambda: solutions.append(fmm_solve(pb)))
        assert peak < 3 * self.GRID_BYTES
        assert kept < 1.7 * self.GRID_BYTES

    def test_maze_scenario(self):
        pb = io.load_grid_scenario(scenario("maze.json"))
        # wall region is slow and expensive, not masked
        j, i = pb.grid.nearest_index((3.2, 3.0))
        assert pb.f[j, i] == pytest.approx(0.2)
        assert pb.K[j, i] == pytest.approx(6.0)

    def test_q_and_calls_conflict(self, tmp_path):
        doc = {"grid": {"extent": [0, 1, 0, 1], "n": 11}, "lambda": 1.0,
               "q": 1.0, "calls": [{"location": [0.5, 0.5], "prob": 1.0}]}
        f = tmp_path / "bad.json"
        f.write_text(json.dumps(doc))
        with pytest.raises(io.FormatError):
            io.load_grid_scenario(str(f))

    def test_missing_terminal_cost(self, tmp_path):
        doc = {"grid": {"extent": [0, 1, 0, 1], "n": 11}, "lambda": 1.0}
        f = tmp_path / "bad.json"
        f.write_text(json.dumps(doc))
        with pytest.raises(io.FormatError):
            io.load_grid_scenario(str(f))

    def test_unequal_spacing_rejected(self, tmp_path):
        doc = {"grid": {"extent": [0, 2, 0, 1], "nx": 11, "ny": 11},
               "lambda": 1.0, "q": 1.0}
        f = tmp_path / "bad.json"
        f.write_text(json.dumps(doc))
        with pytest.raises(io.FormatError):
            io.load_grid_scenario(str(f))

    def test_csv_field_round_trip(self, tmp_path):
        arr = np.arange(12.0).reshape(3, 4) / 7.0
        io.write_field_csv(str(tmp_path / "field.csv"), arr)
        doc = {"grid": {"extent": [0, 3, 0, 2], "nx": 4, "ny": 3},
               "lambda": 1.0, "q": {"csv": "field.csv"}}
        (tmp_path / "sc.json").write_text(json.dumps(doc))
        pb = io.load_grid_scenario(str(tmp_path / "sc.json"))
        assert np.array_equal(pb.q, arr)

    def test_csv_field_memory(self, tmp_path):
        # each row becomes a float64 array as it is read: the rows and the
        # grid made of them, about 2 grids (5.2 when every cell was first a
        # Python float in a list)
        arr = np.random.default_rng(3).uniform(-9.0, 9.0, (401, 401))
        path = str(tmp_path / "field.csv")
        io.write_field_csv(path, arr)
        fields = []
        peak, _ = self.traced(lambda: fields.append(io.read_field_csv(path)))
        assert peak <= 2.5 * arr.nbytes
        assert bit_equal(fields[0], arr)


class TestWriters:
    def test_field_csv_byte_identical(self, tmp_path):
        rng = np.random.default_rng(0)
        arr = rng.standard_normal((5, 7))
        arr[0, 0] = math.inf
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        io.write_field_csv(str(a), arr)
        io.write_field_csv(str(b), arr)
        assert a.read_bytes() == b.read_bytes()
        back = io.read_field_csv(str(a))
        assert np.array_equal(back, arr)

    def test_graph_solution_csv(self, tmp_path):
        pb = io.load_graph(scenario("three_node_chain.txt"), default_p=0.1)
        sol = graph.dijkstra_solve(pb)
        out = tmp_path / "sol.csv"
        io.write_graph_solution(str(out), pb, sol)
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "node,V,q,motionless,policy_successor"
        assert len(lines) == 4
        first = lines[1].split(",")
        assert float(first[1]) == sol.V[0]

    def test_mask_and_points_csv(self, tmp_path):
        io.write_mask_csv(str(tmp_path / "m.csv"), np.eye(3, dtype=bool))
        assert (tmp_path / "m.csv").read_text().strip().splitlines() == [
            "1,0,0", "0,1,0", "0,0,1"]
        io.write_points_csv(str(tmp_path / "p.csv"), [(1.0, 2.0)])
        assert (tmp_path / "p.csv").read_text().strip().splitlines() == [
            "x,y", "1.0,2.0"]

    def test_trajectory_csv(self, tmp_path):
        traj = TrajectoryPath(points=np.array([[0.0, 0.0], [0.5, 0.25]]),
                              values=np.array([1.0, 0.5]))
        io.write_trajectory_csv(str(tmp_path / "t.csv"), traj)
        assert (tmp_path / "t.csv").read_text().strip().splitlines() == [
            "x,y,V", "0.0,0.0,1.0", "0.5,0.25,0.5"]

    def test_convergence_csv(self, tmp_path):
        rows = [("101x101", 0.1, 0.01, 0.2, None), ("201x201", 0.05, 0.005, 0.1, 1.0)]
        io.write_convergence_csv(str(tmp_path / "c.csv"), rows)
        lines = (tmp_path / "c.csv").read_text().strip().splitlines()
        assert lines[0] == "grid,line_Linf,L2,Linf,order"
        assert lines[1].endswith(",")
        assert lines[2].endswith(",1.0")


def written(tmp_path, write, *args):
    """(compiled, python): the bytes write(path, *args) writes on the native
    library (csv.c) and on the Python twin (io._write_csv)."""
    path = tmp_path / "out.csv"

    def run():
        write(str(path), *args)
        return path.read_bytes()

    return both_paths(run)


def csv_rows(rows):
    """The bytes io promises for rows: ",".join(map(str, row)) + "\\r\\n"."""
    return "".join(",".join(map(str, row)) + "\r\n" for row in rows).encode()


# Floats down every branch of csv.c and io._write_table.
EDGE_FLOATS = [
    0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324,
    2.2250738585072014e-308, 1.7976931348623157e308, -1.7976931348623157e308,
    9.99e-5, 1e-4, -1e-4, math.nextafter(1e-4, 0), math.nextafter(1e-4, 1),
    0.001, 0.1, 0.2, 0.3, 1 / 3, 2 / 3, 1.0, -1.5, 100.0, 123.456,
    2.0 ** 53 - 1, 2.0 ** 53, -2.0 ** 53, 2.0 ** 53 + 2, 1e15, 1e16, 1e17,
    9999999999999998.0, 1e22, 1e-5, 123456789.0, 0.30000000000000004,
    # ties between two shortest candidates go to the even digit
    2.0 ** 50 + 0.25, 2108612665307.90625, 2.0 ** 49 + 0.125,
    # powers of two (the m = 2^52 gap below is half the one above) and the
    # doubles beside them, across the fast range of csv.c
    *(v for k in range(-15, 55) for v in (
        2.0 ** k, math.nextafter(2.0 ** k, 0),
        math.nextafter(2.0 ** k, math.inf))),
    # the doubles beside short decimals
    *(v for d in (0.001, 0.125, 1.1, 9.995, 33.333, 1e-3 + 1e-4, 4.35, 0.3)
      for v in (math.nextafter(d, 0), math.nextafter(d, math.inf))),
]


@pytest.mark.usefixtures("compiled_march")
class TestCompiledWriter:
    """Every io.write_* user but write_convergence_csv writes the same bytes
    through csv.c as through the Python loop, which io.read_field_csv reads
    back to the same doubles."""

    def test_edge_floats(self, tmp_path):
        field = np.reshape(EDGE_FLOATS, (-1, 1))
        compiled, python = written(tmp_path, io.write_field_csv, field)
        assert python == csv_rows(field.tolist())
        assert compiled.split(b"\r\n") == python.split(b"\r\n")

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.lists(st.floats(width=64), min_size=1, max_size=60),
           st.integers(1, 7))
    def test_any_floats(self, tmp_path_factory, values, cols):
        field = np.resize(values, (-(-len(values) // cols), cols))
        compiled, python = written(tmp_path_factory.getbasetemp(),
                                   io.write_field_csv, field)
        assert compiled == python == csv_rows(field.tolist())

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=60))
    def test_any_bit_patterns(self, tmp_path_factory, bits):
        field = np.array(bits, np.uint64).view(np.float64).reshape(1, -1)
        compiled, python = written(tmp_path_factory.getbasetemp(),
                                   io.write_field_csv, field)
        assert compiled == python == csv_rows(field.tolist())

    def test_random_fields_across_blocks(self, tmp_path):
        # more cells than one block of io._write_table, with repr-only
        # values in several blocks; and rows longer than a block
        rng = np.random.default_rng(3)
        tall = rng.standard_normal((400, 300)) * 10.0 ** rng.integers(
            -8, 20, (400, 300))
        tall.ravel()[rng.integers(0, tall.size, 50)] = [math.nan, math.inf,
                                                        -0.0, 0.0, 1e-300] * 10
        for field in (tall, rng.random((2, 70000)), rng.random((3, 0))):
            compiled, python = written(tmp_path, io.write_field_csv, field)
            assert compiled == python == csv_rows(field.tolist())

    @pytest.mark.parametrize("name", ["maze.json", "radial_circular.json",
                                      "radial_trivial.json", "slow_disk.json"])
    def test_grid_scenario_outputs(self, tmp_path, name):
        pb = io.load_grid_scenario(scenario(name))
        sol = fmm_solve(pb)
        (x0, y0), n = pb.grid.origin, pb.grid.nx - 1
        h = pb.grid.h
        traj = trace(sol, pb, (x0 + 0.7 * n * h, y0 + 0.6 * n * h))
        for write, arg in ((io.write_field_csv, sol.V),
                           (io.write_mask_csv, sol.motionless),
                           (io.write_points_csv, motionless_set(sol, pb)),
                           (io.write_trajectory_csv, traj)):
            compiled, python = written(tmp_path, write, arg)
            assert compiled == python and python.count(b"\r\n") > 1

    def test_radial_801_mask(self, tmp_path):
        # the grid workload's mask: bool cells reach csv.c through a uint8
        # view, so the write allocates less than one int64 copy of the mask
        pb = io.load_grid_scenario(scenario("radial_circular.json"), None, 801)
        mask = fmm_solve(pb).motionless
        compiled, python = written(tmp_path, io.write_mask_csv, mask)
        assert compiled == python
        tracemalloc.start()
        try:
            entry = tracemalloc.get_traced_memory()[0]
            io.write_mask_csv(str(tmp_path / "mask.csv"), mask)
            peak = tracemalloc.get_traced_memory()[1] - entry
        finally:
            tracemalloc.stop()
        assert peak < 8 * mask.size

    @pytest.mark.parametrize("name", ["idle_ring.txt", "subtle_motionless.txt",
                                      "three_node_chain.txt",
                                      "two_node_cycle.txt", "random"])
    def test_graph_solutions(self, tmp_path, name):
        if name == "random":
            pb = random_graph_problem(5, nodes=300)
        elif name == "idle_ring.txt":
            pb = idle.build_problem(io.load_idle(scenario(name)))
        else:
            pb = io.load_graph(scenario(name), default_p=0.3)
        sol = graph.value_iteration(pb)
        compiled, python = written(tmp_path, io.write_graph_solution, pb, sol)
        assert compiled == python
        assert python.count(b"\r\n") == pb.node_count + 1

    def test_graph_solution_of_any_values(self, tmp_path):
        # every float of EDGE_FLOATS in the V and q columns, between the
        # integer columns
        values = np.array(EDGE_FLOATS)
        pb = types.SimpleNamespace(node_count=values.size, q=values[::-1])
        sol = types.SimpleNamespace(V=values, motionless=values > 1,
                                    policy=np.arange(values.size) - 3)
        compiled, python = written(tmp_path, io.write_graph_solution, pb, sol)
        assert compiled == python == csv_rows(
            [("node", "V", "q", "motionless", "policy_successor")]
            + list(zip(range(values.size), sol.V.tolist(), pb.q.tolist(),
                       sol.motionless.astype(int).tolist(),
                       sol.policy.tolist())))

    def test_empty_tables(self, tmp_path):
        assert written(tmp_path, io.write_points_csv, np.empty((0, 2))) == (
            b"x,y\r\n",) * 2
        assert written(tmp_path, io.write_points_csv, []) == (b"x,y\r\n",) * 2

    def test_round_trip(self, tmp_path):
        field = np.array([[0.0, -0.0, 5e-324, 9.99e-5, 1e-4],
                          [2.0 ** 53, math.nextafter(2.0 ** 53, 0),
                           math.nextafter(2.0 ** 53, math.inf),
                           1.7976931348623157e308, math.nan],
                          [math.inf, -math.inf, -1e-4, 0.1, 1 / 3]])
        nan = np.isnan(field)

        def run():
            io.write_field_csv(str(tmp_path / "f.csv"), field)
            return io.read_field_csv(str(tmp_path / "f.csv"))

        for back in both_paths(run):
            assert np.array_equal(np.isnan(back), nan)
            assert bit_equal(back[~nan], field[~nan])

    def test_repr_texts_must_match_the_cells(self):
        # csv_rows refuses, writing past nothing, when it is handed more or
        # fewer repr texts than it has cells outside its range
        lib = native.library()
        x, out = np.array([1.5, math.nan]), np.empty(64, np.uint8)
        flags = np.zeros(2, np.uint8)
        assert lib.csv_rows(x, 1, 2, flags, b"nan", np.array([3]), 1, out) == 9
        assert out[:9].tobytes() == b"1.5,nan\r\n"
        for texts, lens in ((b"", []), (b"nannan", [3, 3])):
            assert lib.csv_rows(x, 1, 2, flags, texts,
                                np.array(lens, np.int64), len(lens), out) == -1
