"""Golden outputs: SHA-256 of solution.csv for every graph scenario in
scenarios/ under each solver, with and without --p 0.3, and of the
random-graph text for seeds 0-2.  io promises byte-identical CSVs for
identical runs; these digests hold that promise across changes of the
code.  A run that exits nonzero writes no solution.csv (digest None).
"""

import contextlib
import glob
import hashlib
import io
import os

import pytest

from randterm.cli import main

from conftest import SCENARIOS, scenario

RUN_GRAPH = [
    ('idle_ring.txt', 'dijkstra', None, 0,
     '10ba5412f1e0e209ab142cf92faa48df9df0c2364baaefbba15f33e36d051ec3'),
    ('idle_ring.txt', 'dijkstra', '0.3', 0,
     '10ba5412f1e0e209ab142cf92faa48df9df0c2364baaefbba15f33e36d051ec3'),
    ('idle_ring.txt', 'dial', None, 0,
     '10ba5412f1e0e209ab142cf92faa48df9df0c2364baaefbba15f33e36d051ec3'),
    ('idle_ring.txt', 'dial', '0.3', 0,
     '10ba5412f1e0e209ab142cf92faa48df9df0c2364baaefbba15f33e36d051ec3'),
    ('idle_ring.txt', 'vi', None, 0,
     '10ba5412f1e0e209ab142cf92faa48df9df0c2364baaefbba15f33e36d051ec3'),
    ('idle_ring.txt', 'vi', '0.3', 0,
     'c394959bc4c2b4fab03d9743efb0a5e8068b5701a00877a7bec7caf0bc72b195'),
    ('subtle_motionless.txt', 'dijkstra', None, 2, None),
    ('subtle_motionless.txt', 'dijkstra', '0.3', 0,
     '6f07a885269b936107c56284987ecb9d4039b10ebcf61dad038606f106f63b5b'),
    ('subtle_motionless.txt', 'dial', None, 2, None),
    ('subtle_motionless.txt', 'dial', '0.3', 0,
     '6f07a885269b936107c56284987ecb9d4039b10ebcf61dad038606f106f63b5b'),
    ('subtle_motionless.txt', 'vi', None, 2, None),
    ('subtle_motionless.txt', 'vi', '0.3', 0,
     '6f07a885269b936107c56284987ecb9d4039b10ebcf61dad038606f106f63b5b'),
    ('three_node_chain.txt', 'dijkstra', None, 2, None),
    ('three_node_chain.txt', 'dijkstra', '0.3', 0,
     '5dc5e5b39660743b804cd84550f70ef472b53401afa01df6934ff964af370c06'),
    ('three_node_chain.txt', 'dial', None, 2, None),
    ('three_node_chain.txt', 'dial', '0.3', 2, None),
    ('three_node_chain.txt', 'vi', None, 2, None),
    ('three_node_chain.txt', 'vi', '0.3', 0,
     '5dc5e5b39660743b804cd84550f70ef472b53401afa01df6934ff964af370c06'),
    ('two_node_cycle.txt', 'dijkstra', None, 2, None),
    ('two_node_cycle.txt', 'dijkstra', '0.3', 2, None),
    ('two_node_cycle.txt', 'dial', None, 2, None),
    ('two_node_cycle.txt', 'dial', '0.3', 2, None),
    ('two_node_cycle.txt', 'vi', None, 2, None),
    ('two_node_cycle.txt', 'vi', '0.3', 0,
     '2953bda5c047bfcf282b33cd7d015dd31a814a4285b00ec6d7967b995eeef074'),
]

RANDOM_GRAPH = [
    (0, '3bd42a664f26d4eb5bab44002f12cf35020910acd462979f62ea4c6b3cf77f3f'),
    (1, '26d635298482d86cbb4f8904379768d8cf70f31a8b619043d032dea2ccd49612'),
    (2, '88a02dce4a6b537bbedb030e5e86edb69480af77c0130a27450c0f78cedf557c'),
]


def _sha256(data):
    return hashlib.sha256(data).hexdigest()


def test_every_graph_scenario_pinned():
    files = glob.glob(os.path.join(SCENARIOS, "*.txt"))
    assert {os.path.basename(f) for f in files} == {r[0] for r in RUN_GRAPH}


@pytest.mark.parametrize("name, solver, p, code, digest", RUN_GRAPH)
def test_run_graph_solution(tmp_path, name, solver, p, code, digest):
    argv = ["run-graph", scenario(name), "--solver", solver,
            "--out", str(tmp_path)]
    if p is not None:
        argv += ["--p", p]
    with contextlib.redirect_stderr(io.StringIO()):
        assert main(argv) == code
    solution = tmp_path / "solution.csv"
    assert (_sha256(solution.read_bytes()) if solution.exists()
            else None) == digest


@pytest.mark.parametrize("seed, digest", RANDOM_GRAPH)
def test_random_graph_text(seed, digest):
    text = io.StringIO()
    with contextlib.redirect_stdout(text):
        assert main(["random-graph", "--seed", str(seed)]) == 0
    assert _sha256(text.getvalue().encode()) == digest
