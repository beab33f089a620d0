"""Golden outputs: SHA-256 of solution.csv for every graph scenario in
scenarios/ under each solver, with and without --p 0.3; of value.csv,
mask.csv and boundary.csv for every grid scenario at its own size, and for
the call scenarios also at --grid 201; and of the random-graph text for
seeds 0-2.  io promises byte-identical CSVs for identical runs; these
digests hold that promise across changes of the code.  A run that exits
nonzero writes no solution.csv (digest None).  Every scenario run is made
twice, on the compiled library and on its Python twins (native.library
patched to None), which must give the same digests.
"""

import contextlib
import glob
import hashlib
import io
import os

import pytest

from randterm.cli import main

from conftest import SCENARIOS, both_paths, scenario

RUN_GRAPH = [
    ('idle_ring.txt', 'dijkstra', None, 0,
     '10ba5412f1e0e209ab142cf92faa48df9df0c2364baaefbba15f33e36d051ec3'),
    ('idle_ring.txt', 'dijkstra', '0.3', 2, None),  # p comes from lambda
    ('idle_ring.txt', 'dial', None, 0,
     '10ba5412f1e0e209ab142cf92faa48df9df0c2364baaefbba15f33e36d051ec3'),
    ('idle_ring.txt', 'dial', '0.3', 2, None),  # p comes from lambda
    ('idle_ring.txt', 'vi', None, 0,
     '10ba5412f1e0e209ab142cf92faa48df9df0c2364baaefbba15f33e36d051ec3'),
    ('idle_ring.txt', 'vi', '0.3', 2, None),  # p comes from lambda
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

# (scenario, --grid or None, sha256 of value.csv, mask.csv, boundary.csv)
RUN_GRID = [
    ('maze.json', None,
     '30f18f4adaabdc1ebd30cf85b6ef14a7af1ac501b03db760e12e7043508dd20d',
     'fe185e374006a76dc9dfe4a297384cb556ea405eaba9d8ba9174dbdd5fb54d91',
     'b399d44a8d5b154371a91793727f6890672cf3c9fe59054b520821e7a2a49b47'),
    ('maze.json', '201',
     '01b37e13e4274a0b50d07afb26bb88c61a56aed84a652a5f725ce208412e15cb',
     'fde4fd65899787a2f5027f428b2599f954cb2ab5a783899ad46ab1524e548982',
     '31eacaba60f8fc946ff3e226717884f3cb6f2646c3c620900ebfdac6bb0d1c2c'),
    ('radial_circular.json', None,
     'cf65973e51e9d85166c13415bd607f27ceba35c7754f9ea636d805bb73aa29f0',
     '99ae587313d6d3e970f2be6ca45e5ac50e0323baf00253c33a0f5525dc5e2f50',
     '9c3c48ccebd8d68c5c19f8fcd06e18e2d290867633364023ce79ad54e72d2278'),
    ('radial_trivial.json', None,
     '6d30f57aa1f9bb99114a41710fcf5a88c730de84d0f7d812aef4fa495ab26adb',
     'db2e34e7766410a6e05a85c3388ca964bb7b15b3ea2763cdce6b77db3d21cf10',
     '4097f3f9883a29b851d509f9a246490c168f9ad9ab6d99691f037091d6613b43'),
    ('slow_disk.json', None,
     'aa2925c9a223b3cfe98a07daa81130e60dd1fece51b45bdf720a75a866bd87ed',
     '46a3232b0888dd9f3b8daba34e89ef814ff0fe306254214b5372ef34ada53210',
     '194b73147b268b8b9c3a26dc50aa73268638567cdc6ea7a647539bab2ffd08f6'),
    ('slow_disk.json', '201',
     'aa101540c3d1a3194c9fa66fdebc025275da5394073bc4ce1cc23ccaeaafe9c7',
     '710d94560691f00f3c084cd4d0268ef64bc1ea53d1331327606fc9c8b6281cab',
     'd9f6e7a1488fe1dbe435b4b1e7e8b541f0f12879acf7e9ba5a1e8f4818b105af'),
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


def test_every_grid_scenario_pinned():
    files = glob.glob(os.path.join(SCENARIOS, "*.json"))
    assert {os.path.basename(f) for f in files} == {r[0] for r in RUN_GRID}


def _digests(tmp_path, argv, code, names):
    """(compiled, python): the sha256 of each file of names (None when not
    written) that main(argv), exiting with code, writes into a new --out
    directory, on the compiled library and on its Python twins."""
    dirs = iter(("compiled", "python"))

    def run():
        out = tmp_path / next(dirs)
        with contextlib.redirect_stderr(io.StringIO()):
            assert main(argv + ["--out", str(out)]) == code
        return [_sha256((out / name).read_bytes())
                if (out / name).exists() else None for name in names]

    return both_paths(run)


@pytest.mark.parametrize("name, solver, p, code, digest", RUN_GRAPH)
def test_run_graph_solution(tmp_path, name, solver, p, code, digest):
    argv = ["run-graph", scenario(name), "--solver", solver]
    if p is not None:
        argv += ["--p", p]
    assert _digests(tmp_path, argv, code, ["solution.csv"]) == ([digest],) * 2


@pytest.mark.parametrize("name, size, value, mask, boundary", RUN_GRID)
def test_run_grid_csvs(tmp_path, name, size, value, mask, boundary):
    argv = ["run-grid", scenario(name),
            "--emit", "value", "--emit", "mask", "--emit", "boundary"]
    if size is not None:
        argv += ["--grid", size]
    names = ["value.csv", "mask.csv", "boundary.csv"]
    assert _digests(tmp_path, argv, 0, names) == ([value, mask, boundary],) * 2


@pytest.mark.parametrize("seed, digest", RANDOM_GRAPH)
def test_random_graph_text(seed, digest):
    text = io.StringIO()
    with contextlib.redirect_stdout(text):
        assert main(["random-graph", "--seed", str(seed)]) == 0
    assert _sha256(text.getvalue().encode()) == digest
