"""CLI commands over a saved lsm file: resharding, serving and compact."""

import pytest

from repro.cli import main


@pytest.fixture
def lsm_file(tmp_path):
    edges = tmp_path / "edges.txt"
    packed = tmp_path / "g.npz"
    lsm = tmp_path / "lsm.npz"
    assert main(["generate", "er", str(edges), "--nodes", "60", "--edges", "400"]) == 0
    assert main(["build", str(edges), str(packed)]) == 0
    assert main(["query", str(packed), "--writes", "50", "--save", str(lsm),
                 "neighbors", "1"]) == 0
    return lsm


def test_query_reshards_lsm_file(lsm_file, capsys):
    capsys.readouterr()
    assert main(["query", str(lsm_file), "neighbors", "1", "2"]) == 0
    mono = capsys.readouterr().out.splitlines()[:2]
    assert main(["query", str(lsm_file), "--shards", "2", "neighbors", "1", "2"]) == 0
    assert capsys.readouterr().out.splitlines()[:2] == mono


def test_serve_bench_reshards_lsm_file(lsm_file, capsys):
    rc = main(["serve-bench", "--input", str(lsm_file), "--shards", "2",
               "--requests", "200", "--batch", "16"])
    assert rc == 0
    assert "ShardedStore" in capsys.readouterr().out


def test_compact_refuses_lsm_file_in_one_line(lsm_file, tmp_path, capsys):
    capsys.readouterr()
    assert main(["compact", str(lsm_file), str(tmp_path / "out.npz")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "LsmStore" in err
    assert err.count("\n") == 1
