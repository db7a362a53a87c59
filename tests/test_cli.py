"""Command line interface: pinned rows, round trips, determinism, exit codes."""

import hashlib
import json
import math
import subprocess
import sys
import time

import pytest

from widim.certify import monte_carlo_certify, report_from_json, report_to_json
from widim.cli import main
from widim.core import make_exponents


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_bounds_pinned_rows(capsys):
    code, out, _ = run_cli(capsys, "bounds", "--p", "1", "--q", "2",
                           "--eps", "0.5", "--n", "100")
    assert code == 0
    assert out.splitlines()[-1] == "100,0.5,3,15,false"
    assert out.startswith("# widim bounds\n")
    assert "# p=1\n" in out and "# q=2\n" in out and "# seed=24301\n" in out

    code, out, _ = run_cli(capsys, "bounds", "--p", "2", "--q", "inf",
                           "--eps", "0.5", "--n", "100")
    assert code == 0
    assert out.splitlines()[-1] == "100,0.5,15,15,true"

    code, out, _ = run_cli(capsys, "bounds", "--p", "2", "--q", "1",
                           "--eps", "0.5", "--n", "7")
    assert code == 0
    assert out.splitlines()[-1] == "7,0.5,7,7,true"


def test_bounds_grid_and_out_of_range(capsys):
    code, out, _ = run_cli(capsys, "bounds", "--p", "2", "--q", "1",
                           "--eps", "0.5,1.5", "--n", "7")
    assert code == 0
    lines = out.splitlines()
    assert lines[-2] == "7,0.5,7,7,true"
    assert lines[-1] == "7,1.5,out_of_range,out_of_range,false"


def test_bounds_json(capsys):
    code, out, _ = run_cli(capsys, "bounds", "--p", "1", "--q", "2",
                           "--eps", "0.5", "--n", "100", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    row = doc["reports"][0]
    assert (row["lower"], row["upper"], row["exact"]) == (3, 15, False)
    assert row["status"] == "ok"


def test_map_from_file_and_stdin(capsys, tmp_path, monkeypatch):
    vec = tmp_path / "vec.txt"
    vec.write_text("-3 1 2\n")
    code, out, _ = run_cli(capsys, "map", "--m", "1", "--in", str(vec))
    assert code == 0
    assert out.splitlines()[-1] == "-1,0,0"

    monkeypatch.setattr("sys.stdin", __import__("io").StringIO("0.5 0.5 0\n"))
    code, out, _ = run_cli(capsys, "map", "--m", "1", "--q", "2")
    assert code == 0
    assert out.splitlines()[-1] == "0,0,0"
    assert "# distortion=0.70710678118654757" in out


def test_map_json(capsys, tmp_path):
    vec = tmp_path / "vec.txt"
    vec.write_text("-3 1 2\n")
    code, out, _ = run_cli(capsys, "map", "--m", "1", "--q", "inf",
                           "--in", str(vec), "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["output"] == [-1.0, 0.0, 0.0]
    assert doc["nonzero_count"] == 1
    assert doc["q"] == "inf"
    assert doc["distortion"] == 2.0


def test_certify_json_equals_library_report(capsys):
    code, out, _ = run_cli(capsys, "certify", "--p", "1", "--q", "2",
                           "--n", "6", "--m", "1", "--samples", "400",
                           "--format", "json")
    assert code == 0
    expected = monte_carlo_certify(6, 1, make_exponents(1, 2), 400)
    assert out == report_to_json(expected) + "\n"
    assert report_from_json(out) == expected


def test_certify_csv_and_seed_flag(capsys):
    code, out, _ = run_cli(capsys, "certify", "--p", "2", "--q", "inf",
                           "--n", "5", "--m", "2", "--samples", "300",
                           "--seed", "0xBEEF")
    assert code == 0
    assert "# seed=48879\n" in out
    assert "# method=mc\n" in out
    header = [l for l in out.splitlines() if l.startswith("n,")][0]
    assert header.startswith("n,m,p,q,r,")


def test_certify_adversarial_method(capsys):
    code, out, _ = run_cli(capsys, "certify", "--p", "1", "--q", "2",
                           "--n", "4", "--m", "1", "--method", "adversarial",
                           "--restarts", "4", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["sample_count"] == 4
    assert doc["margin"] >= -1e-9


def test_oracle_rows_and_exit(capsys):
    code, out, _ = run_cli(capsys, "oracle", "--s", "2", "--c", "1",
                           "--t", "0.5", "--n", "2,4")
    assert code == 0
    lines = out.splitlines()
    assert lines[-2].startswith("2,1,0.5,2,0.5,0.5,true")
    assert lines[-1].startswith("2,1,0.5,4,0.5,0.5,true")


def test_group_table_pinned(capsys):
    code, out, _ = run_cli(capsys, "group", "--task", "table",
                           "--n", "1,2,3,4,5")
    assert code == 0
    lines = out.splitlines()
    assert "# task=table\n" in out and "# weight=geometric(d=1, base=2, total=0.75)\n" in out
    assert lines[-5].startswith("1,3,7,")
    assert lines[-3] == "3,7,7,1"
    assert lines[-1].startswith("5,11,7,0.63636363636363635")


def test_group_embed(capsys):
    code, out, _ = run_cli(capsys, "group", "--task", "embed", "--n", "1",
                           "--samples", "400", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["failure_count"] == 0
    assert doc["omega"] == [[-1], [0], [1]]


# SHA-256 of `group --task embed --eps 0.5 --samples 500` output at the
# default seed, recorded before the embedding check moved to dense window
# vectors: the (dim, n) configurations of the benchmark at p = 1, plus p = 2
# and p = inf.
EMBED_GOLDEN = {
    ("1", "2", "1", "json"): "01bdf7bf894531c95ed4b7e2dc5d964f70f577a27fdf261d0f98519fde1ac634",
    ("1", "2", "1", "csv"): "695f0f46dd1f092a5febce50699689daa8fa62fa1def09dcdb2bff4b4a89fb6d",
    ("1", "4", "1", "json"): "bca7221fb0443e1ce44adc936b8558b31ffa25b940b47796b21250deaa22dc97",
    ("1", "4", "1", "csv"): "9447ac8b40ae5ee955f2ebee8aff843042863af93d11721f921956ef2cbecb2a",
    ("2", "1", "1", "json"): "069ac023b27b7c5108cbce84412107d4ba7124bc1ff1320886410854da9cf05d",
    ("2", "1", "1", "csv"): "25c6d82d1633b97204184396e184e5632dc86808f2ac0148ffee61237d2d943f",
    ("1", "2", "2", "json"): "2b04fe602f500b8b3af0727396340c82cac37c3913807fcd92a52baf6fa8c6a7",
    ("1", "2", "2", "csv"): "9633bc9dd0c784dba3e5ea1a18b39c35393f0af013468bbe5d8ea90478255d61",
    ("1", "2", "inf", "json"): "287f499005a0473c5bb696e82fb28ab62a782fb19908051f61b2e817c758285e",
    ("1", "2", "inf", "csv"): "0b8d6e37f5b38ff2d5e880f68f9e85ac303003cf2ed80ec4305cda403aaf4cdd",
}


@pytest.mark.parametrize("config", sorted(EMBED_GOLDEN))
def test_group_embed_golden_bytes(capsys, config):
    dim, n, p, fmt = config
    code, out, _ = run_cli(capsys, "group", "--task", "embed", "--eps", "0.5",
                           "--dim", dim, "--n", n, "--p", p, "--samples", "500",
                           "--format", fmt)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == EMBED_GOLDEN[config]


def test_group_embed_window_guard_exits_2_promptly(capsys):
    t0 = time.perf_counter()
    code, out, err = run_cli(capsys, "group", "--task", "embed", "--dim", "4",
                             "--n", "6", "--samples", "1")
    assert time.perf_counter() - t0 < 10.0
    assert code == 2 and out == "" and "exceeds the cap" in err


def test_workers_below_one_exit_2(capsys):
    commands = (
        ["group", "--task", "embed", "--samples", "3"],
        ["certify", "--p", "1", "--q", "2", "--n", "4", "--m", "1", "--samples", "10"],
    )
    for argv in commands:
        for workers in ("0", "-3", "two"):
            with pytest.raises(SystemExit) as exc:
                main(argv + ["--workers", workers])
            assert exc.value.code == 2
            assert "--workers" in capsys.readouterr().err


def test_argument_errors_exit_2(capsys):
    code, _, err = run_cli(capsys, "bounds", "--p", "0.5", "--q", "2",
                           "--eps", "0.5", "--n", "10")
    assert code == 2 and "error:" in err
    code, _, err = run_cli(capsys, "certify", "--p", "2", "--q", "1",
                           "--n", "4", "--m", "1", "--samples", "10")
    assert code == 2 and "error:" in err
    code, _, err = run_cli(capsys, "group", "--task", "embed", "--n", "1,2",
                           "--samples", "10")
    assert code == 2 and "error:" in err


def test_output_file_matches_stdout(capsys, tmp_path):
    args = ["bounds", "--p", "1", "--q", "2", "--eps", "0.25,0.5", "--n", "10,100"]
    code, out, _ = run_cli(capsys, *args)
    assert code == 0
    path = tmp_path / "rows.csv"
    assert main(args + ["--out", str(path)]) == 0
    capsys.readouterr()
    assert path.read_text() == out


def test_byte_determinism_across_runs_and_workers(capsys):
    args = ["certify", "--p", "1", "--q", "2", "--n", "8", "--m", "1",
            "--samples", "500"]
    outs = []
    for workers in ("1", "4", "16"):
        code, out, _ = run_cli(capsys, *(args + ["--workers", workers]))
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1] == outs[2]
    code, again, _ = run_cli(capsys, *(args + ["--workers", "1"]))
    assert again == outs[0]


def test_installed_entry_point_runs():
    # one subprocess spot check that the console script is wired up
    proc = subprocess.run(
        [sys.executable, "-m", "widim.cli", "bounds", "--p", "1", "--q", "2",
         "--eps", "0.5", "--n", "100"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[-1] == "100,0.5,3,15,false"
