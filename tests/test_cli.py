"""Command line interface: pinned rows, round trips, determinism, exit codes."""

import contextlib
import hashlib
import io
import json
import math
import subprocess
import sys
import time
import tracemalloc
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from widim import bounds, certify
from widim._output import csv_document, csv_row, json_exponent
from widim.bounds import bracket, widim_equal_case
from widim.certify import monte_carlo_certify, report_from_json, report_to_json
from widim.cli import build_parser, main
from widim.group_dynamics import embedding_report_from_json
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
# default seed: the (dim, n) configurations of the benchmark at p = 1, plus
# p = 2 and p = inf. Re-recorded when blocks grew from 64 to PAIR_DRAW = 512
# pairs, a declared change of the stream layout, after checking that every
# run still reports no failure and criterion 7 passes.
EMBED_GOLDEN = {
    ("1", "2", "1", "json"): "3084893488be77044369bf986a5b3f4eb81fd2ccb3b29fb0e6617530aa247ee8",
    ("1", "2", "1", "csv"): "7c2e873d82b2b4fa3475b140ca076d88ca1aef77ae6568f3c519650d62a4dce1",
    ("1", "4", "1", "json"): "1d871a1e5504fff03ace6043a05cc6fd6aba328f5afdc83cd7e2b468317b63e1",
    ("1", "4", "1", "csv"): "bfcfd4065388073283a36e6beb19356db67ebb70a4db11cbbe7e3edc95b7d92f",
    ("2", "1", "1", "json"): "357b3164fc6d1ab791d08208ca8ab64929a1d7b465037d4d1f3fed9bb468b431",
    ("2", "1", "1", "csv"): "390a9d8480ecc2617c55811536de62bad9e5fcdf34206285556bd2bb7744de52",
    ("1", "2", "2", "json"): "d167e73e821c76498d7612f7f9d5dabddbf32a030e1efb32d314097282b9c091",
    ("1", "2", "2", "csv"): "06b97d90440cfb3e9794d7305c081ad5afad85f475f484411da1f1eb74a8c1c6",
    ("1", "2", "inf", "json"): "eb2f992f83d0c1aaef4204d26ac7c32e43a748c4e5ccd1e89b3d3c5807dbb26b",
    ("1", "2", "inf", "csv"): "03f34b27b0b74b52a4d8be23e8a355f0b1735443c411f5e1b21fe98670fd97dc",
}


@pytest.mark.parametrize("config", sorted(EMBED_GOLDEN))
def test_group_embed_golden_bytes(capsys, config):
    dim, n, p, fmt = config
    code, out, _ = run_cli(capsys, "group", "--task", "embed", "--eps", "0.5",
                           "--dim", dim, "--n", n, "--p", p, "--samples", "500",
                           "--format", fmt)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == EMBED_GOLDEN[config]


# SHA-256 of every other command's output in both formats at the default
# seed (unless the command sets one), recorded before the text format moved
# into one module; the map runs at q = 3.5 and 1.5 were recorded while a
# single vector's distortion still went through f_equivariant and
# lq_distance. VEC stands for a file holding the line "-3 1 2 0.1 -0.7 1e-3".
CLI_GOLDEN = {
    ("bounds --p 1 --q 2 --eps 0.1,0.3,0.5,1,2.5 --n 1,3,100", "csv"): "926fd09eb928d4ad4b240d93a818f1b9b040bd7460811f170fb5f54e65ef3603",
    ("bounds --p 1 --q 2 --eps 0.1,0.3,0.5,1,2.5 --n 1,3,100", "json"): "fad7e21a9be0e5f44368c06d16739d45ae6f3e05f4bb6cbdf34afc746518c894",
    ("bounds --p 1.5 --q inf --eps 0.25,0.5,0.7 --n 2,100", "csv"): "0711d05df834311c6d54effb859846a84e9fb78db8692d4da15be24fb7efe857",
    ("bounds --p 1.5 --q inf --eps 0.25,0.5,0.7 --n 2,100", "json"): "7e1b440522c87649fca5f0e0857757426157b60e2e01c70b3a1f6e3867f7a599",
    ("bounds --p 2 --q 1 --eps 0.5,1,1.5 --n 7,20", "csv"): "a526526e7aae763ebb196993957496131e911dcdb6a49f09d649f4390d58ba9c",
    ("bounds --p 2 --q 1 --eps 0.5,1,1.5 --n 7,20", "json"): "f596e2051bef400c219102cff881c9d4aa5fad0c1822ed65aea330d2a11caec7",
    ("bounds --p inf --q inf --eps 0.5,2 --n 5", "csv"): "101d88f935bee76fd671354114f20c5d070dc2c07dbace1c5c025803680f426b",
    ("bounds --p inf --q inf --eps 0.5,2 --n 5", "json"): "1f8913ec279b6b9418a5b4e8eb23f4d96739d69d87af2381333f15fdd303b427",
    ("map --m 2 --in VEC", "csv"): "70697720159f58310d1720e6b0bdd08117d738797ec5ac451c1db11e47801c84",
    ("map --m 2 --in VEC", "json"): "544a6cd3f0570adccd477cb4f981dcc838a2f81d33364da6f57615a99edd7fbd",
    ("map --m 2 --q 2 --in VEC", "csv"): "a3eff6411f40aeb008c679b67a9abee81cc457a0ad4dfa920b01cb4d4678150c",
    ("map --m 2 --q 2 --in VEC", "json"): "f7807850632f77b809522beb9b792177eceb58e0e51cb42135b2c20a4908a0e1",
    ("map --m 1 --q inf --in VEC", "csv"): "dd0841f908b8b3d1510516074a223cd90460fd0fe929a08cae2951b68c41cdbd",
    ("map --m 1 --q inf --in VEC", "json"): "4f09a75c92d1c6c3cd01447035aeb091c24c07ad8999b14ac3e7d1db729e2a52",
    ("map --m 2 --q 3.5 --in VEC", "csv"): "681231d6a24f287088c52b03a2e7d59bcdd714f5c11ebec8d06b39981b4210e2",
    ("map --m 2 --q 3.5 --in VEC", "json"): "79242841ab10a4fd767a8e7215eef1caf99264b5c1276e53742aa808cc30b58a",
    ("map --m 2 --q 1.5 --in VEC", "csv"): "39b43d576045e323b0917eb578327697a0ba2f837d9cd75894818f504d1be59e",
    ("map --m 2 --q 1.5 --in VEC", "json"): "b5177d6018c02897660f373ecf5a32bba1af524e73ec5e80557a5f025debbea1",
    ("certify --p 1 --q 2 --n 6 --m 1 --samples 400", "csv"): "e6d4cd27293a7cc4b252b90250ea945b73e3e0d92d317724bf1ff4400e7b6692",
    ("certify --p 1 --q 2 --n 6 --m 1 --samples 400", "json"): "e37cfa9856b9fdbf8044f810692145aabbfd1e7c72c8ef3a1de4bd159e23a27a",
    ("certify --p 2 --q inf --n 5 --m 2 --samples 300 --seed 0xBEEF", "csv"): "f247303e0c5fd0d0a9d726de28e72c24130a808911073dc1be4114b1418009ba",
    ("certify --p 2 --q inf --n 5 --m 2 --samples 300 --seed 0xBEEF", "json"): "86cb0d5ba0c1f70d906ca615b29ede6fa75514381b359f76df339890bdace7ff",
    ("certify --p 1.5 --q 3 --n 3 --m 4 --samples 200", "csv"): "c9442e9cb0ff039cc616e099468703fb781a0fed6b25bf68e9981ceef85886aa",
    ("certify --p 1.5 --q 3 --n 3 --m 4 --samples 200", "json"): "2cbf068dfdd9413f345cf9a5c9407b2f8015cf2616f126e62987afdc7e9abbfd",
    # m >= n: every distortion is 0, so sample 0 itself is reported and the
    # digest sees the p = 2 sampler; recorded with the normal-draw route
    ("certify --p 2 --q 4 --n 3 --m 3 --samples 5000", "csv"): "a43afdb893e556d7e85452dca7024d5f060cdea27f31778405956a295ff7a2aa",
    ("certify --p 2 --q 4 --n 3 --m 3 --samples 5000", "json"): "858b2c499ac2c8bc1ec7290c04a75eae2c05cc940fe392543538e84f1511486f",
    ("certify --method adversarial --p 1 --q 2 --n 4 --m 1 --restarts 4", "csv"): "c0eb0c5733a2f771e96538e66843885b8c23204c934d47f6e7da56aa4b5fe29b",
    ("certify --method adversarial --p 1 --q 2 --n 4 --m 1 --restarts 4", "json"): "6ab9a9b337f894372b0e64669196e553226497a93326981934d914113bd127fa",
    ("certify --method adversarial --p 2 --q inf --n 5 --m 2 --restarts 3", "csv"): "909d4644749e7de734b6e75ee6ac3df59ab4b28c88b8e549fc3f12fdf3e711b1",
    ("certify --method adversarial --p 2 --q inf --n 5 --m 2 --restarts 3", "json"): "f7d43ea0ac4f380c14db472074ffb9b7c24dd273ca4e15030a55ba1057dc409b",
    ("certify --method adversarial --p 1 --q 3 --n 3 --m 3 --restarts 2", "csv"): "23166d176db711a6176bbd38ce056bf35295d1c1630cc5065d0513928e0a5411",
    ("certify --method adversarial --p 1 --q 3 --n 3 --m 3 --restarts 2", "json"): "a2e9b23052987df55501491ccde05115062898f2cee69b5d790b0e004ee27c5c",
    ("oracle --s 1,2.5 --c 1,0.7 --t 0.5,0.3 --n 1,4 --samples 256", "csv"): "528584163ec7b2684cf1dba84e3cb4074d1a50be6edf03dc38e03f64a0a8563b",
    ("oracle --s 1,2.5 --c 1,0.7 --t 0.5,0.3 --n 1,4 --samples 256", "json"): "5402aa73fbcd73dd23db35c8e9030925b3692cb19f76ed2d4e5499f8c476ac4f",
    ("group --task table", "csv"): "d8eedb4754ee6228beb7787be0b101869d0e172c1bcc2c0b20130f7c0bc7f1e7",
    ("group --task table", "json"): "04646e99e9fb1fe0437d2495ed11a493ada2f85344677a77008364b07c117fb1",
    ("group --task table --dim 2 --p 2 --eps 0.25 --n 1,3,10", "csv"): "00ce7e6a48b14f3c664f033f6e93f796c155ab265147ae0a0f91415bcf777da8",
    ("group --task table --dim 2 --p 2 --eps 0.25 --n 1,3,10", "json"): "bb2235f5ca1b98f2024a350cc15cae3392f9f54635256ec41e8e90d0164835f1",
    ("group --task table --p inf --eps 5 --n 0,2", "csv"): "c9a6fe2ef88583ded1a12d65676759c0a945436bb1466a1ed33b87b14645d5d9",
    ("group --task table --p inf --eps 5 --n 0,2", "json"): "f741643820872832b98f50eaad03b5a4c7d19ce3f67bb0c96d31df5e4429b94e",
}


@pytest.mark.parametrize("config", sorted(CLI_GOLDEN))
def test_cli_golden_bytes(capsys, tmp_path, config):
    command, fmt = config
    vec = tmp_path / "vec.txt"
    vec.write_text("-3 1 2 0.1 -0.7 1e-3\n")
    argv = [str(vec) if a == "VEC" else a for a in command.split()]
    code, out, _ = run_cli(capsys, *argv, "--format", fmt)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == CLI_GOLDEN[config]


def test_parser_is_built_once():
    assert build_parser() is build_parser()


def test_shared_parser_gives_the_bytes_of_fresh_runs(capsys):
    # one process runs a command, an argv argparse rejects, then another
    # command; each output must match a fresh interpreter's
    first = ["certify", "--p", "2", "--q", "4", "--n", "3", "--m", "3", "--samples", "300"]
    second = ["group", "--task", "embed", "--eps", "0.5", "--n", "2", "--samples", "60",
              "--format", "json"]
    outputs = [run_cli(capsys, *first)]
    with pytest.raises(SystemExit) as exc:
        main(["certify", "--p", "2", "--q", "4", "--n", "three", "--m", "1"])
    assert exc.value.code == 2
    capsys.readouterr()
    outputs.append(run_cli(capsys, *second))
    for argv, (code, out, _) in zip((first, second), outputs):
        proc = subprocess.run([sys.executable, "-m", "widim.cli", *argv],
                              capture_output=True, text=True, timeout=60)
        assert (code, out) == (proc.returncode, proc.stdout) and code == 0


def test_group_table_p_inf_below_eps_4_exits_2(capsys):
    # (4/eps)^inf is infinite for every eps < 4: the message names that cause
    code, out, err = run_cli(capsys, "group", "--task", "table", "--dim", "2",
                             "--p", "inf", "--eps", "0.25")
    assert code == 2 and out == ""
    assert "p = inf needs eps >= 4" in err and "increase eps" not in err
    code, _, err = run_cli(capsys, "group", "--task", "table", "--p", "1", "--eps", "1e-30")
    assert code == 2 and "saturates" in err
    code, _, _ = run_cli(capsys, "group", "--task", "table", "--p", "inf", "--eps", "4")
    assert code == 0


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


def test_bad_counts_and_scales_exit_2(capsys):
    # an infinite scale used to reach the exact tail comparison and fail
    # there; a negative oracle sample count used to skip the cross-check
    for argv, what in (
        (["group", "--task", "embed", "--n", "2", "--eps", "inf", "--samples", "10"], "scale"),
        (["oracle", "--s", "2", "--c", "1", "--t", "0.5", "--n", "2", "--samples", "-5"],
         "samples"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and what in err


def test_negative_seed_exits_2(capsys):
    # a seed is checked as a count, so -1 is refused, not masked to 2^64 - 1
    for argv in (
        ["certify", "--p", "1", "--q", "2", "--n", "4", "--m", "1", "--samples", "10"],
        ["certify", "--method", "adversarial", "--p", "1", "--q", "2", "--n", "4", "--m", "1",
         "--restarts", "2"],
        ["oracle", "--s", "2", "--c", "1", "--t", "0.5", "--n", "2"],
        ["group", "--task", "embed", "--n", "1", "--samples", "10"],
    ):
        code, out, err = run_cli(capsys, *argv, "--seed", "-1")
        assert code == 2 and out == ""
        assert err == "error: seed must be an integer of at least 0, got -1\n"


@pytest.mark.parametrize("argv", [
    ["bounds", "--p", "1", "--q", "2", "--eps", "0.5", "--n", "3"],
    ["map", "--m", "1", "--in", "VEC"],
    ["certify", "--p", "1", "--q", "2", "--n", "4", "--m", "1", "--samples", "10"],
    ["oracle", "--s", "2", "--c", "1", "--t", "0.5", "--n", "2"],
    ["group", "--task", "table", "--n", "1,2"],
], ids=lambda argv: argv[0])
def test_every_command_checks_its_seed(capsys, tmp_path, argv):
    # bounds, map and the ratio table draw nothing, but echo the seed: it
    # is checked once for every command, before the command runs
    vec = tmp_path / "vec.txt"
    vec.write_text("-3 1 2\n")
    argv = [str(vec) if a == "VEC" else a for a in argv]
    code, out, err = run_cli(capsys, *argv, "--seed", "-1")
    assert code == 2 and out == ""
    assert err == "error: seed must be an integer of at least 0, got -1\n"
    # 2^64 used to be masked to the stream key of seed 0
    code, out, err = run_cli(capsys, *argv, "--seed", str(2**64))
    assert code == 2 and out == ""
    assert err == f"error: seed must be an integer of at least 0 and below 2^64, got {2**64}\n"
    for seed in ("0", str(2**64 - 1)):
        code, out, _ = run_cli(capsys, *argv, "--seed", seed)
        assert code == 0 and out


def test_nan_budget_or_cap_exits_2(capsys):
    # NaN passed the old `c < 0 or t < 0` test and printed a failed row (exit 1)
    for flag in ("--c", "--t"):
        argv = {"--s": "2", "--c": "1", "--t": "0.5", "--n": "2", flag: "nan"}
        code, out, err = run_cli(capsys, "oracle", *[a for kv in argv.items() for a in kv])
        assert code == 2 and out == ""
        assert err.startswith("error: ") and ("budget c" if flag == "--c" else "cap t") in err


def test_saturated_bounds_are_printed(capsys):
    code, out, _ = run_cli(capsys, "bounds", "--p", "1", "--q", "1.01",
                           "--eps", "1e-5", "--n", "10")
    assert code == 0
    assert out.splitlines()[-1] == "10,1.0000000000000001e-05,10,10,true"


def _oracle_row(n, eps, p, q):
    """(lower, upper, exact, status) of one row from the per-row library calls."""
    if q > p:
        rep = bracket(n, eps, make_exponents(p, q))
        return rep.lower, rep.upper, rep.exact, "ok"
    value = widim_equal_case(n, eps, p, q)
    return value, value, value is not None, "ok" if value is not None else "out_of_range"


_GRID_EPS = st.one_of(
    st.sampled_from([1e-10, 1e-5, 0.5, 1.0, 1.5, 4.0]),  # saturating, and eps >= 1
    st.integers(1, 64).map(lambda k: 2.0 / math.sqrt(k)),  # snap points (2/eps)^2 = k
    st.floats(1e-12, 10.0),
)
_GRID_N = st.one_of(st.sampled_from([1, 2, 7, 100, 10**21]), st.integers(1, 10**21))


@settings(max_examples=150, deadline=None)
@given(pq=st.sampled_from([(1, 2), (1.5, 4), (2, 4), (1, math.inf), (2, math.inf),
                           (2, 1), (2, 2), (math.inf, math.inf)]),
       ns=st.lists(_GRID_N, min_size=1, max_size=6),
       grid=st.lists(_GRID_EPS, min_size=1, max_size=6))
@example(pq=(1, math.inf), ns=[10**21, 3], grid=[0.5, 1e-10, 0.5])  # q = inf as Infinity
@example(pq=(2, 1), ns=[7, 10**21], grid=[0.5, 1.5, 1.5])  # "r": null, out_of_range rows
@example(pq=(math.inf, math.inf), ns=[5], grid=[2.0, 0.5, 2.0])
# caps 3 and 15 at eps = 0.5: n at or below, between and at or above them
@example(pq=(1, 2), ns=[2, 7, 100], grid=[0.5])
@example(pq=(1, 2), ns=[100, 3, 100], grid=[0.5, 0.25])  # repeated, unsorted n
@example(pq=(1, 1.01), ns=[10**21], grid=[1e-5])  # both caps saturated (inf)
def test_bounds_grid_rows_equal_the_per_row_oracle(pq, ns, grid):
    _assert_bounds_grid_equals_the_oracle(float(pq[0]), float(pq[1]), ns, grid)


def _assert_bounds_grid_equals_the_oracle(p, q, ns, grid):
    # the grid evaluates each eps once, caps by n and joins each row from
    # cached n, eps and bracket fragments; the oracle evaluates every row with bracket or
    # widim_equal_case and encodes a document of row dicts with json.dumps
    # and csv_row, so a slip in a value or a byte fails
    argv = ["bounds", "--p", str(p), "--q", str(q), "--n", ",".join(map(str, ns)),
            "--eps", ",".join(map(repr, grid))]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        assert main(argv + ["--format", "json"]) == 0, err.getvalue()
        assert main(argv) == 0, err.getvalue()
    doc, csv_text = out.getvalue().split("\n", 1)
    r = make_exponents(p, q).r if q > p else None
    reports, lines = [], []
    for n in ns:
        for eps in grid:
            lower, upper, exact, status = _oracle_row(n, eps, p, q)
            reports.append({"n": n, "epsilon": eps, "p": p, "q": q, "r": r, "lower": lower,
                            "upper": upper, "exact": exact, "status": status})
            shown = [lower, upper] if status == "ok" else ["out_of_range"] * 2
            lines.append(csv_row([n, eps, *shown, exact]))
    want_doc = json.dumps({"command": "bounds", "p": json_exponent(p), "q": json_exponent(q),
                           "seed": 0x5EED, "reports": reports})
    params = {"p": p, "q": q, "eps": grid, "n": ns, "seed": 0x5EED}
    want_csv = csv_document("bounds", params, "n,epsilon,lower,upper,exact", lines)
    # compared row by row (a split is undone by its join, so this is text
    # equality): pytest's diff of two whole long documents takes minutes
    assert doc.split("}, {") == want_doc.split("}, {")
    assert csv_text.split("\n") == want_csv.split("\n")


#: A 47 n x 93 eps grid: n from 1 to 10^6, eight points per decade; eps the
#: snap points 2/sqrt(k), where (2/eps)^2 = k, plus ten points per decade
#: from 1 down to 10^-3.
_WIDE_N = sorted({round(10 ** (k / 8)) for k in range(49)})
_WIDE_EPS = sorted({2.0 / math.sqrt(k) for k in range(1, 65)} | {10 ** (-k / 10) for k in range(31)})


@pytest.mark.parametrize("p, q", [(1, 2), (1, math.inf), (2, 4), (2, 2)])
def test_wide_bounds_grid_equals_the_per_row_oracle(p, q):
    assert (len(_WIDE_N), len(_WIDE_EPS)) == (47, 93)
    _assert_bounds_grid_equals_the_oracle(float(p), float(q), _WIDE_N, _WIDE_EPS)


@pytest.mark.parametrize("q, per_eps", [("2", 2), ("4", 2), ("inf", 1), ("1", 0)])
def test_bounds_plateau_work_does_not_grow_with_n(capsys, q, per_eps):
    # each listed eps costs two guarded counts (one at q = inf, none in the
    # equal case) however many n are listed
    grid = "1e-10,0.1,0.5,0.7071067811865475,2"
    for ns in ("5", "1,10,100", ",".join(str(10**k) for k in range(22))):
        with mock.patch.object(bounds, "guarded_count", wraps=bounds.guarded_count) as count:
            code, _, _ = run_cli(capsys, "bounds", "--p", "1.5", "--q", q, "--n", ns,
                                 "--eps", grid)
        assert code == 0 and count.call_count == per_eps * 5


@pytest.mark.parametrize("argv, flag", [
    (["bounds", "--p", "1", "--q", "2", "--eps=-1", "--n", ""], "--n"),
    (["bounds", "--p", "1", "--q", "2", "--eps", "", "--n", "0"], "--eps"),
    (["bounds", "--p", "1", "--q", "2", "--eps", " , ", "--n", "3"], "--eps"),
    (["oracle", "--s", "", "--c=-1", "--t", "1", "--n", "0"], "--s"),
    (["oracle", "--s", "2", "--c", "", "--t", "1", "--n", "0"], "--c"),
    (["oracle", "--s", "2", "--c", "1", "--t", "", "--n", "2"], "--t"),
    (["oracle", "--s", "2", "--c", "1", "--t", "nan", "--n", ""], "--n"),
    (["group", "--task", "table", "--n", ""], "--n"),
])
def test_empty_lists_exit_2_naming_the_argument(capsys, argv, flag):
    # an empty list used to yield no rows, so the other lists went unchecked
    # and the command exited 0
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    errors = [line for line in captured.err.splitlines() if "error:" in line]
    assert exc.value.code == 2 and captured.out == ""
    assert len(errors) == 1 and f"argument {flag}:" in errors[0]


@pytest.mark.parametrize("n, eps, what", [
    ("5,0,-2", "-1", "dimension n must be an integer of at least 1, got 0"),
    ("5,7", "0.5,-1,0", "scale eps must be a positive finite real, got -1.0"),
    ("1", "0.5,inf", "got inf"),
])
def test_bounds_checks_n_in_order_then_eps(capsys, n, eps, what):
    for q in ("2", "1"):
        code, out, err = run_cli(capsys, "bounds", "--p", "1.5", "--q", q, "--n", n,
                                 "--eps", eps)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and what in err


def test_io_and_overflow_errors_exit_2(capsys, tmp_path):
    missing = tmp_path / "missing"
    for argv in (
        ["bounds", "--p", "1", "--q", "2", "--eps", "0.5", "--n", "10",
         "--out", str(missing / "rows.csv")],
        ["map", "--m", "1", "--in", str(missing / "vec.txt")],
        ["oracle", "--s", "400", "--c", "1", "--t", "10", "--n", "1"],
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("c, rule", [
    ("1", "bound c * t^(s-1)"),
    ("100", "vertex value k * t^s + min(t, c - k * t)^s"),
])
def test_oracle_power_overflow_names_s_t_and_the_rule(capsys, c, rule):
    # 10.0 ** 400 overflows a float; the message used to be the bare
    # "(34, 'Numerical result out of range')"
    for samples in ([], ["--samples", "0"]):
        code, out, err = run_cli(capsys, "oracle", "--s", "400", "--c", c, "--t", "10",
                                 "--n", "1", *samples)
        assert code == 2 and out == ""
        assert err == f"error: the key lemma's {rule} overflows a float at s = 400.0, t = 10.0\n"


def test_lattice_dimension_overflow_names_the_argument(capsys):
    # ((base + 1)/(base - 1))^d overflows a float at d = 1000, base 2; the
    # message used to be the bare "(34, 'Numerical result out of range')"
    for task in (["--task", "table", "--n", "1,2"], ["--task", "embed"]):
        code, out, err = run_cli(capsys, "group", *task, "--dim", "1000")
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "lattice dimension d" in err and "decay base" in err


@pytest.mark.parametrize("argv, closed_form", [
    # the greedy vertex k = n: 10^9 coordinates at t, whose squares underflow
    (["--s", "2", "--c", "1", "--t", "1e-300", "--n", "1000000000"], 10**9 * 1e-300**2),
    # k = floor(c/t) of 10^13 coordinates; the vertex attains c t^(s-1)
    (["--s", "1.5", "--c", "1", "--t", "1e-12", "--n", "10000000000000"], 1e-6),
])
def test_oracle_returns_the_closed_form_at_huge_n(argv, closed_form):
    # the vertex scan used to loop min(n, c/t) + 1 times with no cap once
    # --samples 0 skipped the cross-check, and ran past a 5 s timeout
    proc = subprocess.run(
        [sys.executable, "-m", "widim.cli", "oracle", *argv, "--samples", "0",
         "--format", "json"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    (row,) = json.loads(proc.stdout)["rows"]
    assert math.isclose(row["observed_max"], closed_form, rel_tol=1e-9, abs_tol=0.0)
    assert row["passed"]


def test_oracle_beyond_the_float_range_names_n_and_t(capsys):
    # k * t overflowed converting k to a float and printed the bare
    # "int too large to convert to float"
    code, out, err = run_cli(capsys, "oracle", "--s", "1", "--c", "1", "--t", "5e-324",
                             "--n", str(10**400), "--samples", "0")
    assert code == 2 and out == ""
    assert err == ("error: coordinate count n must be below about 1.8e308 for the vertex test "
                   "k * t <= c with the cap t = 5e-324; got 1329 bits\n")
    # the largest n that still converts keeps its result, the vertex k = n
    code, out, _ = run_cli(capsys, "oracle", "--s", "1", "--c", "1", "--t", "5e-324",
                           "--n", str(2**1024 - 2**970 - 1), "--samples", "0", "--format", "json")
    assert code == 0
    assert json.loads(out)["rows"][0]["observed_max"] == sys.float_info.max * 5e-324


def test_failed_cross_check_exits_3(capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise ArithmeticError("sampled objective exceeds the vertex maximum")

    monkeypatch.setattr("widim.cli.key_lemma_oracle_max", broken)
    code, out, err = run_cli(capsys, "oracle", "--s", "2", "--c", "1",
                             "--t", "0.5", "--n", "2")
    assert code == 3 and out == ""
    assert err == "error: sampled objective exceeds the vertex maximum\n"


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


def test_oversized_certify_exits_2_before_allocating(capsys, monkeypatch):
    # a 4096 x 300000 Monte Carlo block (9.2 GiB) used to end in a MemoryError
    # traceback with exit 1, the status of a failed bound
    def no_draw(*args):
        raise AssertionError("an oversized run drew its samples")

    monkeypatch.setattr(certify, "_sample_block", no_draw)
    monkeypatch.setattr(certify, "fresh_stream", no_draw)
    for argv in (
        ["certify", "--method", "mc", "--n", "300000", "--m", "2", "--p", "1", "--q", "2",
         "--samples", "1"],
        ["certify", "--method", "adversarial", "--n", "20000", "--m", "2", "--p", "1", "--q", "2"],
        ["oracle", "--s", "2", "--c", "1", "--t", "0.5", "--n", "1000000000"],
    ):
        tracemalloc.start()
        try:
            code, out, err = run_cli(capsys, *argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2 and out == "" and peak < 1 << 20
        assert err.startswith("error: ") and err.count("\n") == 1 and "exceed the cap" in err


# --- every command line ends in a documented status ---------------------------------


def _pick(valid, bad):
    """A valid token seven times in eight, else an invalid or oversized one."""
    return st.integers(0, 7).flatmap(lambda k: st.sampled_from(bad if k == 0 else valid))


def _tokens(valid, bad, most=3):
    """A comma-separated list of 1..most tokens."""
    return st.lists(_pick(valid, bad), min_size=1, max_size=most).map(",".join)


def _options(required, **choices):
    """The options with drawn values in a fixed order; those not ``required``
    may be left out."""
    pairs = []
    for flag, values in choices.items():
        pair = values.map(lambda v, f=flag: ("--" + f.replace("_", "-"), v))
        pairs.append(pair if flag in required.split() else st.one_of(st.just(()), pair))
    return st.tuples(*pairs).map(lambda ps: [token for pair in ps for token in pair])


_P = _pick(["1", "1.5", "2"], ["0.5", "inf", "nan", "-inf", "x"])
_Q = _pick(["2", "4", "inf"], ["1", "0.5", "nan", "x"])
_WORKERS = _pick(["1", "2"], ["0", "-1", "x"])

# Valid sizes stay small so that each run takes milliseconds. The oversized
# ones (n = 300000 or 10^12 in certify, n = 10^9 in oracle and group) must be
# refused before anything is allocated.
_COMMANDS = {
    "bounds": _options(
        "p q eps n", p=_P, q=_pick(["1", "2", "4", "inf"], ["0.5", "nan", "x"]),
        eps=_tokens(["0.5", "1e-3", "4", "1e-300"], ["0", "-1", "nan", "inf", "x"]),
        n=_tokens(["1", "100", str(10**21)], ["0", "-3", "x"])),
    "map": _options("m", m=_pick(["0", "1", "3", str(10**12)], ["-1", "x"]), q=_Q),
    "certify": _options(
        "p q n m", method=_pick(["mc", "adversarial"], ["x"]), p=_P, q=_Q,
        n=_pick(["1", "4", "8"], ["0", "-2", "300000", str(10**12), "x"]),
        m=_pick(["0", "1", "3", "9"], ["-1", "1.5"]),
        samples=_pick(["1", "100", "5000"], ["0", "-1", "x"]),
        restarts=_pick(["1", "3"], ["0", "-1", str(10**9), "x"]), workers=_WORKERS),
    "oracle": _options(
        "s c t n", s=_tokens(["1", "2", "2.5", "400"], ["0.5", "nan"]),
        c=_tokens(["1", "0.7", "0"], ["-1", "nan", "inf"]),
        t=_tokens(["0.5", "10", "0"], ["-1", "nan"]),
        n=_tokens(["1", "4"], ["0", "-1", str(10**9)], most=2),
        samples=_pick(["0", "64"], ["-5", "x"])),
    "group": _options(
        "", task=_pick(["table", "embed"], ["x"]),
        dim=_pick(["1", "2"], ["0", "-1", "1000"]), p=_P,
        eps=_pick(["0.5", "0.25", "1e-9"], ["0", "-1", "nan", "inf"]),
        n=_tokens(["1", "2"], ["0", "-1", str(10**9)], most=2),
        samples=_pick(["1", "50"], ["0", "-1"]),
        weight_base=_pick(["2", "1e308"], ["1", "0.5", "nan"]),
        weight_total=_pick(["0.75", "1"], ["0", "2", "nan"]), workers=_WORKERS),
}
_SEED = _pick(["0", "0x5EED", str(2**64 - 1)], ["-1", str(2**64), "1.5", "x"])
_VECTOR = _pick(["-3 1 2", "0.5 -0.25"], ["", "1 nan", "1e400 2", "abc"])


def _failed_bound(command, out) -> bool:
    if command == "certify":
        return not report_from_json(out).passed
    if command == "oracle":
        return not all(row["passed"] for row in json.loads(out)["rows"])
    return command == "group" and not embedding_report_from_json(out).passed


@settings(max_examples=500, deadline=None)
@given(st.sampled_from(sorted(_COMMANDS)).flatmap(
    lambda c: st.tuples(st.just(c), _COMMANDS[c], _SEED, _VECTOR)))
@example(("certify", ["--method", "mc", "--n", "300000", "--m", "2", "--p", "1", "--q", "2",
                      "--samples", "1"], "0", ""))
@example(("certify", ["--p", "1", "--q", "2", "--n", "8", "--m", "1", "--samples", "100"],
          str(2**64), ""))
def test_every_command_line_ends_in_a_documented_status(case):
    command, options, seed, vector = case
    argv = [command, *options, "--seed", seed, "--format", "json"]
    draw = certify._sample_block

    def capped_draw(seed, b, n, p):  # an oversized block fails here, unallocated
        assert certify.BLOCK * n <= certify.MAX_CERTIFY_CELLS, argv
        return draw(seed, b, n, p)

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            mock.patch("sys.stdin", io.StringIO(vector + "\n")), \
            mock.patch.object(certify, "_sample_block", capped_draw):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refuses the command line
            code = exc.code
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2, 3), argv
    assert "Traceback" not in err, argv
    if code == 1:
        assert _failed_bound(command, out), argv
    if code == 2:
        assert sum("error:" in line for line in err.splitlines()) == 1 and out == "", argv
