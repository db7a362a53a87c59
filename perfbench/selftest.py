"""Quick self-test of the benchmark, about a minute.

    python3 perfbench/selftest.py

Runs every workload at its smallest size (``--smoke``) in both trace
modes and checks that the run is correct and that the printed metric
names and units equal those declared in ``BENCHMARK.json``. Runs the
traced mode twice and checks that every count repeats exactly. Finally
checks that the benchmark fails, without printing a result, in a
directory that holds only ``BENCHMARK.json`` and the benchmark's files.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
COUNT_SUFFIXES = (".calls", ".rows", ".sweeps")


def _run(cwd, workload, trace, seed=3):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        counts = []
        for trace in (0, 1, 1):
            done = _run(ROOT, workload, trace)
            if done.returncode != 0:
                problems.append(f"{workload} trace={trace}: exit {done.returncode}\n{done.stderr}")
                continue
            result = json.loads(done.stdout.splitlines()[-1])
            printed = {name: m["unit"] for name, m in result["metrics"].items()}
            if printed != declared[trace]:
                problems.append(f"{workload} trace={trace}: metrics differ from BENCHMARK.json: "
                                f"{sorted(set(printed.items()) ^ set(declared[trace].items()))}")
            if not result["correct"] or result["failed"]:
                problems.append(f"{workload} trace={trace}: not correct")
            if trace:
                counts.append({k: m["value"] for k, m in result["metrics"].items()
                               if k.endswith(COUNT_SUFFIXES)})
        if len(counts) == 2 and counts[0] != counts[1]:
            problems.append(f"{workload}: traced counts differ between runs")
        print(f"{workload}: checked", flush=True)

    bare = ROOT / ".perfbench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    done = _run(bare, spec["workloads"][0]["name"], 0)
    if done.returncode == 0 or done.stdout.strip():
        problems.append(f"bare directory: exit {done.returncode}, stdout {done.stdout!r}")
    shutil.rmtree(bare)

    for problem in problems:
        print("PROBLEM", problem)
    print("selftest", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
