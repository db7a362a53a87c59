"""widim benchmark: four CLI workloads run in-process, closed loop, one client.

One workload per run, as the benchmark contract calls it:

    python3 perfbench/run.py --workload mc-certify --seed 1 --seconds 25 --trace 0

``--trace 0`` runs the workload's jobs one after another through
``widim.cli.main`` for ``--seconds`` and reports the end-to-end metrics,
with every time scaled to a reference host speed (see ``end_to_end``).
``--trace 1`` reports the per-layer metrics instead: it runs one fixed
pass of the jobs untraced, then the same pass with boundary spans (see
``tracing.py``), and adds the isolated kernel timings and the
``--workers 2`` probes. Every report is checked; see ``workloads.py``.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.

Every workload at once, with machine facts and a second seed:

    python3 perfbench/run.py --all --seed 1 --seconds 25 --report perfbench/results.json

The program is imported from ``src/`` of the checkout this file sits in;
working files go to ``.perfbench_work/`` there.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"

sys.path.insert(0, str(HERE))

import probes  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, CheckError, options  # noqa: E402

END_TO_END_UNITS = {
    "items_per_s": "1/s",
    "job_p50_s": "s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
    "pass_share": "ratio",
}

#: Span names reported with ``.calls`` and with ``.self_s``.
TRACED_CALLS = (
    "streams.generator",
    "certify.sample_lp_ball",
    "threshold_map.distortion",
    "threshold_map.f_equivariant",
    "group_dynamics.omega_distance",
    "group_dynamics.weighted_distance",
    "group_dynamics.translate",
    "bounds.bracket",
    "bounds.guarded_count",
    "bounds.widim_equal_case",
)
TRACED_SELF = (
    "streams.generator",
    "certify.sample_lp_ball",
    "certify.monte_carlo_certify",
    "certify.adversarial_certify",
    "threshold_map.distortion",
    "threshold_map.f_equivariant",
    "group_dynamics.omega_distance",
    "group_dynamics.weighted_distance",
    "group_dynamics.translate",
    "group_dynamics.embedding_check",
    "bounds.bracket",
    "bounds.guarded_count",
    "cli.main",
)


def import_cli():
    """Import ``widim.cli`` from the checkout's ``src/``, or exit with status 1."""
    src = ROOT / "src"
    if not (src / "widim" / "cli.py").is_file():
        sys.exit(f"error: no widim sources under {src}")
    sys.path.insert(0, str(src))
    import widim.cli

    if Path(widim.cli.__file__).resolve().parent != src / "widim":
        sys.exit(f"error: imported widim from {widim.cli.__file__}, not {src}")
    return widim.cli


class Runner:
    """Runs CLI jobs, checks their reports and counts attempts and failures."""

    def __init__(self, cli, seed: int):
        self.cli = cli
        self.seed = seed
        self.out = WORK / "job.json"
        self.attempted = 0
        self.failed = 0
        self.outputs = {}  # (job name, extra arguments) -> bytes of the first run

    def run(self, job, extra=()):
        """One job; returns (seconds, output) or raises.

        The first output of a job and extra arguments is checked against
        the report invariants; every later one must equal it byte for byte.
        """
        self.out.unlink(missing_ok=True)
        argv = [*job.argv, *extra, "--seed", str(self.seed), "--format", "json",
                "--out", str(self.out)]
        start = time.perf_counter()
        status = self.cli.main(argv)  # looked up per call, so the tracer sees it
        seconds = time.perf_counter() - start
        if status != 0:
            raise CheckError(f"exit status {status}")
        raw = self.out.read_text()
        key = (job.name, tuple(extra))
        if key not in self.outputs:
            job.check(job, raw, self.seed)
            self.outputs[key] = raw
        elif self.outputs[key] != raw:
            raise CheckError("a rerun with the same seed gave different bytes")
        return seconds, raw

    def guarded(self, label, fn, *args):
        """Count one attempt of ``fn``; on any failure count it and return None."""
        self.attempted += 1
        try:
            return fn(*args)
        except (Exception, SystemExit) as exc:  # argparse exits with SystemExit
            self.failed += 1
            print(f"FAIL {label}: {exc!r}", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)
            return None

    def attempt(self, job):
        """Seconds of one checked job, or None if it failed."""
        done = self.guarded(job.name, self.run, job)
        return None if done is None else done[0]


#: Set-up imports measured per run, spread evenly over it.
SETUP_SAMPLES = 10


def end_to_end(runner, jobs, seconds: float) -> dict:
    """Closed loop, one client: whole passes over the jobs for ``seconds``.

    Every job's wall time is scaled to the reference host speed with the
    reference kernel timed just before and just after it (see
    ``probes.reference_seconds``), so that the shared host's swings in
    speed do not read as changes in the program. Both timings start from
    each job's median scaled time over the run, so a job slowed by a
    neighbour does not move them. ``items_per_s`` is the items of one pass
    over the sum of those medians; ``job_p50_s`` is their median.

    ``setup_s`` is the median scaled time of fresh interpreters importing
    ``widim.cli``, one between jobs every ``seconds / SETUP_SAMPLES``, so
    that the imports see the same mix of fast and slow moments as the
    jobs. The same three figures from unscaled wall times are printed.
    """
    probes.import_seconds(ROOT)  # writes the bytecode cache: paid once per install
    runner.attempt(jobs[0])  # warm-up: first calls, lazy imports
    times = {job.name: [] for job in jobs}
    wall = {job.name: [] for job in jobs}
    setup, setup_wall = [], []
    start = time.perf_counter()
    elapsed = last = next_setup = 0.0
    before = probes.reference_seconds()
    while elapsed + last / 2 <= seconds:  # most of the next pass fits
        for job in jobs:
            t = runner.attempt(job)
            after = probes.reference_seconds()
            if t is not None:
                times[job.name].append(probes.scaled(t, before, after))
                wall[job.name].append(t)
            before = after
            if time.perf_counter() - start >= next_setup:
                t = probes.import_seconds(ROOT)
                after = probes.reference_seconds()
                setup.append(probes.scaled(t, before, after))
                setup_wall.append(t)
                before = after
                next_setup += seconds / SETUP_SAMPLES
        now = time.perf_counter() - start
        elapsed, last = now, now - elapsed
    complete = all(times.values())
    items = sum(job.items for job in jobs)

    def medians(by_job):
        return [statistics.median(ts) for ts in by_job.values()] if complete else [0.0]

    print(f"timed_jobs={sum(map(len, times.values()))} setup_imports={len(setup)} "
          f"wall_items_per_s={items / sum(medians(wall)) if complete else 0.0} "
          f"wall_job_p50_s={statistics.median(medians(wall))} "
          f"wall_setup_s={statistics.median(setup_wall)}")
    return {
        "items_per_s": items / sum(medians(times)) if complete else 0.0,
        "job_p50_s": statistics.median(medians(times)),
        "setup_s": statistics.median(setup),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "pass_share": (runner.attempted - runner.failed) / runner.attempted,
    }


def _timed_pass(runner, jobs, tracer=None) -> float:
    total = 0.0
    for index, job in enumerate(jobs):
        if tracer is not None:
            tracer.job = index
        total += runner.attempt(job) or 0.0
    return total


def per_layer(runner, name, jobs, smoke: bool) -> dict:
    metrics = runner.guarded(
        "kernel block", probes.kernel_block_times, runner.seed, 512 if smoke else 4096,
        1 if smoke else 5,
    ) or dict.fromkeys(probes.KERNEL_METRICS, 0.0)
    repeats = 1 if smoke else 3
    for metric, workload, job_name in (
        ("certify.monte_carlo_certify.workers2_ratio", "mc-certify", "mc p=1 q=2 n=64 m=3"),
        ("group_dynamics.embedding_check.workers2_ratio", "lattice-embed", "embed d=1 radius=2"),
    ):
        job = next(j for j in WORKLOADS[workload](smoke) if j.name == job_name)
        ratio = runner.guarded(metric, probes.workers2_ratio, runner.run, job, repeats)
        metrics[metric] = ratio or 0.0

    runner.attempt(jobs[0])  # warm-up
    untraced = _timed_pass(runner, jobs)
    tracer = Tracer()
    tracer.install()
    try:
        traced = _timed_pass(runner, jobs, tracer)
    finally:
        tracer.uninstall()
    tracer.dump(WORK / f"spans-{name}.jsonl")

    for span in TRACED_CALLS:
        metrics[f"{span}.calls"] = tracer.calls[span]
    for span in TRACED_SELF:
        metrics[f"{span}.self_s"] = tracer.self_s[span]
    metrics["threshold_map.distortion.rows"] = tracer.rows["threshold_map.distortion"]
    # Each climb sweep evaluates both signs of every coordinate, after one
    # initial evaluation of the starts.
    climb = tracer.child_counts("threshold_map.distortion", "certify.adversarial_certify")
    metrics["certify.adversarial_certify.sweeps"] = sum(
        (climb[i] - 1) // (2 * int(options(job)["--n"]))
        for i, job in enumerate(jobs) if climb[i]
    )
    embeds = [json.loads(runner.outputs[j.name, ()]) for j in jobs
              if options(j).get("--task") == "embed" and (j.name, ()) in runner.outputs]
    sampled = sum(doc["sample_count"] for doc in embeds)
    metrics["group_dynamics.embedding_check.checked_ratio"] = (
        sum(doc["checked_count"] for doc in embeds) / sampled if sampled else 0.0
    )
    metrics["trace.overhead_ratio"] = traced / untraced if untraced else 0.0
    return metrics


def _unit(metric: str) -> str:
    if metric in END_TO_END_UNITS:
        return END_TO_END_UNITS[metric]
    if metric.endswith("_s"):
        return "s"
    return "ratio" if metric.endswith("ratio") else "count"


def run_workload(args) -> int:
    cli = import_cli()
    WORK.mkdir(exist_ok=True)
    runner = Runner(cli, args.seed)
    jobs = WORKLOADS[args.workload](args.smoke)
    if args.trace:
        values = per_layer(runner, args.workload, jobs, args.smoke)
    else:
        values = end_to_end(runner, jobs, args.seconds)
    fail_share = runner.failed / runner.attempted
    print(f"{args.workload} seed={args.seed} trace={args.trace} "
          f"attempted={runner.attempted} failed={runner.failed} fail_share={fail_share}")
    for metric, value in values.items():
        print(f"  {metric} = {value} {_unit(metric)}")
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {m: {"value": v, "unit": _unit(m)} for m, v in values.items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def _child(workload, seed, seconds, trace) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    sys.stdout.write("\n".join(done.stdout.splitlines()[:-1]) + "\n")
    return json.loads(done.stdout.splitlines()[-1])


def run_all(args) -> int:
    """Every workload, both trace modes, then a second seed untraced."""
    second = args.seed + 1
    report = {"machine": probes.machine_facts(), "seed": args.seed, "second_seed": second,
              "seconds": args.seconds, "results": {}, "second_seed_fail_share": {}}
    ok = True
    for workload in WORKLOADS:
        entry = report["results"][workload] = {}
        for trace in (0, 1):
            entry[f"trace{trace}"] = res = _child(workload, args.seed, args.seconds, trace)
            ok &= res["correct"]
        res = _child(workload, second, args.seconds, 0)
        report["second_seed_fail_share"][workload] = res["failed"] / res["attempted"]
        ok &= res["correct"]
    print(json.dumps(report["machine"]))
    print(f"second seed {second} fail_share: {report['second_seed_fail_share']}")
    if args.report:
        Path(args.report).write_text(json.dumps(report, indent=1) + "\n")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=tuple(WORKLOADS))
    parser.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--report", help="with --all: write results and machine facts here")
    parser.add_argument("--smoke", action="store_true",
                        help="smallest job sizes, for the self-test")
    args = parser.parse_args(argv)
    if args.all:
        return run_all(args)
    if args.workload is None:
        parser.error("give --workload NAME or --all")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
