"""Acceptance gate: every shipped claim, one verdict line per criterion.

Each test prints exactly one PASS/FAIL line to the real stdout (bypassing
pytest capture) and then asserts. Runtime caps are part of the verdict.
Criteria 2 and 7 cache their worker=1 reports so criterion 8 can re-run the
same configurations at other worker counts and compare bytes.
"""

import math
import subprocess
import sys
import time

import numpy as np

from widim.bounds import (
    asymptotic_exponent_fit,
    widim_equal_case,
    widim_lower,
    widim_upper,
    widim_upper_plateau,
)
from widim.certify import (
    adversarial_certify,
    check_lemma_swap,
    key_lemma_oracle_max,
    monte_carlo_certify,
)
from widim._output import csv_lines, to_json
from widim.core import make_exponents
from widim.group_dynamics import (
    LatticeBox,
    embedding_check,
    geometric_weight_metric,
    mean_dimension_table,
    tail_set,
    widim_constant,
)
from widim.signed_perm import act, random_element
from widim.threshold_map import (
    distortion,
    distortion_bound,
    extremal_vector,
    f_closed,
    f_equivariant,
)

SEED = 0x5EED

# criterion 2 configuration grid, shared with criterion 8
PQ_GRID = ((1.0, 2.0), (1.0, math.inf), (2.0, math.inf), (2.0, 4.0))
N_GRID = (8, 64)
M_GRID = (0, 1, 3, 7)
MC_SAMPLES = 100_000
ADV_RESTARTS = 32

_cache = {}


def verdict(capfd, num, name, ok, detail, elapsed, cap):
    ok = bool(ok) and elapsed < cap
    line = (
        f"ACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'}"
        f" ({detail}; {elapsed:.1f}s of {cap:.0f}s budget)"
    )
    with capfd.disabled():  # verdicts must survive pytest capture
        print(line, flush=True)
    assert ok, line


def stress_batch(rng, count, n):
    """Batch of vectors with ties, zeros, and extreme magnitudes."""
    X = rng.normal(size=(count, n))
    quarter = count // 4
    X[quarter : 2 * quarter] = np.round(X[quarter : 2 * quarter], 1)
    X[2 * quarter : 3 * quarter] = rng.choice(
        [-1.0, -0.5, 0.0, 0.5, 1.0], size=(quarter, n)
    )
    X[3 * quarter :] *= 10.0 ** rng.integers(-300, 301, size=(count - 3 * quarter, 1))
    X[rng.random(size=(count, n)) < 0.15] = 0.0
    return X


def test_criterion_1_oracle_equivalence(capfd):
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED)
    mismatches = 0
    pairs = 0
    for n in (2, 4, 8, 16, 32):
        X = stress_batch(rng, 100_000, n)
        for m in sorted({0, 1, 3, n - 1, n, n + 1}):
            a = f_equivariant(X, m)
            b = f_closed(X, m)
            if not np.array_equal(a.view(np.uint64), b.view(np.uint64)):
                mismatches += int(np.sum(np.any(a.view(np.uint64) != b.view(np.uint64), axis=1)))
            pairs += 1
    elapsed = time.perf_counter() - t0
    verdict(
        capfd,
        1,
        "oracle equivalence f_equivariant vs f_closed",
        mismatches == 0,
        f"bit-exact on 1e5 vectors x {pairs} (n, m) pairs, {mismatches} mismatches",
        elapsed,
        30.0,
    )


def _criterion_2_reports():
    """All certification reports of criterion 2 at workers=1, memoized."""
    if "crit2" in _cache:
        return _cache["crit2"]
    reports = {}
    for p, q in PQ_GRID:
        e = make_exponents(p, q)
        for n in N_GRID:
            for m in M_GRID:
                mc = monte_carlo_certify(n, m, e, MC_SAMPLES, seed=SEED)
                adv = adversarial_certify(n, m, e, ADV_RESTARTS, seed=SEED)
                reports[(p, q, n, m)] = (mc, adv)
    _cache["crit2"] = reports
    return reports


def test_criterion_2_distortion_certification(capfd):
    t0 = time.perf_counter()
    reports = _criterion_2_reports()
    failures = []
    worst_margin = math.inf
    for (p, q, n, m), (mc, adv) in reports.items():
        e = make_exponents(p, q)
        if not mc.passed:
            failures.append(("mc", p, q, n, m, mc.margin))
        if not adv.passed:
            failures.append(("adversarial", p, q, n, m, adv.margin))
        worst_margin = min(worst_margin, mc.margin, adv.margin)
        gap = abs(distortion(extremal_vector(m, p, n), m, q) - distortion_bound(m, e))
        if gap > 1e-12:
            failures.append(("extremal", p, q, n, m, gap))
    elapsed = time.perf_counter() - t0
    verdict(
        capfd,
        2,
        "distortion bound certification",
        not failures,
        f"{len(reports)} configs x (mc N=1e5 + adversarial 32 restarts),"
        f" worst margin {worst_margin:.2e}, extremal within 1e-12,"
        f" failures {failures[:3]}",
        elapsed,
        120.0,
    )


def test_criterion_3_equivariance_idempotence(capfd):
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED + 3)
    bad = 0
    for n in (3, 8, 33):
        X = stress_batch(rng, 10_000, n)
        for i in range(X.shape[0]):
            x = X[i]
            g = random_element(n, rng)
            m = int(rng.integers(0, n + 2))
            fx = f_equivariant(x, m)
            lhs = f_equivariant(act(g, x), m)
            rhs = act(g, fx)
            if not np.array_equal(lhs.view(np.uint64), rhs.view(np.uint64)):
                bad += 1
            ffx = f_equivariant(fx, m)
            if not np.array_equal(ffx.view(np.uint64), fx.view(np.uint64)):
                bad += 1
    elapsed = time.perf_counter() - t0
    verdict(
        capfd,
        3,
        "equivariance and idempotence",
        bad == 0,
        f"bit-exact on 1e4 random (g, x) per n in (3, 8, 33), {bad} violations",
        elapsed,
        10.0,
    )


def test_criterion_4_bound_formulas(capfd):
    t0 = time.perf_counter()
    e12 = make_exponents(1, 2)
    ok = widim_lower(100, 0.5, e12) == 3 and widim_upper(100, 0.5, e12) == 15
    ok &= widim_upper(100, 0.5, make_exponents(2, math.inf)) == 15  # exact at q = inf
    ok &= widim_equal_case(50, 0.99, 2, 2) == 50
    ok &= widim_equal_case(50, 0.5, 3, 1) == 50

    rng = np.random.default_rng(SEED + 4)
    grid_bad = 0
    for _ in range(10_000):
        n = int(rng.integers(1, 1_000_001))
        eps = float(rng.uniform(0.01, 4.0))
        p = float(rng.uniform(1.0, 3.0))
        q = float(rng.uniform(p + 0.1, 8.0)) if rng.random() < 0.8 else math.inf
        e = make_exponents(p, q)
        lo, hi = widim_lower(n, eps, e), widim_upper(n, eps, e)
        if not 0 <= lo <= hi <= n:
            grid_bad += 1

    # ceiling guard at exact-integer powers (2/eps)^r
    guard_ok = widim_upper_plateau(2.0 / 3.0, e12) == 8  # (2/eps)^2 = 9
    for k in (2, 3, 5, 9, 81, 1024):
        eps = 2.0 / math.sqrt(k)
        guard_ok &= widim_upper_plateau(eps, e12) == k - 1
    elapsed = time.perf_counter() - t0
    verdict(
        capfd,
        4,
        "closed-form width bounds",
        ok and grid_bad == 0 and guard_ok,
        f"hand values ok={ok}, 1e4 grid bracket violations {grid_bad},"
        f" integer-point guard ok={guard_ok}",
        elapsed,
        5.0,
    )


def test_criterion_5_asymptotic_rate(capfd):
    t0 = time.perf_counter()
    grid = [2.0**-k for k in range(3, 11)]
    worst = 0.0
    for p, q in ((1, 2), (1, math.inf), (2, 4)):
        e = make_exponents(p, q)
        for use in ("upper", "lower"):
            slope = asymptotic_exponent_fit(e, grid, use=use)
            worst = max(worst, abs(slope - e.r) / e.r)
    elapsed = time.perf_counter() - t0
    verdict(
        capfd,
        5,
        "log-count slope recovers the rate",
        worst <= 0.10,
        f"max relative error {worst:.3f} over 3 exponent pairs x 2 families",
        elapsed,
        1.0,
    )


def test_criterion_6_lemma_oracles(capfd):
    t0 = time.perf_counter()
    grid = np.round(np.arange(0.0, 2.0001, 0.05), 10)
    swap_bad = 0
    for s in (1.0, 1.5, 2.0, 3.0):
        for x in grid:
            for y in grid[grid <= x]:
                for z in grid:
                    if not check_lemma_swap(s, x, y, z):
                        swap_bad += 1
    key_bad = 0
    for s in (1.0, 1.5, 2.0, 4.0):
        for c in (0.5, 1.0, 2.0):
            for t in (0.1, 0.25, 0.5):
                for n in range(1, 9):
                    got = key_lemma_oracle_max(s, c, t, n, samples=2048, seed=SEED)
                    if got > c * t ** (s - 1.0) + 1e-12 * max(1.0, c * t ** (s - 1.0)):
                        key_bad += 1
    elapsed = time.perf_counter() - t0
    verdict(
        capfd,
        6,
        "scalar inequality oracles",
        swap_bad == 0 and key_bad == 0,
        f"swap grid violations {swap_bad}, budget-cap oracle violations {key_bad}",
        elapsed,
        30.0,
    )


def _criterion_7_report():
    if "crit7" in _cache:
        return _cache["crit7"]
    M = geometric_weight_metric()
    rep = embedding_check(M, LatticeBox((0,), 2), 1.0, 0.5, 10_000, seed=SEED)
    _cache["crit7"] = rep
    return rep


def test_criterion_7_lattice_harness(capfd):
    t0 = time.perf_counter()
    M = geometric_weight_metric()
    tail_ok = set(tail_set(M, (0,), 0.5)) == {(-2,), (-1,), (0,), (1,), (2,)}
    const_ok = widim_constant(1.0, 0.5) == 7
    rep = _criterion_7_report()
    table = mean_dimension_table(M, 1.0, 0.5, list(range(1, 8)))
    ratios_ok = all(
        row[2] == 7.0 / (2 * r + 1) for r, row in zip(range(1, 8), table.rows)
    )
    final_ok = table.rows[-1][2] < 0.5
    elapsed = time.perf_counter() - t0
    verdict(
        capfd,
        7,
        "lattice mean-dimension harness",
        tail_ok and const_ok and rep.failure_count == 0 and ratios_ok and final_ok,
        f"tail box ok={tail_ok}, constant ok={const_ok},"
        f" embed failures {rep.failure_count}/{rep.checked_count} checked,"
        f" ratios exact={ratios_ok}, final ratio {table.rows[-1][2]:.4f}",
        elapsed,
        30.0,
    )


def test_criterion_8_worker_byte_identity(capfd):
    t0 = time.perf_counter()
    base2 = _criterion_2_reports()
    base7 = _criterion_7_report()
    diffs = 0
    for workers in (4, 16):
        for (p, q, n, m), (mc, adv) in base2.items():
            e = make_exponents(p, q)
            mc2 = monte_carlo_certify(n, m, e, MC_SAMPLES, seed=SEED, workers=workers)
            adv2 = adversarial_certify(n, m, e, ADV_RESTARTS, seed=SEED, workers=workers)
            if to_json(mc2) != to_json(mc):
                diffs += 1
            if csv_lines(mc2) != csv_lines(mc):
                diffs += 1
            if to_json(adv2) != to_json(adv):
                diffs += 1
        M = geometric_weight_metric()
        rep = embedding_check(
            M, LatticeBox((0,), 2), 1.0, 0.5, 10_000, seed=SEED, workers=workers
        )
        if to_json(rep) != to_json(base7):
            diffs += 1
        if csv_lines(rep) != csv_lines(base7):
            diffs += 1

    # spot check the installed command line surface as well
    cli_outputs = set()
    for workers in ("1", "4", "16"):
        proc = subprocess.run(
            [sys.executable, "-m", "widim.cli", "certify", "--p", "1", "--q", "2",
             "--n", "16", "--m", "3", "--samples", "4000", "--workers", workers],
            capture_output=True, text=True, timeout=300,
        )
        cli_outputs.add((proc.returncode, proc.stdout))
    diffs += len(cli_outputs) - 1
    elapsed = time.perf_counter() - t0
    verdict(
        capfd,
        8,
        "byte-identical reports for workers 1, 4, 16",
        diffs == 0,
        f"criteria 2 and 7 re-run at workers 4 and 16 plus CLI spot check,"
        f" {diffs} byte differences",
        elapsed,
        600.0,
    )
