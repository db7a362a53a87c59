"""Lattice harness: weights, finitely supported points, tails, embedding."""

import hashlib
import math
import time
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import widim._streams as _streams
import widim.group_dynamics as group_dynamics
from widim._streams import DOMAIN_PAIRS, _subsets, fresh_stream
from widim._output import csv_lines, from_json, table_csv_lines, to_json
from widim.core import MAX_CELLS
from widim.group_dynamics import (
    MAX_OUTSIDE_SUPPORT,
    MAX_SUPPORT,
    PAIR_DRAW,
    SCORE_ROWS,
    EmbeddingReport,
    FinitelySupportedPoint,
    LatticeBox,
    WeightedGroupMetric,
    embedding_check,
    geometric_weight_metric,
    mean_dimension_table,
    omega_distance,
    tail_set,
    translate,
    weighted_distance,
    widim_constant,
    _Window,
    _union,
)


def pt(support, values, p=1.0):
    return FinitelySupportedPoint(tuple(support), tuple(values), p)


# --- lattice boxes -------------------------------------------------------------


def test_lattice_box_basics():
    box = LatticeBox((0,), 2)
    assert len(box) == 5
    assert list(box) == [(-2,), (-1,), (0,), (1,), (2,)]
    assert (2,) in box and (3,) not in box
    box2 = LatticeBox((0, 0), 3)
    assert len(box2) == 49
    assert (3, -3) in box2 and (4, 0) not in box2
    shifted = LatticeBox((5,), 1)
    assert list(shifted) == [(4,), (5,), (6,)]
    with pytest.raises(ValueError):
        LatticeBox((0,), -1)


# --- weights --------------------------------------------------------------------


def test_default_weight_values():
    M = geometric_weight_metric()
    assert M.weight((0,)) == 0.25
    assert M.weight((1,)) == 0.125
    assert M.weight((-3,)) == 0.25 / 8
    assert M.total_bound == 0.75
    # exact geometric tail: total minus box sum is 2^(-K-1)
    for K in range(0, 12):
        assert abs(M.tail_bound(K) - 2.0 ** (-K - 1)) <= 1e-15


def test_tail_bound_has_no_cancellation():
    # eps/4 = 2.5e-18 first exceeds the tail 2^-(R+1) at R = 58, far past the
    # radius where total minus the box sum rounds to 0
    M = geometric_weight_metric()
    assert tail_set(M, (0,), 1e-17).radius == 58
    for K in range(0, 201):
        tail = M.tail_bound(K)
        assert tail > 0.0
        assert abs(tail / 2.0 ** (-K - 1) - 1.0) <= 1e-15
    # radii behind the pinned embedding runs stay where they were
    assert M.tail_bound(2) == 0.125
    assert tail_set(M, (0,), 0.5).radius == 2
    assert tail_set(geometric_weight_metric(dim_d=2), (0, 0), 0.5).radius == 3


def test_weight_total_matches_numeric_sum():
    for d, base, total in ((1, 2.0, 0.75), (2, 2.0, 0.9), (1, 3.0, 1.0), (2, 1.5, 0.5)):
        M = geometric_weight_metric(d, base, total)
        numeric = sum(M.weight(g) for g in LatticeBox((0,) * d, 30 if d == 1 else 14))
        assert abs(numeric - (total - M.tail_bound(30 if d == 1 else 14))) <= 1e-12
        assert numeric <= total + 1e-12


def test_tail_certificate_soundness():
    # numeric tail mass (total minus in-box sum) respects the certificate
    for d in (1, 2):
        M = geometric_weight_metric(dim_d=d)
        for eps in (0.5, 1.0, 2.0):
            box = tail_set(M, (0,) * d, eps)
            in_box = sum(M.weight(g) for g in box)
            numeric_tail = M.total_bound - in_box
            assert numeric_tail <= eps / 4.0 + 1e-12


def test_weight_validation():
    with pytest.raises(ValueError):
        geometric_weight_metric(base=1.0)
    with pytest.raises(ValueError):
        geometric_weight_metric(total=1.5)
    with pytest.raises(ValueError):
        geometric_weight_metric(total=0.0)
    with pytest.raises(ValueError):
        geometric_weight_metric(dim_d=0)
    with pytest.raises(ValueError):
        WeightedGroupMetric(1, lambda g: 1.0, lambda k: 0.0, 2.0)


@pytest.mark.parametrize("base", [0.5, -math.inf, math.inf, math.nan])
def test_weight_base_must_be_a_finite_real_above_one(base):
    # an infinite base would make every weight inf / inf = NaN, and an embed
    # check on that metric would pass with a NaN worst margin
    rule = "a finite real above 1" if base == 0.5 else "a positive finite real"
    with pytest.raises(ValueError, match=f"decay base must be {rule}, got {base}"):
        geometric_weight_metric(base=base)


def test_huge_finite_weight_base_still_works():
    M = geometric_weight_metric(base=1e308)
    assert M.weight((0,)) == 0.75 and M.weight((1,)) == 0.75 / 1e308
    assert math.isfinite(M.tail_bound(0)) and M.tail_bound(1) == 0.0


# --- finitely supported points ---------------------------------------------------


def test_point_canonical_form():
    x = pt([(3,), (1,), (2,)], [0.1, 0.2, 0.0])
    assert x.support == ((1,), (3,))  # sorted, exact zero dropped
    assert x.values == (0.2, 0.1)
    assert x.value_at((1,)) == 0.2
    assert x.value_at((9,)) == 0.0
    assert x.dim == 1
    empty = pt([], [])
    assert empty.support == () and empty.dim is None


def test_point_equality_is_by_value_and_points_are_unhashable():
    # the dataclass compares (support, values, p); the lookup index is not compared
    x = pt([(3,), (1,)], [0.1, 0.2])
    assert x == pt([(1,), (3,), (2,)], [0.2, 0.1, 0.0])
    assert x != pt([(1,), (3,)], [0.2, 0.1], p=2.0)
    assert x != pt([(1,), (4,)], [0.2, 0.1])
    assert x != ((1,), (3,))
    with pytest.raises(TypeError):
        hash(x)


def test_point_validation():
    with pytest.raises(ValueError):
        pt([(0,), (0,)], [0.3, 0.3])  # duplicate support
    with pytest.raises(ValueError):
        pt([(0,), (1, 2)], [0.3, 0.3])  # mixed dimension
    with pytest.raises(ValueError):
        pt([(0,)], [0.6, 0.6])  # length mismatch
    with pytest.raises(ValueError):
        pt([(0,), (1,)], [0.8, 0.8])  # outside the 1-ball
    with pytest.raises(ValueError):
        pt([(0,)], [math.nan])
    with pytest.raises(ValueError):
        pt([(0,)], [0.5], p=0.5)
    # sup-norm ball accepts coordinate-wise bounded values
    y = pt([(0,), (5,)], [1.0, -1.0], p=math.inf)
    assert y.values == (1.0, -1.0)


def _accepts(check, *args):
    try:
        check(*args)
    except ValueError:
        return False
    return True


@settings(max_examples=200, deadline=None)
@given(values=st.lists(st.floats(0.01, 1.0), min_size=1, max_size=40),
       p=st.sampled_from((1.0, 1.5, 2.0, 3.0, math.inf)))
def test_point_membership_matches_the_block_check(values, p):
    # scaled across the boundary 1 + BALL_TOLERANCE ulp by ulp, a row is
    # accepted by the point constructor exactly when the block check accepts it
    row = np.array(values)
    row /= row.max() if math.isinf(p) else float(np.sum(row**p)) ** (1.0 / p)
    support = [(j,) for j in range(row.size)]
    for k in range(-64, 65):
        scaled = row * (1.0 + 1e-12 / (1.0 if math.isinf(p) else p) + k * 2.0**-52)
        block = _accepts(group_dynamics._check_in_ball, scaled[None, :], p)
        assert _accepts(pt, support, scaled, p) == block


def test_translate_pinned():
    x = pt([(0,)], [1.0])
    assert translate(x, (0,)) == x
    moved = translate(x, (1,))
    assert moved.support == ((-1,),)
    assert moved.values == (1.0,)
    rng = np.random.default_rng(51)
    for _ in range(200):
        k = int(rng.integers(1, 5))
        sup = rng.choice(np.arange(-8, 9), size=k, replace=False)
        vals = rng.uniform(-0.2, 0.2, size=k)
        x = pt([(int(s),) for s in sup], vals)
        a, b = int(rng.integers(-5, 6)), int(rng.integers(-5, 6))
        assert translate(translate(x, (a,)), (b,)) == translate(x, (a + b,))


def test_weighted_distance_pinned():
    M = geometric_weight_metric()
    x = pt([(0,)], [1.0])
    zero = pt([], [])
    assert weighted_distance(x, x, M) == 0.0
    assert weighted_distance(x, zero, M) == 0.25  # single term w(0) * 1
    y = pt([(1,)], [0.5])
    assert weighted_distance(x, y, M) == weighted_distance(y, x, M)
    assert weighted_distance(x, y, M) == 0.25 * 1.0 + 0.125 * 0.5
    with pytest.raises(ValueError):
        weighted_distance(x, pt([(0,)], [0.5], p=2.0), M)


def test_omega_distance_basics():
    M = geometric_weight_metric()
    rng = np.random.default_rng(52)
    for _ in range(100):
        k = int(rng.integers(1, 4))
        sup = rng.choice(np.arange(-5, 6), size=k, replace=False)
        x = pt([(int(s),) for s in sup], rng.uniform(-0.2, 0.2, size=k))
        y = pt([(0,)], [float(rng.uniform(-0.5, 0.5))])
        assert omega_distance(x, y, M, [(0,)]) == weighted_distance(x, y, M)
        assert omega_distance(x, x, M, LatticeBox((0,), 2)) == 0.0
        small = omega_distance(x, y, M, LatticeBox((0,), 1))
        large = omega_distance(x, y, M, LatticeBox((0,), 3))
        assert small <= large
    with pytest.raises(ValueError):
        omega_distance(x, y, M, [])


def test_omega_distance_translation_bookkeeping():
    # d_Omega(x shifted, y shifted) equals d over the shifted probe set
    M = geometric_weight_metric()
    rng = np.random.default_rng(53)
    for _ in range(200):
        k = int(rng.integers(1, 4))
        sup = rng.choice(np.arange(-6, 7), size=k, replace=False)
        x = pt([(int(s),) for s in sup], rng.uniform(-0.2, 0.2, size=k))
        sup2 = rng.choice(np.arange(-6, 7), size=2, replace=False)
        y = pt([(int(s),) for s in sup2], rng.uniform(-0.2, 0.2, size=2))
        delta = int(rng.integers(-4, 5))
        omega = [(int(v),) for v in rng.choice(np.arange(-3, 4), size=3, replace=False)]
        lhs = omega_distance(translate(x, (delta,)), translate(y, (delta,)), M, omega)
        rhs = omega_distance(x, y, M, [(o[0] + delta,) for o in omega])
        assert lhs == rhs  # identical floats, not just close


# --- tails and the constant -------------------------------------------------------


def test_tail_set_pinned():
    M = geometric_weight_metric()
    assert set(tail_set(M, (0,), 0.5)) == {(-2,), (-1,), (0,), (1,), (2,)}
    assert set(tail_set(M, (0,), 2.0)) == {(0,)}  # tail(0) = 1/2 <= 2/4
    assert set(tail_set(M, (3,), 0.5)) == {(1,), (2,), (3,), (4,), (5,)}
    with pytest.raises(ValueError):
        tail_set(M, (0,), 0.0)


def test_tail_set_decides_ties_exactly():
    # the exact tail of the float weight at radius 1 is 0.9 * 5/9 with 0.9
    # rounded up, so it exceeds eps/4 = 0.5 by about 1e-17 although the
    # closed form rounds to 0.5
    M = geometric_weight_metric(dim_d=2, total=0.9)
    assert M.tail_bound(1) == 0.5
    assert tail_set(M, (0, 0), 2.0).radius == 2
    # float 0.9 / 12 exceeds float 0.3 / 4
    assert tail_set(geometric_weight_metric(total=0.9), (0,), 0.3).radius == 4
    # exact ties keep the smaller box: the default weight's tail(2) = 1/8
    assert tail_set(geometric_weight_metric(), (0,), 0.5).radius == 2
    assert tail_set(geometric_weight_metric(), (0,), 2.0).radius == 0


def test_tail_set_matches_exact_rationals():
    # the radius is the smallest R whose exact tail is at most eps/4, tried
    # at scales where the closed form sits on or next to a tie
    for d in (1, 2, 3):
        for base in (1.5, 2.0, 3.0):
            for total in (0.5, 0.75, 0.9, 1.0):
                M = geometric_weight_metric(d, base, total)
                b = Fraction(base)

                def exact_tail(R):
                    return Fraction(total) * (1 - (1 - 2 / ((b + 1) * b**R)) ** d)

                for R in range(8):
                    for eps in (4.0 * M.tail_bound(R), 4.0 * float(exact_tail(R)), 0.3):
                        want = 0
                        while exact_tail(want) > Fraction(eps) / 4:
                            want += 1
                        assert tail_set(M, (0,) * d, eps).radius == want


def test_widim_constant_pinned():
    assert widim_constant(1, 0.5) == 7
    assert widim_constant(2, 1.0) == 15
    assert widim_constant(1, 4.0) == 0
    assert widim_constant(1, 1e-30) is None  # saturation marker
    assert widim_constant(1000, 1e-3) is None  # 4000^1000 overflows a double
    with pytest.raises(ValueError):
        widim_constant(0.5, 0.5)


# --- embedding check ---------------------------------------------------------------


def test_embedding_check_small_run():
    M = geometric_weight_metric()
    rep = embedding_check(M, LatticeBox((0,), 2), 1.0, 0.5, 2000)
    assert isinstance(rep, EmbeddingReport)
    assert rep.failure_count == 0 and rep.passed
    assert 0 < rep.checked_count <= rep.sample_count
    assert rep.worst_margin is not None and rep.worst_margin < 0.0
    assert rep.witness is None
    assert rep.omega == tuple(sorted(LatticeBox((0,), 2)))
    assert rep.omega_prime_size == len(set().union(
        *(set(tail_set(M, d, 0.5)) for d in LatticeBox((0,), 2))
    ))


@st.composite
def _scattered_probes(draw):
    d = draw(st.integers(1, 3))
    coord = st.integers(-3, 3) if d < 3 else st.integers(-1, 1)
    omega = draw(st.lists(st.tuples(*[coord] * d), min_size=1, max_size=6, unique=True))
    M = geometric_weight_metric(dim_d=d, base=draw(st.sampled_from((2.0, 3.0))))
    return M, omega, draw(st.sampled_from((0.5, 1.0, 2.0, 4.0)))


@settings(max_examples=60, deadline=None)
@given(_scattered_probes())
def test_omega_prime_size_is_the_union_of_tail_boxes(case):
    # probe sets with negative, scattered points, not only centred boxes
    M, omega, eps = case
    rep = embedding_check(M, omega, 1.0, eps, 1)
    radius = tail_set(M, omega[0], eps).radius
    assert rep.omega_prime_size == len(set().union(*(set(LatticeBox(d, radius)) for d in omega)))


def test_embedding_check_workers_byte_identical():
    M = geometric_weight_metric()
    a = embedding_check(M, LatticeBox((0,), 1), 1.0, 0.5, 1500, seed=3)
    b = embedding_check(M, LatticeBox((0,), 1), 1.0, 0.5, 1500, seed=3, workers=4)
    assert a == b
    assert to_json(a) == to_json(b)


def test_embedding_report_round_trip():
    M = geometric_weight_metric()
    rep = embedding_check(M, [(0,), (1,)], 1.0, 0.5, 300, seed=9)
    back = from_json(EmbeddingReport, to_json(rep))
    assert back == rep
    header, row = csv_lines(rep)
    assert header.count(",") == row.count(",")


def test_projection_is_one_lipschitz_on_samples():
    # gap over the union box never exceeds the sup gap over all coordinates
    M = geometric_weight_metric()
    prime = tuple(sorted(set().union(
        *(set(tail_set(M, d, 0.5)) for d in LatticeBox((0,), 2))
    )))
    window = tuple(LatticeBox((0,), 2 * max(abs(g[0]) for g in prime)))
    rng = np.random.default_rng(54)
    for _ in range(300):
        idx = rng.choice(len(window), size=4, replace=False)
        x = pt([window[i] for i in idx], rng.dirichlet(np.ones(4)) * 0.9)
        idx2 = rng.choice(len(window), size=3, replace=False)
        y = pt([window[i] for i in idx2], rng.dirichlet(np.ones(3)) * 0.8)
        proj_gap = max(abs(x.value_at(g) - y.value_at(g)) for g in prime)
        full_gap = max(abs(x.value_at(g) - y.value_at(g)) for g in window)
        assert proj_gap <= full_gap + 1e-15


def test_embedding_check_validation():
    M = geometric_weight_metric()
    with pytest.raises(ValueError):
        embedding_check(M, [], 1.0, 0.5, 10)
    with pytest.raises(ValueError):
        embedding_check(M, [(0,)], 1.0, -0.5, 10)
    with pytest.raises(ValueError):
        embedding_check(M, [(0,)], 1.0, 0.5, 0)
    with pytest.raises(ValueError):
        embedding_check(M, [(0,)], 1.0, 0.5, True)


def test_embedding_check_window_guard():
    # a probe set larger than the cap is refused before it is listed
    M = geometric_weight_metric(dim_d=4)
    # or whose weight table, of at least |omega|^2 cells, could never fit
    for radius in (30, 12):
        omega = LatticeBox((0,) * 4, radius)
        assert len(omega) ** 2 > MAX_CELLS
        t0 = time.perf_counter()
        with pytest.raises(ValueError, match=f"probe set: {len(omega)} x {len(omega)} = "):
            embedding_check(M, omega, 1.0, 0.5, 1)
        assert time.perf_counter() - t0 < 5.0


# SHA-256 of to_json(report). Re-recorded when blocks grew from 64
# to PAIR_DRAW = 512 pairs, and the runs at p = 1, 1.5, 3 and 50 again when
# each sign became one bit of a 64-bit sign word, both declared changes of the
# stream layout, after checking that every geometric-weight run still passes,
# every lying-tail run still fails with a witness (p = 1: 8 failures, witness
# at pair 6; p = 2: 50 at pair 1; 6561 columns: 46 at pair 6), and criterion 7
# passes. Unlike EMBED_GOLDEN in test_cli.py these runs reach p = 1.5 and 3,
# an exact zero drawn at p = 50 (in pair 17 of seed 1538, a perturbed pair; see
# test_p50_golden_run_draws_an_exact_zero), and a weight whose tail bound
# lies, so failures and their witness payload are pinned too.
def _lying_metric():
    # claims no mass outside radius 1 although the weight decays slowly
    return WeightedGroupMetric(
        dim_d=1,
        weight=lambda g: 0.5 * 2.0 ** (-0.2 * sum(abs(c) for c in g)),
        tail_bound=lambda radius: 0.0 if radius >= 1 else 1.0,
        total_bound=1.0,
        description="lying tail",
    )


def _lying_wide_metric():
    # the same lie at radius 20 in the plane: 6561 window columns
    return WeightedGroupMetric(
        dim_d=2,
        weight=lambda g: 0.5 * 2.0 ** (-0.02 * sum(abs(c) for c in g)),
        tail_bound=lambda radius: 0.0 if radius >= 20 else 1.0,
        total_bound=1.0,
        description="lying tail",
    )


EMBED_WITNESS_GOLDEN = {
    # name: (metric, probe radius, p, eps, samples, seed, digest)
    "d=2 p=1.5": (lambda: geometric_weight_metric(dim_d=2), 1, 1.5, 0.5, 300, 7,
                  "69dac173d4038f009e2e38b735fdd040924452655dd557fa254e0ee1083213cb"),
    "d=2 p=3": (lambda: geometric_weight_metric(dim_d=2), 1, 3.0, 0.6, 300, 11,
                "09ce6915ed98eaf8ffea534edbf6522eb7ad33b7488bf29e403f1088d19fcd08"),
    "d=2 p=inf": (lambda: geometric_weight_metric(dim_d=2), 1, math.inf, 0.5, 300, 5,
                  "80ff0138243545a7f89de04760df4e79c26f9b37019f034c55493de4c9ebb60f"),
    "d=1 p=50": (geometric_weight_metric, 2, 50.0, 0.5, 600, 1538,
                 "2e9ae07b106be5a7972d35a64346940fb194669f6aea6d9acba5fd01ff7c235c"),
    "lying p=1": (_lying_metric, 0, 1.0, 0.5, 300, 1,
                  "0eb438796b9207d5266939577107f0bcfb22b5e18bcced4833f5cda5b2dee1a6"),
    "lying p=2": (_lying_metric, 1, 2.0, 0.3, 300, 2,
                  "81f484cf7717fb7b4c373234faab8002e090213459d5fe3ae736fa4e53b81b94"),
    # Windows of 4225 to 9261 columns; each run's close pairs (76 to 139)
    # are scored in more than one slice of SCORE_ROWS.
    "d=3 4913 columns": (lambda: geometric_weight_metric(dim_d=3), 0, 1.0, 0.5, 100, 3,
                         "352368fec598de6600b656b63a5a8fcd8ada989044761149763e8fdd6ef57a1f"),
    "d=3 9261 columns": (lambda: geometric_weight_metric(dim_d=3), 1, 2.0, 0.5, 100, 8,
                         "35ddeddc1e12351248633caba879e518dcb084e5134f93ea839997f5042cdef1"),
    "d=2 eps=1e-4": (lambda: geometric_weight_metric(dim_d=2), 0, 1.5, 1e-4, 200, 5,
                     "647d9beb0fdad38147ee165942fd235ea020ad434972052314722d94f6ded995"),
    "lying d=2 6561 columns": (_lying_wide_metric, 0, 2.0, 0.5, 200, 4,
                               "a4ef7450e1eb84cf79be9524da65465109fa9513caed50e1ec650dd007426f95"),
}


@pytest.mark.parametrize("name", list(EMBED_WITNESS_GOLDEN))
def test_embedding_witness_golden_bytes(name):
    metric, radius, p, eps, samples, seed, digest = EMBED_WITNESS_GOLDEN[name]
    M = metric()
    rep = embedding_check(M, LatticeBox((0,) * M.dim_d, radius), p, eps, samples, seed=seed)
    assert (rep.witness is not None) == name.startswith("lying")
    assert hashlib.sha256(to_json(rep).encode()).hexdigest() == digest
    assert from_json(EmbeddingReport, to_json(rep)) == rep  # the witness reads back too


def _lying_asymmetric_metric():
    # decays slowly for gamma < 0 and fast for gamma > 0, so a table row read
    # at the mirrored offset, or shifted the wrong way, moves the report
    return WeightedGroupMetric(
        dim_d=1,
        weight=lambda g: 0.5 * 2.0 ** (0.1 * g[0] if g[0] <= 0 else -0.3 * g[0]),
        tail_bound=lambda radius: 0.0 if radius >= 1 else 1.0,
        total_bound=1.0,
        description="asymmetric lying tail",
    )


# SHA-256 of to_json(report) on sparse probe sets off the origin, so that each
# weight-table row is a slice of the weights shifted by its own probe, and the
# witness columns decode to points on both sides of the origin. Re-recorded
# when each sign became one bit of a 64-bit sign word: the geometric run still
# passes, and the lying run fails with 83 failures, witness at pair 1.
EMBED_PROBE_GOLDEN = {
    # name: (metric, omega, p, eps, samples, seed, digest)
    "geometric d=2": (lambda: geometric_weight_metric(dim_d=2), [(0, 0), (3, -2)], 1.5, 0.5,
                      300, 7, "3c5ee8c9e38ebd0502f3b26cd079250e749f74cc55b95e5805ea5127e058593e"),
    "lying asymmetric d=1": (_lying_asymmetric_metric, [(-4,), (5,)], 1.0, 0.3, 300, 3,
                             "bdbde0bf0fb2e6c583c12d6d6da7eef0fc491d79390f9b747dddb64cb25fe8da"),
}


@pytest.mark.parametrize("name", list(EMBED_PROBE_GOLDEN))
def test_embedding_probe_set_golden_bytes(name):
    metric, omega, p, eps, samples, seed, digest = EMBED_PROBE_GOLDEN[name]
    rep = embedding_check(metric(), omega, p, eps, samples, seed=seed)
    assert (rep.witness is not None) == name.startswith("lying")
    assert hashlib.sha256(to_json(rep).encode()).hexdigest() == digest
    assert from_json(EmbeddingReport, to_json(rep)) == rep


def test_p50_golden_run_draws_an_exact_zero(monkeypatch):
    # the "d=1 p=50" run draws x_17 = y_17 = 0 in one slot of pair 17, a
    # perturbed pair: a Gamma(1/50) magnitude that underflows to 0
    zeros = set()
    draw = _Window.draw_block

    def spy(self, gen, first, p, eps):
        xc, xv, yc, yv = block = draw(self, gen, first, p, eps)
        for name, cols, vals in (("x", xc, xv), ("y", yc, yv)):
            zeros.update((name, first + int(r)) for r in np.nonzero((cols >= 0) & (vals == 0.0))[0])
        return block

    monkeypatch.setattr(_Window, "draw_block", spy)
    embedding_check(geometric_weight_metric(), LatticeBox((0,), 2), 50.0, 0.5, 600, seed=1538)
    assert {z for z in zeros if z[1] < 600} == {("x", 17), ("y", 17)}  # 17 % 3 == 2


def test_embedding_check_rejects_points_outside_the_ball(monkeypatch):
    # the membership checks of the point constructor run on every drawn row
    M = geometric_weight_metric()
    monkeypatch.setattr(_streams, "sample_lp_ball_rows",
                        lambda rows, n, p, gen, sizes: np.full((rows, n), 1.5))
    with pytest.raises(ValueError, match="outside the unit ball"):
        embedding_check(M, [(0,)], 1.0, 0.5, 10)
    monkeypatch.setattr(_streams, "sample_lp_ball_rows",
                        lambda rows, n, p, gen, sizes: np.full((rows, n), math.nan))
    with pytest.raises(ValueError, match="values must be finite"):
        embedding_check(M, [(0,)], 1.0, 0.5, 10)


def test_passing_embedding_check_builds_no_sparse_points(monkeypatch):
    built = []
    post_init = FinitelySupportedPoint.__post_init__

    def counting(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(FinitelySupportedPoint, "__post_init__", counting)
    rep = embedding_check(geometric_weight_metric(dim_d=2), LatticeBox((0, 0), 1), 1.0, 0.5, 300)
    assert rep.passed and rep.checked_count > 0
    assert built == []
    # a failing run builds exactly the witness pair
    rep = embedding_check(_lying_metric(), [(0,)], 1.0, 0.5, 300, seed=1)
    assert rep.failure_count > 1 and len(built) == 2


def test_weight_table_calls_weight_once_per_offset():
    base = geometric_weight_metric(dim_d=2)
    calls = Counter()

    def weight(gamma):
        calls[gamma] += 1
        return base.weight(gamma)

    M = WeightedGroupMetric(2, weight, base.tail_bound, base.total_bound)
    assert tail_set(M, (0, 0), 0.5).radius == 3  # window radius 2 * (1 + 3) = 8
    embedding_check(M, LatticeBox((0, 0), 1), 1.0, 0.5, 10)
    # 9 probes x 289 window cells read the box of their 19^2 offsets, [-9, 9]^2,
    # which is weighed once per point
    assert len(calls) == 19**2
    assert set(calls.values()) == {1}


def _bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.int64)


@settings(max_examples=150, deadline=None)
@given(d=st.integers(1, 3),
       base=st.one_of(st.sampled_from((1.5, 2.0, 3.0, 10.0, 1e6)), st.floats(1.001, 1e3)),
       total=st.one_of(st.sampled_from((0.75, 1.0)), st.floats(1e-3, 1.0)),
       data=st.data())
@example(d=1, base=10.0, total=0.75, data=None)  # norms up to 800: 10^-800 underflows to 0
@example(d=3, base=1e12, total=1.0, data=None)  # norms up to 36: subnormals and zeros
def test_geometric_weight_table_matches_per_offset_weights(d, base, total, data):
    # the |gamma|_1 table against the one-call-per-offset path of a custom
    # metric with the same weight function, bit for bit
    M = geometric_weight_metric(dim_d=d, base=base, total=total)
    top = {1: 400, 2: 24, 3: 6}[d]
    if data is None:
        radius, tail, omega = top, 1, [(-top // 2,) * d, (0,) * d, (top,) * d]
    else:
        radius = data.draw(st.integers(0, top))
        tail = data.draw(st.integers(0, radius))
        # probes may lie past the window edge, further than the tail radius
        coord = st.integers(-2 * radius - 2, 2 * radius + 2)
        omega = sorted(data.draw(st.lists(st.tuples(*[coord] * d), min_size=1, max_size=4,
                                          unique=True)))
    custom = WeightedGroupMetric(d, M.weight, M.tail_bound, M.total_bound)
    fast, slow = _Window(M, omega, tail, radius), _Window(custom, omega, tail, radius)
    assert fast.weights.shape == slow.weights.shape == (len(omega), (2 * radius + 1) ** d)
    assert np.array_equal(_bits(fast.weights), _bits(slow.weights))
    window = list(LatticeBox((0,) * d, radius))
    offsets = [[tuple(a - b for a, b in zip(g, delta)) for g in window] for delta in omega]
    assert slow.weights.tolist() == [[M.weight(o) for o in row] for row in offsets]
    prime = set(_union_box(omega, tail, window))
    assert fast.inside.tolist() == slow.inside.tolist() == [g in prime for g in window]
    if data is None:
        assert (fast.weights == 0.0).any()


SLICED_RUNS = [
    (lambda: geometric_weight_metric(dim_d=2), 1, 1.5, 0.5, 300, 7),
    (geometric_weight_metric, 2, 50.0, 0.5, 600, 1538),
    (_lying_metric, 1, 2.0, 0.3, 300, 2),
    (_lying_wide_metric, 0, 2.0, 0.5, 200, 4),
]


def test_sliced_scoring_keeps_the_report_bytes(monkeypatch):
    # rows are independent and merge in index order, so the slice size
    # cannot reach the report
    rows = []
    distances = _Window.omega_distances

    def spy(self, C, D):
        rows.append(len(C))
        return distances(self, C, D)

    monkeypatch.setattr(_Window, "omega_distances", spy)

    def reports():
        out = []
        for metric, radius, p, eps, samples, seed in SLICED_RUNS:
            M = metric()
            rep = embedding_check(M, LatticeBox((0,) * M.dim_d, radius), p, eps, samples, seed=seed)
            out.append(to_json(rep))
        return out

    sliced = reports()
    assert max(rows) == SCORE_ROWS < PAIR_DRAW  # some block needs more than one slice
    monkeypatch.setattr(group_dynamics, "SCORE_ROWS", PAIR_DRAW)
    rows.clear()
    assert reports() == sliced
    assert max(rows) > SCORE_ROWS  # one pass per block
    for size in (1, 7):
        monkeypatch.setattr(group_dynamics, "SCORE_ROWS", size)
        rows.clear()
        assert reports() == sliced
        assert max(rows) == size


def test_window_build_peak_memory():
    # the table is 125 x 29^3 doubles (23.3 MiB), the box of weights 33^3
    # (0.3 MiB); the (|Omega|, |window|, d) offsets array and its np.abs copy
    # that the table used to be built from peaked at 187 MiB
    M = geometric_weight_metric(dim_d=3)
    tracemalloc.start()
    try:
        rep = embedding_check(M, LatticeBox((0, 0, 0), 2), 1.0, 0.2, 100)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert tail_set(M, (0, 0, 0), 0.2).radius == 5  # window radius 2 * (2 + 5) = 14
    assert rep.passed and len(rep.omega) == 125
    table, box = 125 * 29**3 * 8, 33**3 * 8
    assert peak < 2 * table + box


def test_wide_probe_set_peak_memory():
    # |Omega| = 1001: the L1 weight table and 64-row scoring slices peak at
    # about 77 MiB; the per-offset table with 64-pair blocks took 110 MiB,
    # and unsliced 512-pair blocks 149 MiB
    M = geometric_weight_metric()
    tracemalloc.start()
    try:
        rep = embedding_check(M, LatticeBox((0,), 500), 1.0, 0.5, 1024, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(rep.omega) == 1001 and rep.passed and rep.checked_count > 0
    assert peak < 90 * 2**20


# --- pair draws and the sparse kernel ---------------------------------------------------


def _hex(row):
    # a signed zero in a dense row is a zero the sparse form drops
    return [float(v).hex() for v in row + 0.0]


def _pow(values, e):
    # numpy's vector power: a scalar power can differ from it in the last bit
    return np.asarray(values, dtype=np.float64) ** e


def _reference_points(gen, sizes, width, n, p):
    """Subsets and ball values of draw_block's point rows, row by row."""
    tops = [[n - k + s if s < k else 0 for s in range(width)] for k in sizes]
    t = gen.integers(0, np.array(tops, dtype=np.int64).reshape(len(sizes), width),
                     endpoint=True)
    cols = []
    for r, k in enumerate(sizes):
        row = []
        for s in range(k):  # Floyd: take j = n - k + s when t is taken
            row.append(n - k + s if int(t[r, s]) in row else int(t[r, s]))
        cols.append(row)
    if math.isinf(p):
        U = gen.uniform(-1.0, 1.0, (len(sizes), width))
        return cols, [U[r, :k].tolist() for r, k in enumerate(sizes)]
    if p == 2.0:  # all normals, then one exponential per row
        Z = gen.standard_normal((len(sizes), width))
        E = gen.standard_exponential(len(sizes))
        vals = []
        for r, k in enumerate(sizes):
            masked = np.concatenate([Z[r, :k], np.zeros(width - k)])  # masked before the sum
            scale = np.sqrt(float(np.sum(masked * masked)) + 2.0 * E[r])
            vals.append([z / scale for z in Z[r, :k].tolist()])
        return cols, vals
    W = gen.gamma(1.0 / p, 1.0, (len(sizes), width))
    words = gen.integers(0, 1 << 64, -(-len(sizes) * width // 64), dtype=np.uint64).tolist()
    S = [[words[i // 64] >> i % 64 & 1 for i in range(r * width, (r + 1) * width)]
         for r in range(len(sizes))]  # sign i is plus iff bit i % 64 of word i // 64 is set
    E = gen.standard_exponential(len(sizes))
    vals = []
    for r, k in enumerate(sizes):
        masked = np.concatenate([W[r, :k], np.zeros(width - k)])  # masked before the sum
        scale = _pow([float(np.sum(masked)) + E[r]], 1.0 / p)[0]
        mags = _pow(W[r, :k], 1.0 / p).tolist()
        vals.append([(m * (2.0 * S[r][s] - 1.0)) / scale for s, m in enumerate(mags)])
    return cols, vals


def _reference_block(window, prime, p, eps, seed, b):
    """The documented draw of pair block b, pair by pair, as dense rows."""
    gen = fresh_stream(seed, DOMAIN_PAIRS, b)
    n = len(window)
    outside = [j for j, g in enumerate(window) if g not in prime]
    width, cap = min(n, MAX_SUPPORT), min(len(outside), MAX_OUTSIDE_SUPPORT)
    kinds = [(b * PAIR_DRAW + r) % 3 for r in range(PAIR_DRAW)]
    owners = list(range(PAIR_DRAW)) + [r for r in range(PAIR_DRAW) if kinds[r] == 0]
    sizes = gen.integers(1, width, size=len(owners), endpoint=True).tolist()
    cols, vals = _reference_points(gen, sizes, width, n, p)
    Y = [None] * PAIR_DRAW
    for y, r in enumerate(owners[PAIR_DRAW:], start=PAIR_DRAW):
        Y[r] = list(zip(cols[y], vals[y]))
    tail = [r for r in range(PAIR_DRAW) if kinds[r] == 1]
    for r in tail:
        Y[r] = [(c, v) for c, v in zip(cols[r], vals[r]) if window[c] in prime]
    if cap:
        counts = gen.integers(0, cap, size=len(tail), endpoint=True).tolist()
        picks, fresh = _reference_points(gen, counts, cap, len(outside), p)
        for r, pick, u in zip(tail, picks, fresh):
            budget = 1.0
            if not math.isinf(p):
                inside = [abs(v) if window[c] in prime else 0.0 for c, v in zip(cols[r], vals[r])]
                mass = float(np.sum(_pow(inside + [0.0] * (width - len(inside)), p)))
                budget = _pow([max(1.0 - mass, 0.0)], 1.0 / p)[0]
            Y[r] += [(outside[j], v * budget) for j, v in zip(pick, u)]
    jitter = [r for r in range(PAIR_DRAW) if kinds[r] == 2]
    noise = gen.uniform(-eps / 8.0, eps / 8.0, (len(jitter), width))
    for r, row in zip(jitter, noise.tolist()):
        v = [x + (e if x != 0.0 else 0.0) for x, e in zip(vals[r], row)]
        A = [abs(t) for t in v] + [0.0] * (width - len(v))
        norm = max(A) if math.isinf(p) else _pow([float(np.sum(_pow(A, p)))], 1.0 / p)[0]
        Y[r] = [(c, t / max(norm, 1.0)) for c, t in zip(cols[r], v)]

    def dense(entries):
        row = np.zeros(n)
        for c, v in entries:
            row[c] = v
        return row

    return [dense(zip(cols[r], vals[r])) for r in range(PAIR_DRAW)], [dense(y) for y in Y]


def _union_box(omega, tail, window):
    """The window points within sup-distance tail of some probe."""
    return [g for g in window if any(max(abs(a - b) for a, b in zip(g, delta)) <= tail
                                     for delta in omega)]


@st.composite
def _draw_windows(draw):
    d = draw(st.sampled_from((1, 2)))
    radius = draw(st.integers(0, 4 if d == 1 else 2))
    window = tuple(sorted(LatticeBox((0,) * d, radius)))
    # probes may lie past the window edge, further than the tail radius
    coord = st.integers(-2 * radius - 2, 2 * radius + 2)
    omega = sorted(draw(st.lists(st.tuples(*[coord] * d), min_size=1, max_size=3, unique=True)))
    tail = draw(st.integers(0, radius))
    win = _Window(geometric_weight_metric(dim_d=d), omega, tail, radius)
    # column j decodes to point j of the window in LatticeBox order
    assert [win.payload(np.array([j]), np.array([0.5]), 1.0)["support"]
            for j in range(len(window))] == [[list(g)] for g in window]
    return window, _union_box(omega, tail, window), win


def _drawn_rows(window, gen, b, p, eps):
    """draw_block's sparse rows of x and y, scattered into dense window rows."""
    xc, xv, yc, yv = window.draw_block(gen, b * PAIR_DRAW, p, eps)
    X, Y = np.zeros((PAIR_DRAW, window.inside.size)), np.zeros((PAIR_DRAW, window.inside.size))
    for out, cols, vals in ((X, xc, xv), (Y, yc, yv)):
        assert not vals[cols < 0].any()  # _union relies on unused slots holding 0
        r, s = np.nonzero(cols >= 0)
        out[r, cols[r, s]] = vals[r, s]
    return xc, X, Y


_exponents = st.sampled_from((1.0, 1.5, 2.0, 3.0, 50.0, math.inf))


@settings(max_examples=200, deadline=None)
@given(case=_draw_windows(), p=_exponents, eps=st.floats(0.01, 4.0),
       seed=st.integers(0, 2**64 - 1), b=st.integers(0, 2**40))
def test_block_draw_matches_literal_reference(case, p, eps, seed, b):
    window, prime, dense = case
    _, X, Y = _drawn_rows(dense, fresh_stream(seed, DOMAIN_PAIRS, b), b, p, eps)
    RX, RY = _reference_block(window, set(prime), p, eps, seed, b)
    for r in range(PAIR_DRAW):
        assert _hex(X[r]) == _hex(RX[r])
        assert _hex(Y[r]) == _hex(RY[r])


def _rescaled_within(x, y, tol):
    # some c >= 1 has |c * y_j - x_j| <= tol on x's support: y is x plus
    # noise of at most tol, divided by a renormalising factor c
    lo, hi = 1.0, math.inf
    for j in np.flatnonzero(x):
        if y[j] == 0.0:
            if abs(x[j]) > tol:
                return False
            continue
        a, b = sorted(((x[j] - tol) / y[j], (x[j] + tol) / y[j]))
        lo, hi = max(lo, a), min(hi, b)
    return lo <= hi


@settings(max_examples=200, deadline=None)
@given(case=_draw_windows(), p=_exponents, eps=st.floats(0.01, 4.0),
       seed=st.integers(0, 2**64 - 1), b=st.integers(0, 2**20), zap=st.booleans())
def test_block_draw_contract(case, p, eps, seed, b, zap):
    window, prime, dense = case
    inside = {j for j, g in enumerate(window) if g in set(prime)}
    sampler = _streams.sample_lp_ball_rows

    def zapped(*args):
        # exact zeros among the drawn values, as an underflowing gamma draw gives
        v = sampler(*args)
        v[:, ::2] = 0.0
        return v

    with pytest.MonkeyPatch.context() as mp:
        if zap:
            mp.setattr(_streams, "sample_lp_ball_rows", zapped)
        xc, X, Y = _drawn_rows(dense, fresh_stream(seed, DOMAIN_PAIRS, b), b, p, eps)
    group_dynamics._check_in_ball(X, p)  # x and y lie in the ball
    group_dynamics._check_in_ball(Y, p)
    for r in range(PAIR_DRAW):
        drawn = xc[r][xc[r] >= 0]
        assert 1 <= drawn.size <= min(len(window), MAX_SUPPORT)
        assert len(set(drawn.tolist())) == drawn.size
        x_support, y_support = set(np.flatnonzero(X[r])), set(np.flatnonzero(Y[r]))
        assert x_support <= set(drawn.tolist())
        kind = (b * PAIR_DRAW + r) % 3
        if kind == 1:
            assert all(Y[r, j] == X[r, j] for j in inside)
            assert len(y_support - inside) <= MAX_OUTSIDE_SUPPORT
        elif kind == 2:
            assert y_support <= x_support
            assert _rescaled_within(X[r], Y[r], eps / 8.0 * (1 + 1e-12) + 1e-15)


def test_pair_draw_does_not_depend_on_the_sample_count(monkeypatch):
    # pair i comes from block i // PAIR_DRAW, which is drawn in full
    seen = []
    union = group_dynamics._union

    def spy(*rows):
        seen.append([a.copy() for a in rows])
        return union(*rows)

    monkeypatch.setattr(group_dynamics, "_union", spy)
    runs = {}
    counts = (1, PAIR_DRAW - 1, PAIR_DRAW, PAIR_DRAW + 1, 2 * PAIR_DRAW + 5)
    for samples in counts:
        seen.clear()
        embedding_check(geometric_weight_metric(), LatticeBox((0,), 2), 1.5, 0.5, samples, seed=6)
        # x columns, x values, y columns, y values of every scored pair
        runs[samples] = [[_hex(row) for row in np.concatenate([block[k] for block in seen])]
                         for k in range(4)]
        assert all(len(rows) == samples for rows in runs[samples])
    for samples, rows in runs.items():
        assert rows == [full[:samples] for full in runs[counts[-1]]]


def _pearson(counts, expected):
    counts, expected = np.asarray(counts, float), np.asarray(expected, float)
    return float(np.sum((counts - expected) ** 2 / expected))


def test_block_draw_is_uniform_at_a_fixed_seed():
    # bounds are the 0.9999 quantiles of chi-square with k - 1 degrees of freedom
    # 9 columns, the 5 of [-2, 2] inside, 4 outside
    dense = _Window(geometric_weight_metric(), [(0,)], 2, 4)
    sizes, columns, norms = Counter(), Counter(), []
    outside_counts, outside_columns = Counter(), Counter()
    for b in range(200):
        xc, xv, yc, _ = dense.draw_block(fresh_stream(1, DOMAIN_PAIRS, b), b * PAIR_DRAW, 1.5, 0.5)
        for r in range(PAIR_DRAW):
            drawn = xc[r][xc[r] >= 0]
            sizes[drawn.size] += 1
            columns.update(drawn.tolist())
            norms.append(float(np.sum(np.abs(xv[r]) ** 1.5)) ** (drawn.size / 1.5))
            if (b * PAIR_DRAW + r) % 3 == 1:
                fresh = yc[r, MAX_SUPPORT:][yc[r, MAX_SUPPORT:] >= 0]
                outside_counts[fresh.size] += 1
                outside_columns.update(fresh.tolist())
    rows = sum(sizes.values())
    assert _pearson([sizes[k] for k in range(1, 9)], [rows / 8] * 8) < 29.9
    share = sum(k * c for k, c in sizes.items()) / 9
    assert _pearson([columns[j] for j in range(9)], [share] * 9) < 31.9
    # ||x||_p^k is uniform on [0, 1] for x uniform in the k-dimensional ball
    assert abs(np.mean(norms) - 0.5) < 0.01
    tails = sum(outside_counts.values())
    assert _pearson([outside_counts[k] for k in range(5)], [tails / 5] * 5) < 23.6
    share = sum(k * c for k, c in outside_counts.items()) / 4
    assert sorted(outside_columns) == [0, 1, 7, 8]
    assert _pearson(list(outside_columns.values()), [share] * 4) < 21.2
    # every 2-subset of 5 columns is equally likely
    picks = _subsets(np.random.default_rng(3), np.full(5000, 2), 2, 5)
    pairs = Counter(tuple(sorted(row)) for row in picks.tolist())
    assert len(pairs) == 10 and _pearson(list(pairs.values()), [500] * 10) < 33.8


_small_value = st.floats(-0.125, 0.125, allow_nan=False)  # 8 of them stay in every unit ball


@st.composite
def _window_pairs(draw):
    d = draw(st.sampled_from((1, 2)))
    p = draw(st.sampled_from((1.0, 2.0, math.inf)))
    M = geometric_weight_metric(dim_d=d, base=draw(st.sampled_from((1.5, 2.0, 3.0))))
    radius = draw(st.integers(1, 4 if d == 1 else 2))
    window = tuple(sorted(LatticeBox((0,) * d, radius)))
    coord = st.integers(-3, 3)
    omega = draw(st.lists(st.tuples(*[coord] * d), min_size=1, max_size=6, unique=True))
    tail = draw(st.integers(0, 3))
    # sparse rows as draw_block leaves them: slots in any order, unused ones
    # at column -1 and value 0, exact zeros kept, columns shared by x and y
    widths = draw(st.integers(8, 10)), draw(st.integers(8, 14))
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        sx = draw(st.lists(st.sampled_from(range(len(window))), max_size=8, unique=True))
        vx = [draw(_small_value) for _ in sx]
        sy = draw(st.lists(st.sampled_from(range(len(window))), max_size=8, unique=True))
        vy = [vx[sx.index(j)] if j in sx and draw(st.booleans()) else draw(_small_value)
              for j in sy]
        rows.append([(sx, vx), (sy, vy)])
    sparse = []
    for k, width in enumerate(widths):
        C, V = np.full((len(rows), width), -1), np.zeros((len(rows), width))
        for r, row in enumerate(rows):
            cols, vals = row[k]
            slots = draw(st.permutations(range(width)))[: len(cols)]
            C[r, slots], V[r, slots] = cols, vals
        sparse += [C, V]
    points = [
        [FinitelySupportedPoint(tuple(window[j] for j in cols), tuple(vals), p)
         for cols, vals in row]
        for row in rows
    ]
    return M, sorted(omega), tail, radius, window, points, sparse


@settings(max_examples=300, deadline=None)
@given(_window_pairs())
def test_window_kernel_matches_omega_distance_bitwise(case):
    # one block of several pairs, scored by the kernel embedding_check uses
    M, omega, tail, radius, window, points, sparse = case
    win = _Window(M, omega, tail, radius)
    prime = _union_box(omega, tail, window)  # may be empty: no probe near the window
    C, D = _union(*sparse)
    assert (np.diff(C, axis=1) >= 0).all()  # the fold runs in column order
    gaps, dists = win.gaps(C, D), win.omega_distances(C, D)
    assert gaps.shape == dists.shape == (len(points),)
    for (x, y), gap, dist in zip(points, gaps, dists):
        proj_gap = max((abs(x.value_at(g) - y.value_at(g)) for g in prime), default=0.0)
        assert float(gap).hex() == proj_gap.hex()
        assert float(dist).hex() == omega_distance(x, y, M, omega).hex()


# --- mean dimension table -----------------------------------------------------------


def test_mean_dimension_table_pinned():
    M = geometric_weight_metric()
    table = mean_dimension_table(M, 1.0, 0.5, [1, 2, 3, 4, 5])
    assert table.constant == 7
    ratios = [row[2] for row in table.rows]
    assert ratios == [7 / 3, 7 / 5, 7 / 7, 7 / 9, 7 / 11]
    sizes = [row[1] for row in table.rows]
    assert sizes == [3, 5, 7, 9, 11]

    M2 = geometric_weight_metric(dim_d=2)
    t2 = mean_dimension_table(M2, 1.0, 0.5, [3])
    assert t2.rows == ((3, 49, 7 / 49),)


def test_table_ratios_decrease_to_zero():
    M = geometric_weight_metric()
    table = mean_dimension_table(M, 1.0, 0.5, list(range(0, 40)))
    ratios = [row[2] for row in table.rows]
    assert all(a > b for a, b in zip(ratios, ratios[1:]))
    assert ratios[-1] < 0.1


def test_table_serialization():
    import json

    M = geometric_weight_metric()
    table = mean_dimension_table(M, 1.0, 0.5, [1, 2, 3])
    doc = json.loads(to_json(table))
    assert doc["widim_constant"] == 7
    assert [r["omega_size"] for r in doc["rows"]] == [3, 5, 7]
    header, *rows = table_csv_lines(table)
    assert len(rows) == 3
    assert all(r.count(",") == header.count(",") for r in rows)


def test_table_validation():
    M = geometric_weight_metric()
    with pytest.raises(ValueError):
        mean_dimension_table(M, 1.0, 0.5, [])
    with pytest.raises(ValueError):
        mean_dimension_table(M, 1.0, 0.5, [2, 1])
    with pytest.raises(ValueError):
        mean_dimension_table(M, 1.0, 0.5, [-1, 2])
    with pytest.raises(ValueError):
        mean_dimension_table(M, 1.0, 1e-30, [1, 2])  # constant saturates
