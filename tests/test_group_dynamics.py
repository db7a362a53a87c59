"""Lattice harness: weights, finitely supported points, tails, embedding."""

import hashlib
import math
import time
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import widim.group_dynamics as group_dynamics
from widim._streams import DOMAIN_PAIRS, fresh_stream
from widim.group_dynamics import (
    MAX_OUTSIDE_SUPPORT,
    MAX_SUPPORT,
    MAX_WINDOW_CELLS,
    PAIR_BLOCK,
    EmbeddingReport,
    FinitelySupportedPoint,
    LatticeBox,
    WeightedGroupMetric,
    embedding_check,
    embedding_csv_header,
    embedding_report_from_json,
    embedding_report_to_json,
    embedding_to_csv_row,
    geometric_weight_metric,
    mean_dimension_table,
    omega_distance,
    table_csv_header,
    table_to_csv_rows,
    table_to_json,
    tail_set,
    translate,
    weighted_distance,
    widim_constant,
    _DenseWindow,
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


def test_embedding_check_workers_byte_identical():
    M = geometric_weight_metric()
    a = embedding_check(M, LatticeBox((0,), 1), 1.0, 0.5, 1500, seed=3)
    b = embedding_check(M, LatticeBox((0,), 1), 1.0, 0.5, 1500, seed=3, workers=4)
    assert a == b
    assert embedding_report_to_json(a) == embedding_report_to_json(b)


def test_embedding_report_round_trip():
    M = geometric_weight_metric()
    rep = embedding_check(M, [(0,), (1,)], 1.0, 0.5, 300, seed=9)
    back = embedding_report_from_json(embedding_report_to_json(rep))
    assert back == rep
    row = embedding_to_csv_row(rep)
    assert embedding_csv_header().count(",") == row.count(",")


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
    omega = LatticeBox((0,) * 4, 30)
    assert len(omega) > MAX_WINDOW_CELLS
    t0 = time.perf_counter()
    with pytest.raises(ValueError, match="exceeds the window cap"):
        embedding_check(M, omega, 1.0, 0.5, 1)
    assert time.perf_counter() - t0 < 5.0


# SHA-256 of embedding_report_to_json, recorded before pairs were drawn
# straight into dense rows. Unlike EMBED_GOLDEN in test_cli.py these runs
# reach p = 1.5 and 3, an exact zero drawn at p = 50 (pair 168 of seed 561),
# and a weight whose tail bound lies, so failures and their witness payload
# are pinned too.
def _lying_metric():
    # claims no mass outside radius 1 although the weight decays slowly
    return WeightedGroupMetric(
        dim_d=1,
        weight=lambda g: 0.5 * 2.0 ** (-0.2 * sum(abs(c) for c in g)),
        tail_bound=lambda radius: 0.0 if radius >= 1 else 1.0,
        total_bound=1.0,
        description="lying tail",
    )


EMBED_WITNESS_GOLDEN = {
    # name: (metric, probe radius, p, eps, samples, seed, digest)
    "d=2 p=1.5": (lambda: geometric_weight_metric(dim_d=2), 1, 1.5, 0.5, 300, 7,
                  "479698b563dfead2de945680d53d4220c47c7c57af4fdfe54f7101654d6a83eb"),
    "d=2 p=3": (lambda: geometric_weight_metric(dim_d=2), 1, 3.0, 0.6, 300, 11,
                "ba243cb569c772534da68c1707691d35f1ab5e62c3b9d8e954ef60ecf3d3d485"),
    "d=2 p=inf": (lambda: geometric_weight_metric(dim_d=2), 1, math.inf, 0.5, 300, 5,
                  "23cee7e67019582807a2e5be10a342f232963a82312a751cfc33ebd160ec4a2e"),
    "d=1 p=50": (geometric_weight_metric, 2, 50.0, 0.5, 600, 561,
                 "9db39119249a4339c638e5b12f882d9da5a74246b404e9d156a43f8c391f25f4"),
    "lying p=1": (_lying_metric, 0, 1.0, 0.5, 300, 1,
                  "4a3e397164283a59e9875b9c62fecd13508221c10fceb76c4d83f480a6beb07f"),
    "lying p=2": (_lying_metric, 1, 2.0, 0.3, 300, 2,
                  "a7c7dd402c66502c5d503f151168f5b5f8b477d71d3903f161783a7ea82e0204"),
}


@pytest.mark.parametrize("name", list(EMBED_WITNESS_GOLDEN))
def test_embedding_witness_golden_bytes(name):
    metric, radius, p, eps, samples, seed, digest = EMBED_WITNESS_GOLDEN[name]
    M = metric()
    rep = embedding_check(M, LatticeBox((0,) * M.dim_d, radius), p, eps, samples, seed=seed)
    assert (rep.witness is not None) == name.startswith("lying")
    assert hashlib.sha256(embedding_report_to_json(rep).encode()).hexdigest() == digest


def test_embedding_check_rejects_points_outside_the_ball(monkeypatch):
    # the membership checks of the point constructor run on every drawn row
    M = geometric_weight_metric()
    monkeypatch.setattr(group_dynamics, "sample_lp_ball", lambda k, p, gen: np.full(k, 1.5))
    with pytest.raises(ValueError, match="outside the unit ball"):
        embedding_check(M, [(0,)], 1.0, 0.5, 10)
    monkeypatch.setattr(group_dynamics, "sample_lp_ball", lambda k, p, gen: np.full(k, math.nan))
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
    # 9 probes x 289 window cells share the 19^2 offsets in [-9, 9]^2
    assert len(calls) == 19**2
    assert set(calls.values()) == {1}


# --- dense window kernel -------------------------------------------------------------


def _reference_draw_point(gen, window_pts, p, max_support):
    k = int(gen.integers(1, max_support + 1))
    idx = gen.choice(len(window_pts), size=k, replace=False)
    vals = group_dynamics.sample_lp_ball(k, p, gen)
    return FinitelySupportedPoint(tuple(window_pts[int(i)] for i in idx), tuple(vals), p)


def _reference_pair(gen, kind, window_pts, outside_pts, prime_set, p, eps):
    """The sparse pair draw that dense rows replaced, kept as the oracle."""
    max_support = min(len(window_pts), MAX_SUPPORT)
    x = _reference_draw_point(gen, window_pts, p, max_support)
    if kind == 0:
        return x, _reference_draw_point(gen, window_pts, p, max_support)
    if kind == 1:
        inside = [(pt, v) for pt, v in zip(x.support, x.values) if pt in prime_set]
        if math.isinf(p):
            budget_scale = 1.0
        else:
            mass_in = sum(abs(v) ** p for _, v in inside)
            budget_scale = max(1.0 - mass_in, 0.0) ** (1.0 / p)
        pts = [pt for pt, _ in inside]
        vals = [v for _, v in inside]
        cap = min(len(outside_pts), MAX_OUTSIDE_SUPPORT)
        k2 = int(gen.integers(0, cap + 1)) if cap else 0
        if k2 > 0:
            idx = gen.choice(len(outside_pts), size=k2, replace=False)
            u = group_dynamics.sample_lp_ball(k2, p, gen)
            pts.extend(outside_pts[int(i)] for i in idx)
            vals.extend(budget_scale * u)
        return x, FinitelySupportedPoint(tuple(pts), tuple(vals), p)
    noise = gen.uniform(-eps / 8.0, eps / 8.0, size=len(x.values))
    vals = np.asarray(x.values) + noise
    if math.isinf(p):
        peak = float(np.max(np.abs(vals))) if vals.size else 0.0
        if peak > 1.0:
            vals /= peak
    else:
        mass = float(np.sum(np.abs(vals) ** p))
        if mass > 1.0:
            vals *= mass ** (-1.0 / p)
    return x, FinitelySupportedPoint(x.support, tuple(vals), p)


def _dense(window, x):
    v = np.zeros(len(window))
    column = {gamma: j for j, gamma in enumerate(window)}
    v[[column[gamma] for gamma in x.support]] = x.values
    return v


def _hex(row):
    # a signed zero in a dense row is a zero the sparse form drops
    return [float(v).hex() for v in row + 0.0]


@settings(max_examples=300, deadline=None)
@given(
    d=st.sampled_from((1, 2)),
    kind=st.integers(0, 2),
    p=st.sampled_from((1.0, 1.5, 2.0, 3.0, math.inf)),
    eps=st.floats(0.01, 4.0),
    seed=st.integers(0, 2**64 - 1),
    index=st.integers(0, 2**64 - 1),
    data=st.data(),
)
def test_dense_pair_draw_matches_sparse_reference(d, kind, p, eps, seed, index, data):
    window = tuple(sorted(LatticeBox((0,) * d, data.draw(st.integers(0, 4 if d == 1 else 2)))))
    prime = sorted(data.draw(st.lists(st.sampled_from(window), min_size=1, unique=True)))
    outside = tuple(g for g in window if g not in set(prime))
    dense = _DenseWindow(geometric_weight_metric(dim_d=d), [(0,) * d], window, prime)
    # optionally zero every other drawn value, as an underflowing gamma draw does
    zap = data.draw(st.booleans())
    sampler = group_dynamics.sample_lp_ball

    def zapped(k, p, gen):
        v = sampler(k, p, gen)
        v[::2] = np.copysign(0.0, v[::2])
        return v

    with pytest.MonkeyPatch.context() as mp:
        if zap:
            mp.setattr(group_dynamics, "sample_lp_ball", zapped)
        gen = fresh_stream(seed, DOMAIN_PAIRS, index)
        x, y = np.zeros(len(window)), np.zeros(len(window))
        dense.draw_pair(gen, kind, x, y, p, eps)
        ref_gen = fresh_stream(seed, DOMAIN_PAIRS, index)
        rx, ry = _reference_pair(ref_gen, kind, window, outside, set(prime), p, eps)
    assert _hex(x) == _hex(_dense(window, rx))
    assert _hex(y) == _hex(_dense(window, ry))
    assert dense.point(x, p) == rx and dense.point(y, p) == ry
    assert gen.random() == ref_gen.random()  # the same stream use


@pytest.mark.parametrize("p", [1.5, 3.0])
def test_tail_pairs_sum_the_inside_mass_in_python_floats(p):
    # the inside mass of a tail-only pair is a left-to-right sum of Python
    # float powers; a numpy power or np.sum moves its last bit in about one
    # pair in ten, which moves the fresh outside values
    window = tuple(sorted(LatticeBox((0,), 4)))
    prime = window[1:-1]
    outside = (window[0], window[-1])
    dense = _DenseWindow(geometric_weight_metric(), [(0,)], window, prime)
    for index in range(300):
        x, y = np.zeros(len(window)), np.zeros(len(window))
        dense.draw_pair(fresh_stream(5, DOMAIN_PAIRS, index), 1, x, y, p, 0.5)
        _, ry = _reference_pair(fresh_stream(5, DOMAIN_PAIRS, index), 1, window,
                                outside, set(prime), p, 0.5)
        assert _hex(y) == _hex(_dense(window, ry))


_small_value = st.floats(-0.125, 0.125, allow_nan=False)  # 8 of them stay in every unit ball


@st.composite
def _window_pairs(draw):
    d = draw(st.sampled_from((1, 2)))
    p = draw(st.sampled_from((1.0, 2.0, math.inf)))
    M = geometric_weight_metric(dim_d=d, base=draw(st.sampled_from((1.5, 2.0, 3.0))))
    window = tuple(sorted(LatticeBox((0,) * d, draw(st.integers(1, 4 if d == 1 else 2)))))
    coord = st.integers(-3, 3)
    omega = draw(st.lists(st.tuples(*[coord] * d), min_size=1, max_size=6, unique=True))
    prime = draw(st.lists(st.sampled_from(window), min_size=1, max_size=9, unique=True))
    pairs = []
    for _ in range(draw(st.integers(1, 6))):
        sx = draw(st.lists(st.sampled_from(window), max_size=8, unique=True))
        x = FinitelySupportedPoint(tuple(sx), tuple(draw(_small_value) for _ in sx), p)
        sy = draw(st.lists(st.sampled_from(window), max_size=8, unique=True))
        vy = [
            x.value_at(g) if g in x.support and draw(st.booleans()) else draw(_small_value)
            for g in sy
        ]
        pairs.append((x, FinitelySupportedPoint(tuple(sy), tuple(vy), p)))
    return M, sorted(omega), window, sorted(prime), pairs


@settings(max_examples=300, deadline=None)
@given(_window_pairs())
def test_dense_window_matches_sparse_bitwise(case):
    # one block of several pairs, scored by the kernel embedding_check uses
    M, omega, window, prime, pairs = case
    dense = _DenseWindow(M, omega, window, prime)
    X = np.array([_dense(window, x) for x, _ in pairs])
    Y = np.array([_dense(window, y) for _, y in pairs])
    D = np.abs(X - Y)
    gaps = dense.gaps(D)
    dists = dense.omega_distances(D)
    assert gaps.shape == dists.shape == (len(pairs),)
    for (x, y), gap, dist in zip(pairs, gaps, dists):
        assert float(gap).hex() == max(abs(x.value_at(g) - y.value_at(g)) for g in prime).hex()
        assert float(dist).hex() == omega_distance(x, y, M, omega).hex()


def test_reports_do_not_depend_on_the_block_size(monkeypatch):
    M = geometric_weight_metric()
    omega = LatticeBox((0,), 2)
    base = embedding_report_to_json(embedding_check(M, omega, 2.0, 0.5, 2 * PAIR_BLOCK + 5, seed=4))
    for block in (1, 7, 1000):
        monkeypatch.setattr(group_dynamics, "PAIR_BLOCK", block)
        rep = embedding_check(M, omega, 2.0, 0.5, 2 * PAIR_BLOCK + 5, seed=4)
        assert embedding_report_to_json(rep) == base
    # a window too wide for the cell budget falls back to fewer rows
    monkeypatch.setattr(group_dynamics, "_BLOCK_CELLS", 100)  # 17 cells: 5 rows
    rep = embedding_check(M, omega, 2.0, 0.5, 2 * PAIR_BLOCK + 5, seed=4)
    assert embedding_report_to_json(rep) == base


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
    doc = json.loads(table_to_json(table))
    assert doc["widim_constant"] == 7
    assert [r["omega_size"] for r in doc["rows"]] == [3, 5, 7]
    rows = table_to_csv_rows(table)
    assert len(rows) == 3
    assert all(r.count(",") == table_csv_header().count(",") for r in rows)


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
