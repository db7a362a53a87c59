"""Report serialization: the field walk behind the certify and embed writers."""

import dataclasses
import json
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from widim._output import csv_row, report_fields
from widim.certify import (
    CertificationReport,
    report_csv_header,
    report_from_json,
    report_to_csv_row,
    report_to_json,
)
from widim.core import make_exponents
from widim.group_dynamics import (
    EmbeddingReport,
    embedding_csv_header,
    embedding_report_from_json,
    embedding_report_to_json,
    embedding_to_csv_row,
)

_reals = st.floats(allow_nan=False, allow_infinity=False)
_counts = st.integers(min_value=0, max_value=10**9)
_seeds = st.integers(min_value=0, max_value=2**64 - 1)


@st.composite
def _exponents(draw):
    p = draw(st.floats(min_value=1.0, max_value=50.0))
    q = draw(st.one_of(st.just(math.inf), st.floats(min_value=1e-3, max_value=1e3).map(p.__add__)))
    return make_exponents(p, q)


_certification_reports = st.builds(
    CertificationReport,
    n=st.integers(min_value=1, max_value=10**6),
    m=_counts,
    exponents=_exponents(),
    sample_count=_counts,
    seed=_seeds,
    max_observed_distortion=_reals,
    bound=_reals,
    margin=_reals,
    argmax_vector=st.lists(_reals, max_size=6).map(tuple),
)


@st.composite
def _sparse_point(draw, dim):
    """The witness form of one point, as ``_Window.payload`` writes it."""
    size = draw(st.integers(min_value=0, max_value=4))
    return {
        "support": draw(st.lists(st.lists(st.integers(-50, 50), min_size=dim, max_size=dim),
                                 min_size=size, max_size=size)),
        "values": draw(st.lists(_reals, min_size=size, max_size=size)),
    }


@st.composite
def _embedding_reports(draw):
    dim = draw(st.integers(min_value=1, max_value=3))
    witness = draw(st.one_of(st.none(), st.fixed_dictionaries({
        "index": _counts, "margin": _reals, "x": _sparse_point(dim), "y": _sparse_point(dim),
    })))
    return EmbeddingReport(
        dim_d=dim,
        p=draw(st.one_of(st.just(math.inf), st.floats(min_value=1.0, max_value=1e6))),
        eps=draw(st.floats(min_value=1e-9, max_value=1e3)),
        omega=tuple(draw(st.lists(st.tuples(*[st.integers(-9, 9)] * dim), min_size=1,
                                  max_size=5))),
        omega_prime_size=draw(_counts),
        sample_count=draw(_counts),
        seed=draw(_seeds),
        checked_count=draw(_counts),
        failure_count=draw(_counts),
        worst_margin=draw(st.one_of(st.none(), _reals)),
        witness=witness,
    )


def _json_keys(report) -> list:
    return [f.name for f in dataclasses.fields(report)] + ["elapsed"]


def _csv_cells(report, header: str, by_column: dict) -> str:
    # the row the header promises, read column by column from the report
    values = {**by_column, "elapsed": None}
    return csv_row(values[c] if c in values else getattr(report, c) for c in header.split(","))


_EXAMPLE_CERTIFICATION = CertificationReport(
    3, 1, make_exponents(2.0, math.inf), 10, 0, -0.0, 0.5, 0.5, (-0.0, 0.5, -0.0))
_EXAMPLE_EMBEDDING = EmbeddingReport(
    1, math.inf, 5.0, ((-1,), (0,), (1,)), 3, 300, 1, 12, 1, -0.0,
    {"index": 7, "margin": 0.25, "x": {"support": [[-2], [3]], "values": [-0.0, 0.5]},
     "y": {"support": [], "values": []}})


@settings(max_examples=300, deadline=None)
@given(_certification_reports)
@example(_EXAMPLE_CERTIFICATION)
def test_certification_report_round_trip(report):
    text = report_to_json(report)
    back = report_from_json(text)
    assert back == report and report_to_json(back) == text  # the bytes keep every -0.0
    assert list(json.loads(text)) == _json_keys(report)
    assert json.loads(text)["elapsed"] is None
    e = report.exponents
    assert json.loads(text)["exponents"] == {
        "p": e.p, "q": "inf" if math.isinf(e.q) else e.q, "r": e.r}
    row = report_to_csv_row(report)
    assert row == _csv_cells(report, report_csv_header(), {"p": e.p, "q": e.q, "r": e.r})
    assert row.endswith(",")


def test_report_from_json_refuses_an_edited_rate():
    # r is derived from p and q, so a document whose r was edited is refused
    report = dataclasses.replace(_EXAMPLE_CERTIFICATION, exponents=make_exponents(1.5, 3.7))
    text = report_to_json(report)
    assert report_from_json(text) == report
    r = report.exponents.r
    for edited in (math.nextafter(r, 0.0), math.nextafter(r, math.inf), 2.0, 1.5):
        doc = json.loads(text)
        doc["exponents"]["r"] = edited
        with pytest.raises(ValueError, match="is not the rate"):
            report_from_json(json.dumps(doc))


@settings(max_examples=300, deadline=None)
@given(_embedding_reports())
@example(_EXAMPLE_EMBEDDING)
@example(dataclasses.replace(_EXAMPLE_EMBEDDING, p=2.0, worst_margin=None, witness=None))
def test_embedding_report_round_trip(report):
    text = embedding_report_to_json(report)
    back = embedding_report_from_json(text)
    assert back == report and embedding_report_to_json(back) == text
    assert list(json.loads(text)) == _json_keys(report)
    assert json.loads(text)["p"] == ("inf" if math.isinf(report.p) else report.p)
    row = embedding_to_csv_row(report)
    assert row == _csv_cells(report, embedding_csv_header(), {"omega_size": len(report.omega)})
    assert row.endswith(",")


@pytest.mark.parametrize("q", [None, [2], {}])
def test_report_from_json_reads_q_by_the_exponent_rule(q):
    # a null or a container is no exponent: the rule refuses it as it refuses
    # any other non-real, not with a TypeError from float()
    doc = json.loads(report_to_json(_EXAMPLE_CERTIFICATION))
    doc["exponents"]["q"] = q
    with pytest.raises(ValueError, match="distance exponent q must be at least 1 or inf"):
        report_from_json(json.dumps(doc))


@pytest.mark.parametrize("p", ["nan", True, " 2 ", "Infinity", "1e400", None, [2]])
def test_embedding_report_from_json_reads_p_by_the_exponent_rule(p):
    # only the JSON spelling "inf" of p is decoded, as report_from_json reads
    # q; float() read the first five as nan, 1.0, 2.0, inf and inf, and
    # raised TypeError on a null or a list
    doc = json.loads(embedding_report_to_json(_EXAMPLE_EMBEDDING))
    doc["p"] = p
    with pytest.raises(ValueError, match="ball exponent p must be at least 1 or inf"):
        embedding_report_from_json(json.dumps(doc))


def test_report_fields_spells_and_drops_fields():
    @dataclasses.dataclass
    class Report:
        a: int
        b: tuple
        c: str

    report = Report(1, (2, 3), "x")
    assert report_fields(report) == {"a": 1, "b": (2, 3), "c": "x", "elapsed": None}
    doc = report_fields(report, b={"b0": 2, "b1": 3}, c={})
    assert list(doc.items()) == [("a", 1), ("b0", 2), ("b1", 3), ("elapsed", None)]
