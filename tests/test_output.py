"""The report codec: each report declares its spelling on its fields, and one
walk writes its JSON and CSV and reads the JSON back."""

import ast
import dataclasses
import json
import math
import re
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import widim
from widim._output import csv_lines, csv_row, from_json, spelled, table_csv_lines, to_json
from widim.certify import CertificationReport
from widim.core import make_exponents
from widim.group_dynamics import EmbeddingReport, MeanDimensionTable

_reals = st.floats(allow_nan=False, allow_infinity=False)
_magnitudes = st.floats(min_value=-0.0, allow_infinity=False)  # nonnegative, -0.0 included
_counts = st.integers(min_value=0, max_value=10**9)
_sample_counts = st.integers(min_value=1, max_value=10**9)  # a run draws at least one
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
    sample_count=_sample_counts,
    seed=_seeds,
    max_observed_distortion=_magnitudes,
    bound=_magnitudes,
    margin=_reals,
    argmax_vector=st.lists(_reals, min_size=1, max_size=6).map(tuple),  # a point of the ball
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


_ball_exponents = st.one_of(st.just(math.inf), st.floats(min_value=1.0, max_value=1e6))


@st.composite
def _embedding_reports(draw):
    dim = draw(st.integers(min_value=1, max_value=3))
    witness = draw(st.one_of(st.none(), st.fixed_dictionaries({
        "index": _counts, "margin": _reals, "x": _sparse_point(dim), "y": _sparse_point(dim),
    })))
    return EmbeddingReport(
        dim_d=dim,
        p=draw(_ball_exponents),
        eps=draw(st.floats(min_value=1e-9, max_value=1e3)),
        omega=tuple(draw(st.lists(st.tuples(*[st.integers(-9, 9)] * dim), min_size=1,
                                  max_size=5))),
        omega_prime_size=draw(_counts),
        sample_count=draw(_sample_counts),
        seed=draw(_seeds),
        checked_count=draw(_counts),
        failure_count=draw(_counts),
        worst_margin=draw(st.one_of(st.none(), _reals)),
        witness=witness,
    )


@st.composite
def _tables(draw):
    dim = draw(st.integers(min_value=1, max_value=3))
    radii = sorted(set(draw(st.lists(st.integers(0, 50), min_size=1, max_size=5))))
    return MeanDimensionTable(
        dim_d=dim,
        p=draw(_ball_exponents),
        eps=draw(st.floats(min_value=1e-9, max_value=1e3)),
        constant=draw(_counts),
        rows=tuple((r, (2 * r + 1) ** dim, draw(_magnitudes)) for r in radii),
    )


def _json_keys(report) -> list:
    # every field in declaration order, elapsed, which the report declares, last
    names = [f.name for f in dataclasses.fields(report)]
    assert names[-1] == "elapsed"
    return names


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
_EXAMPLE_TABLE = MeanDimensionTable(1, math.inf, 5.0, 0, ((0, 1, -0.0), (2, 5, 0.0)))

# the CSV header of each report type, pinned byte for byte
_HEADERS = {
    CertificationReport: "n,m,p,q,r,sample_count,seed,max_observed_distortion,bound,margin,"
                         "argmax_vector,elapsed",
    EmbeddingReport: "dim_d,p,eps,omega_size,omega_prime_size,sample_count,seed,checked_count,"
                     "failure_count,worst_margin,elapsed",
    MeanDimensionTable: "radius,omega_size,widim_constant,ratio",
}


@settings(max_examples=300, deadline=None)
@given(_certification_reports)
@example(_EXAMPLE_CERTIFICATION)
def test_certification_report_round_trip(report):
    text = to_json(report)
    back = from_json(CertificationReport, text)
    assert back == report and to_json(back) == text  # the bytes keep every -0.0
    assert list(json.loads(text)) == _json_keys(report)
    assert json.loads(text)["elapsed"] is None
    e = report.exponents
    assert json.loads(text)["exponents"] == {
        "p": e.p, "q": "inf" if math.isinf(e.q) else e.q, "r": e.r}
    header, row = csv_lines(report)
    assert header == _HEADERS[CertificationReport]
    assert row == _csv_cells(report, header, {"p": e.p, "q": e.q, "r": e.r})
    assert row.endswith(",")


def test_report_from_json_refuses_an_edited_rate():
    # r is derived from p and q, so a document whose r was edited is refused
    report = dataclasses.replace(_EXAMPLE_CERTIFICATION, exponents=make_exponents(1.5, 3.7))
    text = to_json(report)
    assert from_json(CertificationReport, text) == report
    r = report.exponents.r
    for edited in (math.nextafter(r, 0.0), math.nextafter(r, math.inf), 2.0, 1.5):
        doc = json.loads(text)
        doc["exponents"]["r"] = edited
        with pytest.raises(ValueError, match="is not the rate"):
            from_json(CertificationReport, json.dumps(doc))


@settings(max_examples=300, deadline=None)
@given(_embedding_reports())
@example(_EXAMPLE_EMBEDDING)
@example(dataclasses.replace(_EXAMPLE_EMBEDDING, p=2.0, worst_margin=None, witness=None))
def test_embedding_report_round_trip(report):
    text = to_json(report)
    back = from_json(EmbeddingReport, text)
    assert back == report and to_json(back) == text
    assert list(json.loads(text)) == _json_keys(report)
    assert json.loads(text)["p"] == ("inf" if math.isinf(report.p) else report.p)
    header, row = csv_lines(report)
    assert header == _HEADERS[EmbeddingReport]
    assert row == _csv_cells(report, header, {"omega_size": len(report.omega)})
    assert row.endswith(",")


@pytest.mark.parametrize("q", [None, [2], {}])
def test_report_from_json_reads_q_by_the_exponent_rule(q):
    # a null or a container is no exponent: the rule refuses it as it refuses
    # any other non-real, not with a TypeError from float()
    doc = json.loads(to_json(_EXAMPLE_CERTIFICATION))
    doc["exponents"]["q"] = q
    with pytest.raises(ValueError, match="distance exponent q must be at least 1 or inf"):
        from_json(CertificationReport, json.dumps(doc))


@pytest.mark.parametrize("p", ["nan", True, " 2 ", "Infinity", "1e400", None, [2]])
def test_embedding_report_from_json_reads_p_by_the_exponent_rule(p):
    # only the JSON spelling "inf" of p is decoded, as the certify pair's q is;
    # float() read the first five as nan, 1.0, 2.0, inf and inf, and raised
    # TypeError on a null or a list; a table's p is read by the same declaration
    for report in (_EXAMPLE_EMBEDDING, _EXAMPLE_TABLE):
        doc = json.loads(to_json(report))
        doc["p"] = p
        with pytest.raises(ValueError, match="ball exponent p must be at least 1 or inf"):
            from_json(type(report), json.dumps(doc))


def _edited(report, **entries):
    return json.dumps({**json.loads(to_json(report)), **entries})


def _without(report, key):
    doc = json.loads(to_json(report))
    del doc[key]
    return json.dumps(doc)


@pytest.mark.parametrize("cls, text, message", [
    # a document that is not an object
    (EmbeddingReport, "[]", "EmbeddingReport document must be a JSON object, not list"),
    (EmbeddingReport, "5", "EmbeddingReport document must be a JSON object, not int"),
    # a missing key
    (EmbeddingReport, "{}", "EmbeddingReport: bad or missing entry 'dim_d': KeyError('dim_d')"),
    (CertificationReport, _without(_EXAMPLE_CERTIFICATION, "m"),
     "CertificationReport: bad or missing entry 'm': KeyError('m')"),
    # a declared reader's TypeError on a misshapen entry
    (EmbeddingReport, _edited(_EXAMPLE_EMBEDDING, omega=5),
     "EmbeddingReport: bad or missing entry 'omega': TypeError("),
    (MeanDimensionTable, _edited(_EXAMPLE_TABLE, rows=[5]),
     "MeanDimensionTable: bad or missing entry 'rows': TypeError("),
], ids=["list", "number", "empty", "certify-without-m", "omega-number", "table-row-number"])
def test_from_json_refuses_a_malformed_document_with_value_error(cls, text, message):
    # these used to escape as KeyError or TypeError, not the ValueError of bad input
    with pytest.raises(ValueError) as info:
        from_json(cls, text)
    assert str(info.value).startswith(message)


@pytest.mark.parametrize("report, entries, message", [
    (_EXAMPLE_CERTIFICATION, {"seed": -1}, "seed must be an integer of at least 0, got -1"),
    (_EXAMPLE_CERTIFICATION, {"seed": 2**64}, "seed must be an integer of at least 0 and below"),
    (_EXAMPLE_CERTIFICATION, {"n": "x"}, "dimension n must be an integer of at least 1, got 'x'"),
    (_EXAMPLE_CERTIFICATION, {"m": 1.0}, "sparsity m must be an integer of at least 0, got 1.0"),
    (_EXAMPLE_CERTIFICATION, {"sample_count": 2.5},
     "sample count must be an integer of at least 1, got 2.5"),
    (_EXAMPLE_EMBEDDING, {"dim_d": "x"}, "dimension d must be an integer of at least 1, got 'x'"),
    (_EXAMPLE_EMBEDDING, {"failure_count": "many"},
     "failure count must be an integer of at least 0, got 'many'"),
    (_EXAMPLE_EMBEDDING, {"checked_count": True},
     "checked count must be an integer of at least 0, got True"),
    (_EXAMPLE_EMBEDDING, {"worst_margin": "0.5"}, "worst margin must be a finite real, got '0.5'"),
    (_EXAMPLE_EMBEDDING, {"worst_margin": math.nan}, "worst margin must be a finite real, got nan"),
    (_EXAMPLE_EMBEDDING, {"witness": 5}, "EmbeddingReport: bad or missing entry 'witness': "
                                         "TypeError("),
    (_EXAMPLE_EMBEDDING, {"witness": [["index", 7]]}, "EmbeddingReport: bad or missing entry "
                                                      "'witness': TypeError("),
    (_EXAMPLE_TABLE, {"widim_constant": -1},
     "widim constant must be an integer of at least 0, got -1"),
], ids=["seed-negative", "seed-wide", "n-string", "m-float", "samples-fraction", "dim-string",
        "failures-string", "checked-bool", "margin-string", "margin-nan", "witness-number",
        "witness-pairs", "constant-negative"])
def test_from_json_reads_every_declared_entry_by_core_rules(report, entries, message):
    # these documents round-tripped as written before the integer, seed, margin
    # and witness entries declared their readers
    with pytest.raises(ValueError) as info:
        from_json(type(report), _edited(report, **entries))
    assert str(info.value).startswith(message)


_BAD_ROW = {"radius": "a", "omega_size": None, "ratio": "z"}
_GOOD_ROW = {"radius": 0, "omega_size": 1, "ratio": 0.5}


@pytest.mark.parametrize("report, entries, message", [
    (_EXAMPLE_CERTIFICATION, {"margin": "abc"}, "margin must be a finite real, got 'abc'"),
    (_EXAMPLE_CERTIFICATION, {"bound": None}, "bound must be a nonnegative finite real, got None"),
    (_EXAMPLE_CERTIFICATION, {"max_observed_distortion": [1]},
     "max observed distortion must be a nonnegative finite real, got [1]"),
    (_EXAMPLE_CERTIFICATION, {"argmax_vector": "xy"}, "vector must hold reals, not bools or "),
    (_EXAMPLE_CERTIFICATION, {"argmax_vector": ["a", "b"]}, "vector must hold reals, not bools"),
    (_EXAMPLE_EMBEDDING, {"eps": "x"}, "scale eps must be a positive finite real, got 'x'"),
    (_EXAMPLE_EMBEDDING, {"eps": -1}, "scale eps must be a positive finite real, got -1"),
    (_EXAMPLE_EMBEDDING, {"eps": None}, "scale eps must be a positive finite real, got None"),
    (_EXAMPLE_TABLE, {"eps": "x"}, "scale eps must be a positive finite real, got 'x'"),
    (_EXAMPLE_TABLE, {"rows": [_BAD_ROW]}, "box radius must be an integer of at least 0, got 'a'"),
    (_EXAMPLE_TABLE, {"rows": [{**_GOOD_ROW, "radius": -1}]},
     "box radius must be an integer of at least 0, got -1"),
    (_EXAMPLE_TABLE, {"rows": [{**_GOOD_ROW, "omega_size": None}]},
     "omega size must be an integer of at least 1, got None"),
    (_EXAMPLE_TABLE, {"rows": [{**_GOOD_ROW, "omega_size": 0}]},
     "omega size must be an integer of at least 1, got 0"),
    (_EXAMPLE_TABLE, {"rows": [{**_GOOD_ROW, "ratio": "z"}]},
     "ratio must be a nonnegative finite real, got 'z'"),
    (_EXAMPLE_TABLE, {"rows": [{**_GOOD_ROW, "ratio": -1.0}]},
     "ratio must be a nonnegative finite real, got -1.0"),
], ids=["margin-string", "bound-null", "distortion-list", "argmax-string", "argmax-strings",
        "embed-eps-string", "embed-eps-negative", "embed-eps-null", "table-eps-string",
        "table-row-strings", "row-radius-negative", "row-size-null", "row-size-zero",
        "row-ratio-string", "row-ratio-negative"])
def test_from_json_reads_every_real_entry_by_core_rules(report, entries, message):
    # these documents were read as written before the distortion, bound,
    # margin, argmax, scale and table-row entries declared their readers
    with pytest.raises(ValueError) as info:
        from_json(type(report), _edited(report, **entries))
    assert str(info.value).startswith(message)


@pytest.mark.parametrize("cls", [CertificationReport, EmbeddingReport, MeanDimensionTable])
def test_every_report_field_declares_a_reader(cls):
    # an entry with no reader is taken as written, whatever the document holds
    assert [f.name for f in dataclasses.fields(cls) if f.init and not f.metadata.get("read")] == []


@settings(max_examples=300, deadline=None)
@given(st.one_of(_certification_reports, _embedding_reports(), _tables()))
@example(_EXAMPLE_CERTIFICATION)
@example(_EXAMPLE_EMBEDDING)
@example(_EXAMPLE_TABLE)
def test_every_report_round_trips(report):
    cls = type(report)
    text = to_json(report)
    back = from_json(cls, text)
    assert back == report and to_json(back) == text  # the bytes keep every -0.0
    lines = table_csv_lines(report) if cls is MeanDimensionTable else csv_lines(report)
    assert lines[0] == _HEADERS[cls]
    doc = json.loads(text)
    # "inf" is decoded for a declared exponent only: any other entry refuses it or keeps it
    for f in dataclasses.fields(cls):
        key = f.metadata.get("key") or f.name
        if f.init and key != "p":
            try:
                value = getattr(from_json(cls, json.dumps({**doc, key: "inf"})), f.name)
            except ValueError:
                continue
            assert value != math.inf
    if cls is CertificationReport:
        pair = {**doc["exponents"], "q": "inf", "r": report.exponents.p}
        assert from_json(cls, json.dumps({**doc, "exponents": pair})).exponents.q == math.inf
    else:
        assert from_json(cls, json.dumps({**doc, "p": "inf"})).p == math.inf


def test_declared_spelling_drops_renames_nests_and_flattens():
    @dataclasses.dataclass(frozen=True)
    class Report:
        a: int
        b: tuple = spelled(json=lambda b: {"x": b[0], "y": b[1]},
                           csv=lambda b: {"b0": b[0], "b1": b[1]},
                           read=lambda doc: (doc["x"], doc["y"]))
        c: str = spelled(key="see")
        d: dict = spelled(csv=lambda d: {})
        elapsed: None = dataclasses.field(default=None, init=False, compare=False)

    report = Report(1, (2, 3), "x", {"k": [1.5]})
    text = to_json(report)
    assert text == '{"a": 1, "b": {"x": 2, "y": 3}, "see": "x", "d": {"k": [1.5]}, "elapsed": null}'
    assert csv_lines(report) == ["a,b0,b1,see,elapsed", "1,2,3,x,"]
    assert from_json(Report, text) == report


def test_the_report_format_lives_in_output():
    # certify and group_dynamics declare their spelling on their report fields:
    # a json import, a hand-written CSV header or a second "inf" decode there
    # would be a second copy of the format
    src = Path(widim.__file__).parent
    for name in ("certify.py", "group_dynamics.py"):
        tree = ast.parse((src / name).read_text())
        imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                    for alias in node.names}
        assert "json" not in imported, name
        headers = [node.value for node in ast.walk(tree) if isinstance(node, ast.Constant)
                   and isinstance(node.value, str) and re.fullmatch(r"\w+(,\w+)+", node.value)]
        assert headers == [], name
    decodes = {path.name: path.read_text().count('== "inf"') for path in src.glob("*.py")}
    assert {name: count for name, count in decodes.items() if count} == {"_output.py": 1}
