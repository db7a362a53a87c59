"""The text format of every widim report and command.

CSV cells use '.' decimals and 17 significant digits, so doubles
round-trip losslessly, and an infinite value prints as ``inf``. JSON
heads spell an infinite exponent ``"inf"`` (``bounds`` rows: ``Infinity``). A CSV
document opens with ``# widim <command>`` and one ``# key=value`` line per
echoed parameter, then the column header and the rows. A report dataclass
declares its spelling once, on its fields (:func:`spelled`): one walk over them
in declaration order writes its JSON and CSV, and :func:`from_json` reads the
JSON back, decoding ``"inf"`` only for a declared exponent.
"""

from __future__ import annotations

import dataclasses
import json
import math

from .core import Exponents, _check_exponent

__all__ = ["to_json", "from_json", "csv_lines", "table_csv_lines"]


def cell(v) -> str:
    """One CSV cell: None empty, booleans lower case, a sequence ;-joined."""
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, str)):
        return str(v)
    if isinstance(v, (tuple, list)):
        return ";".join(cell(x) for x in v)
    return format(float(v), ".17g")


def csv_row(values) -> str:
    return ",".join(cell(v) for v in values)


def json_exponent(x: float):
    return "inf" if math.isinf(x) else x


def csv_document(command: str, params: dict, lines) -> str:
    """The whole CSV text: the parameters (a list one ,-joined), then ``lines``."""
    out = [f"# widim {command}"]
    for key, value in params.items():
        text = ",".join(map(cell, value)) if isinstance(value, list) else cell(value)
        out.append(f"# {key}={text}")
    out.extend(lines)
    return "\n".join(out) + "\n"


def spelled(key=None, json=None, csv=None, read=None) -> dataclasses.Field:
    """A report field with a declared spelling: its JSON entry is named ``key``
    (the field's name by default) and holds ``json(value)``, which ``read`` turns
    back into the value; ``csv(value)`` gives its CSV cells as a dict ({} drops
    the field), by default the JSON entry. An omitted function is the identity."""
    return dataclasses.field(metadata={"key": key, "json": json, "csv": csv, "read": read})


def checked(rule, *args, null=False, **spelling) -> dataclasses.Field:
    """A field read back as ``rule(value, *args)``; with ``null``, a JSON null reads as None."""
    return spelled(**spelling, read=lambda v: None if null and v is None else rule(v, *args))


def _decoded(value):
    """A JSON exponent as core's rules read it: "inf" is the one spelling decoded."""
    return math.inf if value == "inf" else value


def exponent(what: str) -> dataclasses.Field:
    """A float exponent field, spelled "inf" when infinite, read back by core's rule as ``what``."""
    return spelled(json=json_exponent, read=lambda value: _check_exponent(_decoded(value), what))


def pair_entries(e: Exponents) -> dict:
    """An exponent pair's entries: {p, q, r}, an object in JSON and three CSV columns."""
    return {"p": e.p, "q": json_exponent(e.q), "r": e.r}


def read_pair(doc: dict) -> Exponents:
    """The pair built from p and q; refused when the document's r is not their rate."""
    e = Exponents(_decoded(doc["p"]), _decoded(doc["q"]))
    if doc["r"] != e.r:
        raise ValueError(f"r={doc['r']!r} is not the rate {e.r!r} of p={e.p}, q={e.q}")
    return e


def _entries(report, csv: bool) -> dict:
    """A report's JSON entries, or with ``csv`` its CSV cells, in field order."""
    doc = {}
    for f in dataclasses.fields(report):
        spelling, value = f.metadata, getattr(report, f.name)
        if csv and spelling.get("csv"):
            doc.update(spelling["csv"](value))
        else:
            write = spelling.get("json")
            doc[spelling.get("key") or f.name] = write(value) if write else value
    return doc


def to_json(report) -> str:
    """A certify, embed or table report as one line of JSON."""
    return json.dumps(_entries(report, csv=False))


def from_json(cls, text: str):
    """The report of class ``cls`` that :func:`to_json` wrote as ``text``. A missing
    or misshapen entry, or a value a declared reader's core rule refuses, raises ``ValueError``."""
    doc, values = json.loads(text), {}
    if not isinstance(doc, dict):
        raise ValueError(f"{cls.__name__} document must be a JSON object, not {type(doc).__name__}")
    for f in (f for f in dataclasses.fields(cls) if f.init):
        key, read = f.metadata.get("key") or f.name, f.metadata.get("read") or (lambda v: v)
        try:
            values[f.name] = read(doc[key])
        except (KeyError, TypeError) as exc:
            raise ValueError(f"{cls.__name__}: bad or missing entry {key!r}: {exc!r}") from None
    return cls(**values)


def csv_lines(report) -> list:
    """A certify or embed report's CSV header and its one row."""
    cells = _entries(report, csv=True)
    return [",".join(cells), csv_row(cells.values())]


def table_csv_lines(table) -> list:
    """A count table's CSV header, then one row per box."""
    return ["radius,omega_size,widim_constant,ratio"] + [
        csv_row([r, size, table.constant, ratio]) for r, size, ratio in table.rows]
