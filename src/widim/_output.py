"""The text format of every widim report and command.

CSV cells use '.' decimals and 17 significant digits, so doubles
round-trip losslessly, and an infinite value prints as ``inf``. JSON
heads spell an infinite exponent ``"inf"`` (``bounds`` rows: ``Infinity``). A CSV
document opens with ``# widim <command>`` and one ``# key=value`` line per
echoed parameter, then the column header and the rows. A certify or embed
report is written from its dataclass fields in declaration order
(:func:`report_fields`), with an ``elapsed`` column that is always null in
JSON and empty in CSV.
"""

from __future__ import annotations

import dataclasses
import math

__all__ = ["cell", "csv_row", "json_exponent", "csv_document", "report_fields"]


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


def report_fields(report, **spelled) -> dict:
    """The fields of a report dataclass in declaration order, then ``elapsed``
    (None); a field named in ``spelled`` is replaced by the entries of the
    dict given for it, so an empty dict drops it."""
    doc = {}
    for f in dataclasses.fields(report):
        if f.name in spelled:
            doc.update(spelled[f.name])
        else:
            doc[f.name] = getattr(report, f.name)
    doc["elapsed"] = None
    return doc


def csv_document(command: str, params: dict, header, rows) -> str:
    """The whole CSV text; a list parameter is ,-joined, ``header`` may be None."""
    lines = [f"# widim {command}"]
    for key, value in params.items():
        text = ",".join(map(cell, value)) if isinstance(value, list) else cell(value)
        lines.append(f"# {key}={text}")
    if header is not None:
        lines.append(header)
    lines.extend(rows)
    return "\n".join(lines) + "\n"
