"""Serialization: CSV and JSON record formats.

CSV files carry a header row, comma separators, LF line endings, and
floats printed with 9 significant digits.  JSON documents carry the same
numeric values (rounded to the same 9 significant digits) under a
top-level object with "config", "schema_version", and "rows".

Complex matrices serialize as row-major nested arrays of [re, im] pairs
in the lexicographic |i>_A (x) |j>_B basis.
"""

from __future__ import annotations

import csv
import json
from io import StringIO
from typing import Any, Iterable, Sequence

import numpy as np

SCHEMA_VERSION = 1


def fmt(value: Any) -> str:
    """CSV cell: 9 significant digits for floats, empty for None."""
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.9g}"
    return str(value)


def round9(value: float | None) -> float | None:
    """Round to the printed precision so JSON and CSV agree exactly."""
    if value is None:
        return None
    return float(f"{value:.9g}")


def csv_lines(header: Sequence[str], rows: Iterable[Sequence[Any]]) -> str:
    buffer = StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([fmt(cell) for cell in row])
    return buffer.getvalue()


def json_document(
    config: dict,
    rows: list[dict],
    extra: dict | None = None,
) -> str:
    doc: dict[str, Any] = {"schema_version": SCHEMA_VERSION, "config": config}
    if extra:
        doc.update(extra)
    doc["rows"] = rows
    return json.dumps(doc, indent=2, sort_keys=False) + "\n"


def matrix_to_pairs(m: np.ndarray) -> list[list[list[float]]]:
    m = np.asarray(m, complex)
    return np.stack((m.real, m.imag), axis=-1).tolist()
