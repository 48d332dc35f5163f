"""Serialization: CSV and JSON record formats.

CSV files carry a header row, comma separators, LF line endings, and
floats printed with 9 significant digits.  JSON documents carry the same
numeric values (rounded to the same 9 significant digits) under a
top-level object with "config", "schema_version", and "rows".

Complex matrices serialize as row-major nested arrays of [re, im] pairs
in the lexicographic |i>_A (x) |j>_B basis, written from the stack through
one ``indent=2`` template per dimension with ``%r`` (``float.__repr__``, as
``json`` writes floats) in each number's place.
"""

from __future__ import annotations

import csv
import functools
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


def json_document(config: dict, rows: list[dict], extra: dict | None = None) -> str:
    """A row's "matrix", if any, is JSON text from ``matrix_texts``, spliced in where
    the encoder wrote ``"matrix": null``; no string value holds that, as its quotes
    are escaped."""
    texts = [row["matrix"] for row in rows if "matrix" in row]
    rows = [{**row, "matrix": None} if "matrix" in row else row for row in rows]
    doc = {"schema_version": SCHEMA_VERSION, "config": config, **(extra or {}), "rows": rows}
    head, *tails = json.dumps(doc, indent=2, sort_keys=False).split('"matrix": null')
    pieces = [head]
    for text, tail in zip(texts, tails):
        pieces += ('"matrix": ', text, tail)
    return "".join(pieces + ["\n"])  # no second copy of a long text


@functools.cache
def _matrix_template(d: int) -> str:
    """json.dumps(indent=2) of a d x d [re, im] nest at a row's depth, %r per float."""
    nest = json.dumps(np.zeros((d, d, 2)).tolist(), indent=2)
    return nest.replace("0.0", "%r").replace("\n", "\n" + " " * 6)


def matrix_texts(stack: np.ndarray) -> list[str]:
    """The JSON text of each matrix in an (n, d, d) stack, for a row's "matrix"."""
    template = _matrix_template(stack.shape[-1])
    pairs = np.stack((stack.real, stack.imag), -1).reshape(len(stack), -1).tolist()
    return [template % tuple(p) for p in pairs]


def matrix_to_pairs(m: np.ndarray) -> list[list[list[float]]]:
    m = np.asarray(m, complex)
    return np.stack((m.real, m.imag), axis=-1).tolist()
