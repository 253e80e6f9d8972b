"""Every text format the CLI reads: score vectors (also item lists and gain
tables) and score matrices, each as CSV or JSON.

CSV is comma-separated, UTF-8, LF or CRLF; an optional header row is
detected by a non-numeric first row. JSON values must be numbers, not
strings or booleans. Vectors and CSV cells must be finite; the owner of a
JSON matrix checks that its values are.
"""

from __future__ import annotations

import json
from itertools import chain

import numpy as np


class ParseError(ValueError):
    """Input that failed to parse; `line` is the offending 1-based row."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


def _is_numeric_row(cells) -> bool:
    try:
        for c in cells:
            float(c)
    except ValueError:
        return False
    return True


def parse_csv_matrix(text: str):
    """Parse CSV text into (rows array, header or None)."""
    lines = [ln for ln in text.replace("\r\n", "\n").split("\n") if ln.strip()]
    if not lines:
        raise ParseError("empty input")
    header = None
    start = 0
    first = [c.strip() for c in lines[0].split(",")]
    if not _is_numeric_row(first):
        header = first
        start = 1
        if len(lines) == 1:
            raise ParseError("no data rows after header")
    body = lines[start:]
    width = body[0].count(",") + 1
    try:  # every cell at once; float() strips the whitespace .strip() would
        if any(ln.count(",") != width - 1 for ln in body):
            raise ValueError("ragged rows")
        cells = list(map(float, ",".join(body).split(",")))
        out = np.array(cells).reshape(len(body), width)
    except ValueError:  # again line by line, to name the first bad line
        rows = []
        for idx, line in enumerate(body, start + 1):
            try:
                rows.append([float(c.strip()) for c in line.split(",")])
            except ValueError as exc:
                raise ParseError(f"non-numeric value in row: {exc}",
                                 line=idx) from None
            if len(rows[-1]) != width:
                raise ParseError(f"expected {width} columns, "
                                 f"found {len(rows[-1])}", line=idx)
        out = np.array(rows)
    bad = np.flatnonzero(~np.isfinite(out).all(axis=1))
    if bad.size:
        raise ParseError("non-finite value in row",
                         line=start + int(bad[0]) + 1)
    return out, header


def _reals(value, text: str, keys: int = 0) -> np.ndarray:
    """value, decoded from the JSON text, as a float array; the text's
    top-level object has `keys` keys. np.asarray also reads strings and
    booleans as reals. Those put into the text a quote beyond the keys' two
    each, or the u of true or the l of false, letters that no number holds;
    only then is every element looked at."""
    array = np.asarray(value, dtype=float)
    if text.count('"') > 2 * keys or "u" in text or "l" in text:
        leaves = [value]
        for _ in range(array.ndim):
            leaves = chain.from_iterable(leaves)
        if {str, bool} & set(map(type, leaves)):
            raise ValueError("found a JSON string or boolean")
    return array


def parse_vector(text: str, what: str = "vector") -> np.ndarray:
    """One vector of finite reals: a flat JSON array when the text starts
    with [ or {, one comma-separated line otherwise. `what` names the input
    in error messages."""
    text = text.strip()
    if text.startswith(("[", "{")):
        try:
            vec = _reals(json.loads(text), text)
        except json.JSONDecodeError as exc:
            raise ParseError(f"bad {what} JSON: {exc}") from None
        except (TypeError, ValueError, OverflowError, RecursionError):
            vec = None  # not a list of reals
        if vec is None or vec.ndim != 1:
            raise ParseError(f"{what} must be a JSON array of reals")
    else:
        try:
            vec = np.array([float(c) for c in text.split(",")])
        except ValueError as exc:
            raise ParseError(f"bad {what}: {exc}") from None
    if not np.all(np.isfinite(vec)):
        raise ParseError(f"non-finite value in {what}")
    return vec


def parse_matrix(text: str) -> np.ndarray:
    """A score matrix as a float array. JSON when the text starts with [ or
    {: an array of rows, or an object whose "rows" key holds one (other
    keys are ignored). CSV otherwise, as parse_csv_matrix reads it."""
    if not text.lstrip().startswith(("[", "{")):
        return parse_csv_matrix(text)[0]
    try:
        raw = json.loads(text)
    except RecursionError:
        raise ParseError("JSON score matrix nested too deeply") from None
    keys = 0
    if isinstance(raw, dict):
        if "rows" not in raw:
            raise ParseError("JSON score matrix object needs a 'rows' key")
        keys, raw = len(raw), raw["rows"]
    try:
        return _reals(raw, text, keys)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"scores must be real numbers: {exc}") from None
