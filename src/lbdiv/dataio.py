"""Parsing helpers shared by the CLI: CSV matrices and small JSON payloads.

CSV is comma-separated, UTF-8, LF or CRLF; an optional header row is
detected by a non-numeric first row. Every parsed value must be finite.
"""

from __future__ import annotations

import json

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


def _finite(values: np.ndarray, what: str) -> np.ndarray:
    if not np.all(np.isfinite(values)):
        raise ParseError(f"non-finite value in {what}")
    return values


def parse_vector(text: str) -> np.ndarray:
    """A single comma-separated (or JSON array) vector of finite reals."""
    text = text.strip()
    if text.startswith("["):
        try:
            vec = np.asarray(json.loads(text), dtype=float)
        except (json.JSONDecodeError, ValueError) as exc:
            raise ParseError(f"bad JSON vector: {exc}") from None
    else:
        try:
            vec = np.array([float(c) for c in text.split(",")])
        except ValueError as exc:
            raise ParseError(f"bad vector: {exc}") from None
    return _finite(vec, "vector")


def parse_int_vector(text: str) -> list:
    vec = parse_vector(text)
    out = [int(v) for v in vec]
    if any(v != int(v) for v in vec):
        raise ParseError("expected integers")
    return out


def load_gain_table(text: str) -> np.ndarray:
    """Gain tables are flat JSON arrays of reals."""
    try:
        vals = np.asarray(json.loads(text), dtype=float)
    except json.JSONDecodeError as exc:
        raise ParseError(f"bad gain table JSON: {exc}") from None
    except (TypeError, ValueError, OverflowError):  # not a list of reals
        vals = None
    if vals is None or vals.ndim != 1:
        raise ParseError("gain table must be a JSON array of reals")
    return _finite(vals, "gain table")
