"""JSON matrix files.

A matrix file is a JSON object {"rows": r, "cols": c, "data": [...]} whose
data field is a row-major nested array with one [re, im] pair of doubles
per entry.  Serialization uses the shortest round-tripping decimal
representation, so emit -> parse is bit-exact and parse -> emit is
byte-identical modulo whitespace.

Size rule: a matrix of at least FAST_ENTRIES entries is read and written
through orjson, imported on first use; smaller ones never load it.  The
fast path gives the same array and the same text as the stdlib codec, and
the stdlib codec decides every refusal: a file that orjson or the shape
checks refuse is parsed again with json.loads, so every message is the
stdlib path's, and a matrix with a non-finite entry is written by
json.dumps.
"""

from __future__ import annotations

import json
import math
import re
from itertools import chain
from pathlib import Path
from typing import NoReturn

import numpy as np

from .errors import ParseError, ShapeError

# matrices with at least this many entries go through orjson.  Importing
# it takes 4-8 ms; on dense doubles it saves 6-14 ms per parse and ~19 ms
# per emit at 2^14 entries, but only 2.5 and 3.9 ms at 2^12 (2-core x86-64)
FAST_ENTRIES = 1 << 14

# orjson writes the shortest round-tripping digits, as repr does, but
# formats two kinds of token otherwise: an exponent with no "+" and no
# leading zero ("1e16", "1e-7" for "1e+16", "1e-07"), and 1e-5 <= |x| < 1e-4
# with none ("0.00001" for "1e-05"); the lookbehind keeps the second
# pattern to whole tokens, so "10.00001" is left alone
_EXPONENT = re.compile(r"e(-?)(\d+)")
_SMALL_DECIMAL = re.compile(r"0\.0000(?<=[\[,-]0\.0000)\d*")


def _reject_constant(token: str):
    raise ParseError(f"non-finite JSON token {token!r} is not a valid matrix entry")


def _pairs(a: np.ndarray) -> np.ndarray:
    """The matrix as a contiguous (rows, cols, 2) array of [re, im]."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim == 1:
        m = m[:, None]
    if m.ndim != 2:
        raise ShapeError(f"expected a matrix, got ndim={m.ndim}")
    return np.ascontiguousarray(m).view(np.float64).reshape(*m.shape, 2)


def matrix_to_obj(a: np.ndarray) -> dict:
    pairs = _pairs(a)
    rows, cols, _ = pairs.shape
    return {"rows": rows, "cols": cols, "data": pairs.tolist()}


def _data_text(pairs: np.ndarray) -> str:
    """json.dumps(pairs.tolist()).  A matrix with a non-finite entry goes
    to json.dumps, since orjson would write null for it."""
    if pairs.size < 2 * FAST_ENTRIES or not np.isfinite(pairs).all():
        return json.dumps(pairs.tolist())
    import orjson
    text = orjson.dumps(pairs, option=orjson.OPT_SERIALIZE_NUMPY).decode()
    text = _EXPONENT.sub(lambda m: f"e{m[1] or '+'}{m[2]:0>2}", text)
    return _SMALL_DECIMAL.sub(lambda m: repr(float(m[0])), text).replace(",", ", ")


def _raise_first_fault(data: list, cols: int, source: str) -> NoReturn:
    """Raise the error for the first malformed row or entry of data, in
    row-major order."""
    for r, row in enumerate(data):
        if not isinstance(row, list) or len(row) != cols:
            raise ShapeError(f"{source}: row {r} must be a list of {cols} entries")
        for c, entry in enumerate(row):
            if (
                not isinstance(entry, list)
                or len(entry) != 2
                or not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in entry)
            ):
                raise ParseError(
                    f"{source}: entry ({r}, {c}) must be a [re, im] pair of numbers"
                )
            try:
                finite = math.isfinite(entry[0]) and math.isfinite(entry[1])
            except OverflowError:
                raise ParseError(f"{source}: entry ({r}, {c}) is too large for a double") from None
            if not finite:
                raise ParseError(f"{source}: entry ({r}, {c}) is not finite")
    raise ParseError(f"{source}: data must hold [re, im] pairs of JSON numbers")


def _well_formed(data: list, cols: int) -> bool:
    """Whether data is a list of rows of cols [re, im] pairs of int or
    float, checked by whole-list scans."""
    if not all(type(row) is list and len(row) == cols for row in data):
        return False
    entries = list(chain.from_iterable(data))
    return all(type(e) is list and len(e) == 2 for e in entries) and set(
        map(type, chain.from_iterable(entries))
    ) <= {int, float}


def obj_to_matrix(obj, source: str = "<matrix>") -> np.ndarray:
    if not isinstance(obj, dict):
        raise ParseError(f"{source}: top level must be a JSON object")
    for key in ("rows", "cols", "data"):
        if key not in obj:
            raise ParseError(f"{source}: missing field {key!r}")
    rows, cols, data = obj["rows"], obj["cols"], obj["data"]
    if type(rows) is not int or type(cols) is not int or rows < 1 or cols < 1:
        raise ParseError(f"{source}: rows/cols must be positive integers")
    if not isinstance(data, list) or len(data) != rows:
        raise ShapeError(f"{source}: data must be a list of {rows} rows")
    try:
        pairs = np.array(data, dtype=np.float64) if _well_formed(data, cols) else None
    except OverflowError:
        pairs = None
    if pairs is None or not np.isfinite(pairs).all():
        _raise_first_fault(data, cols, source)
    return pairs.view(np.complex128)[..., 0]


def parse_matrix_text(text: str, source: str = "<matrix>") -> np.ndarray:
    if text.count("[") > FAST_ENTRIES:  # one "[" per entry, one per row, one more
        import orjson
        try:
            return obj_to_matrix(orjson.loads(text), source)
        except (orjson.JSONDecodeError, ParseError, ShapeError):
            pass  # json.loads decides the refusal and its message
    try:
        obj = json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{source}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    return obj_to_matrix(obj, source)


def parse_matrix(path) -> np.ndarray:
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"{p}: cannot read file: {exc}") from exc
    return parse_matrix_text(text, str(p))


def indented_matrix_text(a: np.ndarray, indent: str) -> str:
    """The text json.dumps(matrix_to_obj(a), indent=2) gives for a
    nonempty matrix whose opening brace is on a line indented by indent.

    _data_text writes the [re, im] pairs on one line, as the C encoder
    does; since no float repr holds a bracket or ", ", three replacements
    put every bracket and number on its own line, as the pure-Python
    indenting encoder would."""
    pairs = _pairs(a)
    rows, cols, _ = pairs.shape
    i1, i2, i3, i4 = (indent + "  " * k for k in range(1, 5))
    body = (
        _data_text(pairs)[3:-3]
        .replace("]], [[", f"\n{i3}]\n{i2}],\n{i2}[\n{i3}[\n{i4}")
        .replace("], [", f"\n{i3}],\n{i3}[\n{i4}")
        .replace(", ", f",\n{i4}")
    )
    return (
        f'{{\n{i1}"cols": {cols},\n{i1}"data": [\n{i2}[\n{i3}[\n{i4}{body}'
        f'\n{i3}]\n{i2}]\n{i1}],\n{i1}"rows": {rows}\n{indent}}}'
    )


def emit_matrix(a: np.ndarray) -> str:
    """json.dumps(matrix_to_obj(a), sort_keys=True)."""
    pairs = _pairs(a)
    rows, cols, _ = pairs.shape
    return f'{{"cols": {cols}, "data": {_data_text(pairs)}, "rows": {rows}}}'


def write_matrix(a: np.ndarray, path) -> None:
    Path(path).write_text(emit_matrix(a) + "\n", encoding="utf-8")
