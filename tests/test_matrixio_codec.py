"""The orjson path of matrixio against the stdlib codec.

Parsing gives the stdlib result bit for bit, or the same exception with
the same message; emitting gives json.dumps's text byte for byte.  Every
case runs on both sides of matrixio.FAST_ENTRIES: on small matrices with
the constant patched to 0, so orjson reads and writes them, and on a
1 x (FAST_ENTRIES + 1) matrix with the constant as it is.  The stdlib
result is the same call with the constant patched out of reach.
"""

import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from leafkit import matrixio
from leafkit.cli import Report, emit_report

from oracles import report_json

CODEC_SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None)
LARGE = matrixio.FAST_ENTRIES + 1


def everything_fast():
    return mock.patch.object(matrixio, "FAST_ENTRIES", 0)


def stdlib_only():
    return mock.patch.object(matrixio, "FAST_ENTRIES", 1 << 62)


def outcome(text):
    """The parsed matrix as its shape and bits, or the exception raised."""
    try:
        a = matrixio.parse_matrix_text(text, "m.json")
    except Exception as exc:
        return type(exc).__name__, str(exc)
    return a.shape, a.view(np.uint64).tobytes()


def stdlib_outcome(text):
    with stdlib_only():
        return outcome(text)


def row(cols, token="0.5"):
    """cols [re, im] pairs, the last with token as its real part."""
    return "[" + "[0.25, -1.5], " * (cols - 1) + f"[{token}, 0]]"


def valid(cols, token="0.5"):
    return f'{{"rows": 1, "cols": {cols}, "data": [{row(cols, token)}]}}'


PARSE_CASES = {
    "negative zero": lambda c: valid(c, "-0"),
    "integer above 2^64": lambda c: valid(c, str(2**64 + 1)),
    "integer of 400 digits": lambda c: valid(c, "9" * 400),
    "1e400": lambda c: valid(c, "1e400"),
    "NaN": lambda c: valid(c, "NaN"),
    "boolean entry": lambda c: valid(c, "true"),
    "boolean rows": lambda c: f'{{"rows": true, "cols": {c}, "data": [{row(c)}]}}',
    "duplicate data key, valid last": lambda c: f'{{"rows": 1, "cols": {c}, "data": [{row(c, "NaN")}], "data": [{row(c)}]}}',
    "duplicate data key, valid first": lambda c: f'{{"rows": 1, "cols": {c}, "data": [{row(c)}], "data": [{row(c, "true")}]}}',
    "escaped lone surrogate in an extra key": lambda c: f'{{"note": "\\ud800", "rows": 1, "cols": {c}, "data": [{row(c)}]}}',
    "raw lone surrogate in an extra key": lambda c: f'{{"note": "\ud800", "rows": 1, "cols": {c}, "data": [{row(c)}]}}',
    "ragged rows": lambda c: f'{{"rows": 2, "cols": {c}, "data": [{row(c)}, {row(c - 1)}]}}',
    "reordered keys with whitespace": lambda c: f'\r\n{{ "data" :\t[ {row(c)} ] ,\n"cols":{c}  ,"rows"  : 1}}\n ',
    "truncated": lambda c: valid(c)[:-1],
}


@pytest.mark.parametrize("name", PARSE_CASES)
def test_named_parse_case_matches_the_stdlib(name):
    small = PARSE_CASES[name](3)
    with everything_fast():
        assert outcome(small) == stdlib_outcome(small)
    large = PARSE_CASES[name](LARGE)
    assert outcome(large) == stdlib_outcome(large)


def test_negative_zero_reads_as_positive_zero():
    for cols in (3, LARGE):
        for fast in (everything_fast(), mock.patch.object(matrixio, "FAST_ENTRIES", matrixio.FAST_ENTRIES)):
            with fast:
                a = matrixio.parse_matrix_text(valid(cols, "-0"))
            assert a[0, -1].real == 0.0 and np.copysign(1.0, a[0, -1].real) == 1.0


TOKENS = (
    st.floats(allow_nan=False, allow_infinity=False).map(repr)
    | st.integers(-(2**70), 2**70).map(str)
    | st.sampled_from(["-0", "-0.0", "1E5", "1e-400", "5e-324", "2.4703282292062328e-324",
                       "1.7976931348623159e308", "1e400", "NaN", "-Infinity", "true", "null", '"1"',
                       "9" * 400, "01", "1.", "+1", "[1]", "[1, 2, 3]"])
)
SPACE = st.sampled_from(["", " ", "\n", "\t ", "\r\n  "])


@st.composite
def matrix_texts(draw):
    """A matrix file, most often valid, with drawn tokens and spacing."""
    rows, cols = draw(st.integers(1, 3)), draw(st.integers(1, 3))

    def sp():
        return draw(SPACE)

    def pair():
        return f"[{sp()}{draw(TOKENS)},{sp()}{draw(TOKENS)}{sp()}]"

    def data_row():  # one row in ten is one entry short
        return "[" + ",".join(pair() for _ in range(cols - draw(st.sampled_from([0] * 9 + [1])))) + "]"

    data = "[" + ",".join(data_row() for _ in range(rows)) + "]"
    fields = [f'"rows":{sp()}{draw(st.sampled_from([str(rows)] * 9 + ["true", "0", str(rows + 1)]))}',
              f'"cols":{sp()}{cols}', f'"data":{sp()}{data}']
    fields += draw(st.lists(st.sampled_from(['"note": "\\ud800"', '"data": []', '"x": {"y": [1.5]}']), max_size=1))
    return "{" + sp() + f",{sp()}".join(draw(st.permutations(fields))) + sp() + "}"


@CODEC_SETTINGS
@given(matrix_texts())
@example('{"rows": 1, "cols": 1, "data": [[[1.5, 2.5]]]}')
def test_fast_parse_matches_the_stdlib(text):
    with everything_fast():
        assert outcome(text) == stdlib_outcome(text)


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(st.integers(0, LARGE - 1), st.integers(0, 1), TOKENS, st.integers(0, 2**32 - 1))
def test_large_parse_matches_the_stdlib(col, part, token, seed):
    # one drawn token in a file past FAST_ENTRIES
    pairs = np.random.default_rng(seed).standard_normal((1, LARGE, 2)) * 1e3
    tokens = [[repr(x) for x in pair] for pair in pairs[0].tolist()]
    tokens[col][part] = token
    text = f'{{"rows": 1, "cols": {LARGE}, "data": [[{", ".join(f"[{a}, {b}]" for a, b in tokens)}]]}}'
    assert outcome(text) == stdlib_outcome(text)


def test_valid_large_file_never_reaches_json_loads(tmp_path, monkeypatch):
    # no golden reaches the fast path (every golden is n <= 8), so a fast
    # path that always fell back would go unnoticed without this test
    rng = np.random.default_rng(256)
    a = rng.standard_normal((256, 256)) + 1j * rng.standard_normal((256, 256))
    path = tmp_path / "a.json"
    matrixio.write_matrix(a, path)

    def refuse(*args, **kwargs):
        raise AssertionError("json.loads called on a valid large file")

    with monkeypatch.context() as patch:
        patch.setattr(json, "loads", refuse)
        b = matrixio.parse_matrix(path)
    assert b.view(np.uint64).tobytes() == a.view(np.uint64).tobytes()


def emitted_by_stdlib(a):
    return json.dumps(matrixio.matrix_to_obj(a), sort_keys=True)


EMIT_SPECIALS = np.array(
    [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308, 1e-5, 1e-4, 1e16, 1e17, 10.00001,
     -100.0000123, 9999999999999998.0, 0.1, 2.0**53 + 2, 1e300]
    + [float(y) for x in (1e-5, 1e-4, 1e15, 1e16) for y in (np.nextafter(x, 0), np.nextafter(x, np.inf))]
)


@pytest.mark.parametrize("cols", [40, LARGE])
def test_emit_special_values(cols):
    # signed zeros, subnormals and both sides of 1e-5, 1e-4 and 1e16, where
    # orjson and repr switch between decimal and exponent forms
    rng = np.random.default_rng(cols)
    pairs = rng.standard_normal((1, cols, 2))
    vals = np.concatenate([EMIT_SPECIALS, -EMIT_SPECIALS])
    pairs.reshape(-1)[rng.choice(pairs.size, vals.size, replace=False)] = vals
    a = pairs.view(np.complex128)[..., 0]
    with everything_fast():
        assert matrixio.emit_matrix(a) == emitted_by_stdlib(a)
    assert matrixio.emit_matrix(a) == emitted_by_stdlib(a)


@pytest.mark.parametrize("cols", [3, LARGE])
@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_emit_non_finite_entry(cols, bad):
    a = np.full((1, cols), 0.5 + 0.25j)
    a[0, cols // 2] = complex(0.0, bad)
    with everything_fast():
        text = matrixio.emit_matrix(a)
    assert text == emitted_by_stdlib(a) == matrixio.emit_matrix(a)
    assert "null" not in text


def test_emit_every_power_of_two_and_decade():
    vals = np.concatenate([2.0 ** np.arange(-1074, 1024), 10.0 ** np.arange(-323, 309)])
    vals = np.concatenate([vals, -vals, np.nextafter(vals, 0), np.nextafter(vals, np.inf)])
    vals = vals[np.isfinite(vals)]
    cols = max(LARGE, -(-vals.size // 2))
    pairs = np.resize(vals, 2 * cols).reshape(1, cols, 2)
    a = pairs.view(np.complex128)[..., 0]
    assert matrixio.emit_matrix(a) == emitted_by_stdlib(a)


@CODEC_SETTINGS
@given(st.integers(1, 4), st.integers(1, 4), st.integers(0, 2**32 - 1), st.integers(-326, 304))
def test_fast_emit_matches_json_dumps(rows, cols, seed, decade):
    rng = np.random.default_rng(seed)
    pairs = rng.standard_normal((rows, cols, 2)) * 10.0 ** (decade + rng.integers(-3, 4, (rows, cols, 2)))
    a = pairs.view(np.complex128)[..., 0]
    with everything_fast():
        assert matrixio.emit_matrix(a) == emitted_by_stdlib(a)
        assert matrixio.parse_matrix_text(matrixio.emit_matrix(a)).view(np.uint64).tobytes() == a.view(
            np.uint64).tobytes()


def test_large_emit_across_magnitudes():
    rng = np.random.default_rng(60)
    for _ in range(3):
        pairs = rng.standard_normal((1, LARGE, 2)) * 10.0 ** rng.uniform(-12, 20, (1, LARGE, 2))
        a = pairs.view(np.complex128)[..., 0]
        assert matrixio.emit_matrix(a) == emitted_by_stdlib(a)


def test_large_emit_never_reaches_json_dumps(monkeypatch):
    a = np.random.default_rng(7).standard_normal((1, LARGE)) + 0j
    expected = emitted_by_stdlib(a)

    def refuse(*args, **kwargs):
        raise AssertionError("json.dumps called on a finite large matrix")

    with monkeypatch.context() as patch:
        patch.setattr(json, "dumps", refuse)
        text = matrixio.emit_matrix(a)
    assert text == expected


@pytest.mark.parametrize("shape", [(1, 1), (2, 3), (4, 4)])
def test_fast_report_layout(shape):
    # the indented matrices of a report, through orjson
    rng = np.random.default_rng(shape[0] * 10 + shape[1])
    m = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * 10.0 ** rng.integers(-8, 20, shape)
    report = Report(command="cross-section", inputs={"T": "t.json"}, results={"phi": m, "x": [m]},
                    tolerances={"residual": 1e-8})
    with everything_fast():
        assert emit_report(report) == report_json(report)
