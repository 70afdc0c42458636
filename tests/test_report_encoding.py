"""cli.emit_report against the stdlib layout of the same report
(oracles.report_json): byte-identical for matrices of every shape class,
nested at several depths, with signed zeros, subnormals, integers past
2^53, huge and non-finite entries, real, transposed and Fortran-ordered
arrays, next to scalars, complex numbers and 1-D arrays."""

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from leafkit.cli import Report, emit_report

from oracles import report_json

SPECIAL = [-0.0, 0.0, 5e-324, -5e-324, 2.0, 1e16, float(2**53 + 1), 1e300, -1e300, 0.1,
           math.nan, math.inf, -math.inf]
VALUES = st.sampled_from(SPECIAL) | st.floats(width=64)
SHAPES = st.sampled_from([(1, 1), (1, 7), (7, 1), (3, 5), (64, 64)])
KEYS = st.text(alphabet="abcé_\"\\", min_size=1, max_size=3)
ENCODING_SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None)


@st.composite
def matrices(draw):
    rows, cols = draw(SHAPES)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pairs = rng.standard_normal((rows, cols, 2)) * 10.0 ** rng.integers(-300, 300, (rows, cols, 2))
    for _ in range(draw(st.integers(0, 6))):
        pairs[draw(st.integers(0, rows - 1)), draw(st.integers(0, cols - 1)), draw(st.integers(0, 1))] = draw(VALUES)
    m = pairs.view(np.complex128)[..., 0]
    return draw(st.sampled_from([m, m.real, m.T, np.asfortranarray(m), m.real > 0]))


SCALARS = (
    VALUES
    | st.sampled_from([2**53 + 1, -(2**63), True, None, "T.json", np.float64(-0.0), np.int64(3), np.bool_(False)])
    | st.complex_numbers(allow_nan=False)
    | st.builds(np.array, st.lists(VALUES, max_size=4))
    | st.just(np.zeros((0, 3)))
)


def nested(leaf):
    """leaf wrapped in zero to three dicts and lists."""
    return st.recursive(leaf, lambda inner: st.lists(inner, min_size=1, max_size=2)
                        | st.dictionaries(KEYS, inner, min_size=1, max_size=2), max_leaves=4)


SECTIONS = st.dictionaries(KEYS, nested(matrices() | SCALARS), max_size=3)


@ENCODING_SETTINGS
@given(SECTIONS, SECTIONS, st.booleans())
def test_emit_report_equals_the_stdlib_layout(results, inputs, ok):
    report = Report(command="cross-section", inputs=inputs, results=results, tolerances={"residual": 1e-8}, ok=ok)
    assert emit_report(report) == report_json(report)


def test_matrix_at_every_depth():
    m = np.arange(15.0).reshape(3, 5) * (1 + 1j)
    results = {"phi": m, "deep": {"a": [m, {"b": [[m]]}]}, "pair": [m, m.T]}
    report = Report(command="cross-section", results=results)
    assert emit_report(report) == report_json(report)
