"""The set writers against the slow paths they replace.

``report._json_text`` against ``json.dumps`` itself; ``ConfidenceSet.to_csv_rows``,
``IdentifiedSet.to_csv_rows`` and the set figure's scatter and segments against
the one-point-at-a-time and one-segment-at-a-time oracles in ``helpers``: every
file must come out byte for byte the same.
"""

import json
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from diagbounds import SRegion, TestConfig, sharp_union
from diagbounds.identification import IdentifiedSet
from diagbounds.inference import ConfidenceSet
from diagbounds.probability import _DISTINCT_MIN, estimate_joint
from diagbounds.report import (
    _DISTINCT_ROWS, StudyConfig, _analysis_files, _confidence_set_json, _json_text, run_analysis,
)
from diagbounds.svgfig import identified_set_figure

from helpers import (
    S_POINT,
    TABLE_DATASETS,
    WA1,
    oracle_csv_rows,
    oracle_identified_csv_rows,
    oracle_identified_set_figure,
    scalar_set,
)

_EDGE_FLOATS = (0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 2.2250738585072014e-308,
                1.7976931348623157e308, -1e-300, 1e16, 1e22, 0.1)
_FLOATS = st.floats() | st.sampled_from(_EDGE_FLOATS)
# Few values, so that each repeats: the writers spell each distinct value once
# in a column of _DISTINCT_MIN values or more.
_POOL = st.sampled_from((0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan, 5e-324, 0.5, 0.1))
_LEAVES = (
    st.none() | st.booleans() | st.integers() | _FLOATS | st.builds(np.float64, _FLOATS)
    | st.text() | st.sampled_from(["a\nb", 'say "hi"', "théta₁ ≤ 1", "\\n"])
)
_MATRICES = st.integers(1, 4).flatmap(
    lambda m: st.lists(st.lists(_FLOATS, min_size=m, max_size=m), min_size=1, max_size=6)
)
# Matrices long enough to be written from their distinct values.
_LONG_MATRICES = st.integers(1, 4).flatmap(
    lambda m: st.lists(st.lists(_POOL, min_size=m, max_size=m), min_size=_DISTINCT_ROWS, max_size=_DISTINCT_ROWS + 9)
)
_VALUES = (
    st.lists(_FLOATS, max_size=8)  # the fast path when non-empty
    | _MATRICES  # the fast path
    | st.lists(st.lists(_FLOATS, max_size=3), max_size=4)  # ragged rows and [[]]
    | st.lists(st.integers() | st.booleans() | st.builds(np.float64, _FLOATS), max_size=4)
    | st.sampled_from([[], [[]], [[0.5], []], [[0.5], [0.5, 1.0]], [0.5, 1], [[0.5], [True]], [[0.5, None]]])
    | st.recursive(_LEAVES, lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.text(), kids, max_size=3),
                   max_leaves=8)
)
_PAIRS = st.lists(_FLOATS | st.builds(np.float64, _FLOATS), min_size=2, max_size=2)
# Records as reports hold them: a prevalence curve or a list of segments.
_RECORDS = st.lists(
    st.dictionaries(st.sampled_from(["q", "sharp", "rect", "sharp_vacuous", "s1"]),
                    _PAIRS | _FLOATS | st.builds(np.float64, _FLOATS) | st.booleans(), max_size=5),
    max_size=4,
)
_EMPTIES = st.recursive(st.just([]) | st.just({}), lambda kids: st.lists(kids, max_size=2)
                        | st.dictionaries(st.sampled_from(["a", "b"]), kids, max_size=2), max_leaves=4)
# Lists of records sharing one key set, as a report's segments, validation records and
# prevalence curve are, written column by column: one kind of value per key, float
# pairs and string lists among them, keys with "%" or beyond ASCII; then possibly one
# record with another key set, int keys for all, or an np.float64 value.
_COLUMN_KINDS = {
    "float": _FLOATS, "bool": st.booleans(), "int": st.integers(), "str": st.text(), "none": st.none(),
    "pair": _PAIRS, "strings": st.lists(st.text(), max_size=1), "np": st.builds(np.float64, _FLOATS),
    "mixed": _LEAVES,
}


@st.composite
def _same_keyed(draw):
    keys = draw(st.lists(st.text() | st.sampled_from(["%", "%s", "a%%b", "théta₁ ≤ 1", "q"]),
                         min_size=1, max_size=6, unique=True))
    kinds = {k: draw(st.sampled_from(sorted(_COLUMN_KINDS))) for k in keys}
    records = [{k: draw(_COLUMN_KINDS[kinds[k]]) for k in keys} for _ in range(draw(st.integers(2, 8)))]
    twist = draw(st.sampled_from(["none"] * 4 + ["drop", "add", "int keys", "np"]))
    last = records[-1]
    if twist == "drop":
        del last[keys[0]]
    elif twist == "add":
        last["%extra"] = 0.5
    elif twist == "int keys":  # one key set, but not of str
        records = [dict(enumerate(r.values())) for r in records]
    elif twist == "np":
        last[keys[0]] = np.float64(0.25)
    return records


_SAME_KEYED = _same_keyed()
_DICTS = (
    st.dictionaries(st.text(), _VALUES | _RECORDS | _EMPTIES, max_size=6)
    | st.dictionaries(st.integers(), _VALUES, max_size=3)
    | st.dictionaries(st.sampled_from(["x", "y", "z"]), _VALUES, max_size=3)
)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@example({})
@example({"points": [[0.0, -0.0], [math.inf, math.nan]], "t_n": [-math.inf, 5e-324], "n": 3})
@example({"a": [1.0, [2.0]], "b": {"c": [0.5, 0.25]}, "é\n": "x\ny"})
@example({"prevalence_curve": [{"q": 0.0, "sharp": [0.0, 0.25], "rect": [np.float64(0.5), math.inf],
                                "sharp_vacuous": False}], "segments": [{"s1": np.float64(0.9), "lo": [0.1, 0.2]}]})
@example({"a": [[], {}, [[]], [{}]], "b": {"c": {}, "d": [[], []]}, "e": [{}, {"f": []}]})
@example([{"q": 0.5, "sharp": [0.25, np.float64(0.75)]}, [np.float64(math.nan), 1.0]])
@example(np.float64(-math.inf))
@example("théta₁ ≤ 1")
@example([[0.5, 1.0], [np.float64(0.5), 1.0]])
@example([{"s1": 0.8, "passed": True, "cell_floor_ok": None, "n": 3, "violated": v} for v in ([], [], ["a"])])
@example({"curve": [{"q": q, "sharp": [0.0, q], "rect": [-0.0, math.inf], "vacuous": False} for q in (0.0, 0.5, 1.0)]})
@example([{"a%s": 1.0, "é%": "x%sy"}] * 3)
@example([{"a": [], "b": [[]]}] * 3)
@example({"points": [[x, 1.0] for x in (0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, 0.5, 0.0)] * 16})
@example({"points": [[x, 1.0] for x in (0.0, -0.0, math.inf, math.nan, 5e-324)] * 25})  # one row short
@given(obj=_DICTS | _VALUES | _RECORDS | _EMPTIES | _LEAVES | _SAME_KEYED
       | st.dictionaries(st.text(), _SAME_KEYED | _VALUES, max_size=3)
       | st.dictionaries(st.sampled_from(["points", "s_points"]), _LONG_MATRICES, min_size=1))
def test_json_text_is_json_dumps(obj):
    assert _json_text(obj) == json.dumps(obj, sort_keys=True, indent=1) + "\n"


@pytest.mark.parametrize("obj", [[0.5, 1.0], [[0.5]], 1.5, "x", None, {1: [0.5], 2: 3}])
def test_json_text_of_a_non_str_dict_or_a_non_dict_is_json_dumps(obj):
    assert _json_text(obj) == json.dumps(obj, sort_keys=True, indent=1) + "\n"


def test_json_text_refuses_what_json_refuses():
    for obj in ({"a": 1, 2: 3}, {"a": {"b": 1, 2: 3}}, {"a": [np.arange(2)]}):
        with pytest.raises(TypeError):
            json.dumps(obj, sort_keys=True, indent=1)
        with pytest.raises(TypeError):
            _json_text(obj)


def _confidence_set(points, t_n, crit) -> ConfidenceSet:
    return ConfidenceSet(
        config=TestConfig(),
        assumption=WA1,
        theta_axis=np.linspace(0.0, 1.0, 5),
        s_points=(S_POINT,),
        points=points,
        t_n=t_n,
        crit=crit,
        n_tested=25,
    )


def test_confidence_set_json_writes_infinity_and_nan_as_json_does():
    # Nothing guarantees a finite crit: an infinite step-two term in enough
    # draws makes it +inf, and T_n <= +inf is retained.
    cs = _confidence_set(
        np.array([[0.25, 0.5, 0.9, 1.0], [0.5, 0.75, 0.9, 1.0]]),
        np.array([math.nan, 0.3]),
        np.array([math.inf, 1.2]),
    )
    cfg = StudyConfig(counts=TABLE_DATASETS["eua_sx"], s_region=SRegion.singleton(0.9, 1.0))
    # Only the confidence set's maker is called, so no identified set is needed.
    text = dict(_analysis_files(cfg, run_analysis(cfg), None, cs))["confidence_set.json"]()
    assert text == json.dumps(cs.to_dict(), sort_keys=True, indent=1) + "\n"
    assert '"crit": [\n  Infinity,\n  1.2\n ]' in text
    assert '"t_n": [\n  NaN,\n  0.3\n ]' in text


@settings(max_examples=200, deadline=None)
@given(
    data=st.data(),
    n=st.integers(0, 40) | st.integers(_DISTINCT_MIN, _DISTINCT_MIN + 40),
    elements=st.sampled_from([_FLOATS, _POOL]),
)
def test_csv_rows_match_the_row_oracle(data, n, elements):
    points, t_n, crit = (
        data.draw(arrays(np.float64, shape, elements=elements)) for shape in ((n, 4), n, n)
    )
    cs = _confidence_set(points, t_n, crit)
    assert cs.to_csv_rows() == oracle_csv_rows(cs)


@settings(max_examples=100, deadline=None)
@given(
    data=st.data(),
    n=st.integers(0, 40) | st.integers(_DISTINCT_MIN // 4, _DISTINCT_MIN),
    elements=st.sampled_from([_FLOATS, _POOL]),
)
def test_confidence_set_json_from_the_arrays_is_json_dumps(data, n, elements):
    # The writer spells the points from their array (each distinct value
    # once from _DISTINCT_MIN values on) and the one theta axis once.
    points, t_n, crit = (
        data.draw(arrays(np.float64, shape, elements=elements)) for shape in ((n, 4), n, n)
    )
    cs = _confidence_set(points, t_n, crit)
    assert _confidence_set_json(cs) == json.dumps(cs.to_dict(), sort_keys=True, indent=1) + "\n"


_IDENTIFIED = sharp_union(
    estimate_joint(TABLE_DATASETS["eua_sx"]), SRegion.rectangle(0.8, 0.9, 0.98, 1.0, s1_points=3), WA1
)


def _assert_scatter_matches_the_oracle(scatter, marks):
    kwargs = {"scatter": scatter, "title": "t"}
    if marks:
        kwargs.update(apparent=(0.85, 0.98), apparent_box=(0.77, 0.91, 0.96, 0.99),
                      comparator_box=(0.6, 0.9, 0.95, 1.0))
    got = identified_set_figure(_IDENTIFIED.segments, **kwargs)
    assert got == oracle_identified_set_figure(scalar_set(_IDENTIFIED).segments, **kwargs)
    assert got.count("<circle") == len(scatter[:: max(1, len(scatter) // 3000)]) + marks


@settings(max_examples=150, deadline=None)
@example(scatter=np.array([[math.nan, 0.2], [0.0, math.nan], [math.inf, -0.0]]), marks=False)
@example(scatter=np.array([[0.8, 0.0], [0.9, -0.0], [0.8, 5e-324], [0.9, 0.0], [-math.nan, math.nan]] * 60), marks=True)
@given(
    scatter=arrays(np.float64, st.tuples(st.integers(0, 60), st.just(2)), elements=_FLOATS)
    | arrays(np.float64, st.tuples(st.integers(0, _DISTINCT_MIN + 40), st.just(2)),
             elements=_POOL | st.sampled_from([0.8, 0.85, 1.0])),
    marks=st.booleans(),
)
def test_scatter_figure_matches_the_point_oracle(scatter, marks):
    _assert_scatter_matches_the_oracle(scatter, marks)


@pytest.mark.parametrize("n", [3000, 6001, 7001])
def test_thinned_scatter_figure_matches_the_point_oracle(n):
    # Above 3,000 points the figure draws every (n // 3000)-th one.
    rng = np.random.default_rng(n)
    scatter = rng.uniform(0.5, 1.0, size=(n, 2))
    scatter[rng.integers(0, n, 40), rng.integers(0, 2, 40)] = rng.choice(_EDGE_FLOATS, 40)
    _assert_scatter_matches_the_oracle(scatter, marks=True)


# Segments as the writers read them (reference point and endpoints).  The
# CSV rows take any floats; a figure's endpoints lie in [0, 1], as every
# segment's do, since a plot window of one point's width has no scale.
# The oracles read them one by one, the library as columns.
def _segments(coordinate):
    pair = st.tuples(*[coordinate | st.builds(np.float64, coordinate)] * 2)
    return st.lists(
        st.builds(
            lambda s1, s0, lo, hi: SimpleNamespace(s=SimpleNamespace(s1=s1, s0=s0), lo=lo, hi=hi),
            _FLOATS, _FLOATS, pair, pair,
        ),
        min_size=1, max_size=30,
    )


_UNIT = st.floats(0.0, 1.0) | st.sampled_from([0.0, -0.0, 1.0, 5e-324, 0.1, 1.0 - 2**-53])


def _ends(segments) -> np.ndarray:
    """The segments' endpoints as ``IdentifiedSet.segments`` holds them, (k, 2, 2)."""
    return np.array([(g.lo, g.hi) for g in segments], dtype=float)


def _unchecked_set(segments) -> IdentifiedSet:
    """The segments as a set's columns without the set's checks, since the CSV rows take any floats."""
    identified = object.__new__(IdentifiedSet)
    zeros = np.zeros(len(segments))
    columns = (WA1, tuple(g.s for g in segments), _ends(segments), zeros, zeros)
    for name, value in zip(("assumption", "s_points", "segments", "slope", "intercept"), columns):
        object.__setattr__(identified, name, value)
    return identified


@settings(max_examples=200, deadline=None)
@example(segments=list(scalar_set(_IDENTIFIED).segments))
@given(segments=_segments(_FLOATS))
def test_identified_csv_rows_match_the_segment_oracle(segments):
    oracle = oracle_identified_csv_rows(SimpleNamespace(segments=segments))
    assert _unchecked_set(segments).to_csv_rows() == oracle


@settings(max_examples=200, deadline=None)
@example(segments=list(scalar_set(_IDENTIFIED).segments), marks=True)
@example(segments=[SimpleNamespace(s=S_POINT, lo=(0.0, 0.2), hi=(0.0, -0.0))], marks=False)
@given(segments=_segments(_UNIT), marks=st.booleans())
def test_segment_figure_matches_the_segment_oracle(segments, marks):
    kwargs = {"title": "t"}
    if marks:
        kwargs.update(apparent=(0.85, 0.98), apparent_box=(0.77, 0.91, 0.96, 0.99),
                      comparator_box=(0.6, 0.9, 0.95, 1.0))
    got = identified_set_figure(_ends(segments), **kwargs)
    assert got == oracle_identified_set_figure(segments, **kwargs)
    assert got.count("<line") == len(segments)
