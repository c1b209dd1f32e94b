"""The report writer against its recursive reference, and the instance reader.

The writer formats whole float arrays at once; every report it writes must
equal, byte for byte, the one the recursive reference in helpers.py writes.
The reader fills whole rows at once; its errors must still name the first
bad entry as the entry-by-entry reader did.
"""

import json
import sys
from collections import OrderedDict
from pathlib import Path

import numpy as np
import pytest

from cpinterp import cli, pipeline
from cpinterp.choi import KrausSet
from cpinterp.constraints import ProblemInstance
from cpinterp.reports import (
    InstanceFormatError,
    dumps_canonical,
    instance_from_jsonable,
    instance_to_jsonable,
    matrix_from_json,
    matrix_to_jsonable,
)
from helpers import (
    planted_diagonal_instance,
    planted_instance,
    random_complex,
    reference_dumps_canonical,
)

GOLDEN_REPORT = Path(__file__).parent.parent / "golden" / "qubit_pair.report.json"


# ---------------------------------------------------------------------------
# writer: reports of the test-suite recipes


def _feasible(rng):
    return planted_instance(rng, 3, 2, 4)[0]


def _feasible_complex(rng):
    return planted_instance(rng, 2, 3, 5, hermitian_data=False)[0]


def _diagonal(rng):
    return planted_diagonal_instance(rng, 4, 4, 6)[0]


def _infeasible(rng):
    inst = planted_instance(rng, 3, 3, 3)[0]
    eye = np.eye(3, dtype=complex)
    return ProblemInstance(3, 3, [*inst.pairs, (eye, -eye)])


def _inconsistent(rng):
    a = rng.standard_normal((2, 2))
    b = rng.standard_normal((2, 2))
    return ProblemInstance(2, 2, [(a, b), (a, b + 1.0)])


RECIPES = {
    "feasible": _feasible,
    "feasible-complex": _feasible_complex,
    "diagonal": _diagonal,
    "infeasible": _infeasible,
    "inconsistent": _inconsistent,
}


@pytest.mark.parametrize("command", ["solve", "certify"])
@pytest.mark.parametrize("recipe", sorted(RECIPES))
def test_report_bytes_match_reference_writer(recipe, command):
    rng = np.random.default_rng(17)
    run = cli.run_solve if command == "solve" else cli.run_certify
    statuses = set()
    for _ in range(3):
        inst = RECIPES[recipe](rng)
        report, _ = run(inst, cli.SolveOptions())
        statuses.add(report["status"])
        assert dumps_canonical(report) == reference_dumps_canonical(report)
        doc = instance_to_jsonable(inst)
        assert dumps_canonical(doc) == reference_dumps_canonical(doc)
    expected = {
        "feasible": "feasible",
        "feasible-complex": "feasible",
        "diagonal": "feasible",
        "infeasible": "certified-infeasible",
        "inconsistent": "certified-infeasible",
    }[recipe]
    assert expected in statuses


def test_golden_report_round_trip():
    text = GOLDEN_REPORT.read_text()
    assert dumps_canonical(json.loads(text)) + "\n" == text


def test_matrix_to_jsonable_matches_entrywise_lists():
    m = random_complex(np.random.default_rng(3), 5, 4)
    m[0, 0], m[1, 2], m[4, 3] = -0.0, complex(0.0, -0.0), complex(1e17, 5e-324)
    rows = matrix_to_jsonable(m)
    assert rows == [[[float(z.real), float(z.imag)] for z in row] for row in m]
    leaves = [v for row in rows for pair in row for v in pair]
    assert {type(v) for v in leaves} == {float}
    assert str(rows[0][0][0]) == "-0.0" and str(rows[1][2][1]) == "-0.0"


# ---------------------------------------------------------------------------
# writer: edge values and shapes

EDGE_FLOATS = [
    -0.0,
    0.0,
    1.0,
    -2.0,
    0.1,
    1e16,
    -1e16,
    1e17,
    5e-324,
    sys.float_info.max,
    -sys.float_info.max,
    2.0**53 + 2.0,
    123456789.125,
]

EDGE_DOCS = [
    *EDGE_FLOATS,
    0,
    -7,
    10**30,
    True,
    False,
    None,
    "plain",
    "naïve ∂ \"quoted\" \\ back\nline \U0001d11e",
    np.float64(0.1),
    np.float64(2.0),
    [],
    [[]],
    [[], []],
    {},
    {"a": {}},
    EDGE_FLOATS,
    [EDGE_FLOATS, EDGE_FLOATS[::-1]],
    [[0.0, -0.0], [1.0, 2.5], [1e16, 1e17]],
    [[[0.0, -0.0], [3.0, 0.5]], [[-1.0, 0.0], [0.0, 1e-300]]],
    ((1.0, 2.0), (3.0, 4.0)),
    ([1.0, 2.0], (3.0, -0.0)),
    (1.0, 2.0),
    [[1.0, 2.0], [3.0]],
    [[1.0, 2.0], 3.0],
    [[1, 2.0], [3.0, 4]],
    [1, 2.0, True, None, "s"],
    [np.float64(1.0), 2.0],
    [[np.float64(0.0), 1.0], [2.0, 3.0]],
    [[[1.0]], [[2.0], [3.0]]],
    [[[1.0, 2.0]], []],
    [{"a": [0.0, 1.0]}, [2.0], 3.0],
    {"a": [[1.0, 2.0]], "b": {"c": [], "d": [[0.0]]}, 3: "int key", None: 1},
    OrderedDict([("x", [[0.5, -0.0]]), ("y", (1.0,))]),
]


@pytest.mark.parametrize("doc", EDGE_DOCS, ids=range(len(EDGE_DOCS)))
def test_edge_values_match_reference_writer(doc):
    assert dumps_canonical(doc) == reference_dumps_canonical(doc)
    assert dumps_canonical(doc, 3) == reference_dumps_canonical(doc, 3)


def test_integral_floats_read_back_as_floats():
    text = dumps_canonical([[0.0, -0.0], [1e16, 3.0]])
    assert "0.0, -0.0" in text and "10000000000000000.0, 3.0" in text
    assert all(type(v) is float for row in json.loads(text) for v in row)


NESTINGS = [
    lambda x: x,
    lambda x: [x],
    lambda x: [1.0, x, 2.0],
    lambda x: [[0.0, 1.0], [x, 2.0]],
    lambda x: [[[0.0, 1.0]], [[2.0, x]]],
    lambda x: [1, x],
    lambda x: [[1.0], [2.0, x]],
    lambda x: {"a": {"b": [[0.5, x]]}},
    lambda x: [x, float("nan")],
    lambda x: np.float64(x),
]


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("nest", NESTINGS, ids=range(len(NESTINGS)))
def test_non_finite_values_raise_at_any_depth(value, nest):
    doc = nest(value)
    with pytest.raises(ValueError) as expected:
        reference_dumps_canonical(doc)
    with pytest.raises(ValueError, match="cannot serialize") as raised:
        dumps_canonical(doc)
    assert str(raised.value) == str(expected.value)


@pytest.mark.parametrize("value", [object(), 1j, np.int64(3), {1.0, 2.0}])
def test_unsupported_types_raise_type_error(value):
    for doc in (value, [1.0, value], {"a": [[value]]}):
        with pytest.raises(TypeError) as expected:
            reference_dumps_canonical(doc)
        with pytest.raises(TypeError) as raised:
            dumps_canonical(doc)
        assert str(raised.value) == str(expected.value)


# ---------------------------------------------------------------------------
# writer: float blocks as ndarrays and as nested lists

LARGEST_BELOW_1E17 = 99999999999999984.0  # the double just below 1e17

BLOCK_FLOATS = [
    -0.0,
    0.0,
    0.37,
    1e16,
    2.0**53,
    LARGEST_BELOW_1E17,
    -LARGEST_BELOW_1E17,
    1e17,
    -1e17,
    5e-324,
    -3.0,
    -123456789.0,
    1.5,
]


def _blocks():
    rng = np.random.default_rng(29)
    dense = rng.standard_normal((4, 3, 2))
    mixed = dense.copy()
    mixed[::2, 1] = 0.0  # exact zeros among dense values
    mixed[1, 2, 0] = -0.0
    edge = np.array(BLOCK_FLOATS)
    return {
        "edge": edge,
        "edge-2d": np.stack([edge, -edge[::-1]]),
        "dense": dense,
        "mixed": mixed,
        "zeros": np.zeros((2, 2, 2)),
        "integral": np.arange(-6.0, 6.0).reshape(3, 2, 2),
        "one": np.array([7.0]),
        "empty": np.zeros(0),
        "empty-rows": np.zeros((2, 0)),
        "no-kraus": np.zeros((0, 2, 3, 2)),
    }


BLOCKS = _blocks()


@pytest.mark.parametrize("as_list", [False, True], ids=["ndarray", "nested-list"])
@pytest.mark.parametrize("name", sorted(BLOCKS))
def test_float_blocks_match_reference_writer(name, as_list):
    block = BLOCKS[name].tolist() if as_list else BLOCKS[name]
    for doc in (block, {"a": {"choi": block, "b": [1.0, 0.0]}}, [{"kraus": block}, 2.0]):
        for indent in (0, 3):
            assert dumps_canonical(doc, indent) == reference_dumps_canonical(doc, indent)


def test_integral_tokens_of_a_block():
    text = dumps_canonical(np.array(BLOCK_FLOATS))
    assert text == (
        "[-0.0, 0.0, 0.37, 10000000000000000.0, 9007199254740992.0, "
        "99999999999999984.0, -99999999999999984.0, 1e+17, -1e+17, "
        "4.9406564584124654e-324, -3.0, -123456789.0, 1.5]"
    )
    assert json.loads(text) == BLOCK_FLOATS


@pytest.mark.parametrize(
    "block, tokens",
    [
        (np.arange(3), "[0, 1, 2]"),
        (np.array([True, False]), "[true, false]"),
        (np.array(2.5), "2.5"),
        (np.array([[1.0, 2.0]], dtype=np.float32), "[\n  [1.0, 2.0]\n]"),
    ],
    ids=["int", "bool", "0-d", "float32"],
)
def test_other_arrays_are_written_as_their_lists(block, tokens):
    assert dumps_canonical(block) == reference_dumps_canonical(block) == tokens


def test_a_complex_array_raises_type_error():
    with pytest.raises(TypeError, match="cannot serialize complex"):
        dumps_canonical({"a": np.ones(2, dtype=complex)})


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("position", [0, 7, -1])
@pytest.mark.parametrize("shape", [(12,), (3, 2, 2)])
def test_non_finite_values_in_an_ndarray_raise(value, position, shape):
    block = np.linspace(-1.0, 1.0, 12)
    block[position] = value
    block = block.reshape(shape)
    with pytest.raises(ValueError) as expected:
        reference_dumps_canonical(block)
    for doc in (block, {"a": [1.0], "b": block}):
        with pytest.raises(ValueError) as raised:
            dumps_canonical(doc)
        assert str(raised.value) == str(expected.value)


@pytest.mark.parametrize("first, second", [("nan", "inf"), ("-inf", "nan")])
def test_the_first_non_finite_value_names_the_error(first, second):
    block = np.array([[0.0, float(first)], [float(second), 1.0]])
    kind = "NaN" if first == "nan" else "infinity"
    with pytest.raises(ValueError, match=f"^cannot serialize {kind} in a report$"):
        dumps_canonical(block)


def test_a_feasible_report_with_no_kraus_element(monkeypatch):
    # an empty Kraus set stacks to a (0, n, k, 2) block, written as []
    monkeypatch.setattr(pipeline, "choi_to_kraus", lambda c, tol: KrausSet(c.n, c.k, []))
    inst = planted_instance(np.random.default_rng(31), 3, 2, 4)[0]
    report, code = cli.run_solve(inst, cli.SolveOptions())
    assert (report["status"], code, report["kraus_count"]) == ("feasible", 0, 0)
    assert report["kraus"].shape == (0, 3, 2, 2)
    text = dumps_canonical(report)
    assert text == reference_dumps_canonical(report)
    assert '"kraus": [],' in text


# ---------------------------------------------------------------------------
# reader


def _doc_with_b(b):
    good = [[[1.0, 0.0], [0.5, -0.5]], [[0.5, 0.5], [2.0, 0.0]]]
    return {"n": 2, "k": 2, "pairs": [{"A": good, "B": good}, {"A": good, "B": b}]}


BAD_ENTRIES = [
    ("x", "expected a number or a [re, im] pair, got 'x'"),
    (True, "expected a number or a [re, im] pair, got True"),
    ([1.0, 2.0, 3.0], "expected a number or a [re, im] pair, got [1.0, 2.0, 3.0]"),
    ([1.0, False], "expected a number or a [re, im] pair, got [1.0, False]"),
    (None, "expected a number or a [re, im] pair, got None"),
    (float("nan"), "non-finite entry nan"),
    ([0.5, float("-inf")], "non-finite entry [0.5, -inf]"),
]


@pytest.mark.parametrize("pairs_row", [True, False], ids=["pair-row", "real-row"])
@pytest.mark.parametrize("bad, message", BAD_ENTRIES, ids=range(len(BAD_ENTRIES)))
@pytest.mark.parametrize("r, c", [(1, 1), (2, 1), (2, 2)])
def test_bad_entry_is_named(bad, message, r, c, pairs_row):
    fill = [0.25, 0.0] if pairs_row else 0.25
    b = [[list(fill) if pairs_row else fill for _ in range(2)] for _ in range(2)]
    b[r - 1][c - 1] = bad
    with pytest.raises(InstanceFormatError) as raised:
        instance_from_jsonable(_doc_with_b(b))
    assert str(raised.value) == f"pairs[2].B[{r}][{c}]: {message}"


def test_first_bad_entry_in_order_is_named():
    # a non-finite entry in row 1 comes before a string and a short row later
    b = [[[0.0, 0.0], float("inf")], ["x", [1.0, 0.0]]]
    with pytest.raises(InstanceFormatError, match=r"^pairs\[2\]\.B\[1\]\[2\]: non-finite"):
        instance_from_jsonable(_doc_with_b(b))
    b = [[[0.0, 0.0], "x"], [[1.0, 0.0]]]
    with pytest.raises(InstanceFormatError, match=r"^pairs\[2\]\.B\[1\]\[2\]: expected"):
        instance_from_jsonable(_doc_with_b(b))
    with pytest.raises(InstanceFormatError, match=r"^pairs\[2\]\.B row 2: expected 2 entries"):
        instance_from_jsonable(_doc_with_b([[[0.0, 0.0], 1.0], [[1.0, 0.0]]]))


def test_int_past_float_range_is_input_error():
    b = [[1.0, 0.0], [0.0, 10**400]]
    with pytest.raises(InstanceFormatError, match=r"pairs\[2\]\.B\[2\]\[2\]: .*float range"):
        instance_from_jsonable(_doc_with_b(b))
    b = [[1.0, 0.0], [0.0, [1.0, -(10**400)]]]
    with pytest.raises(InstanceFormatError, match=r"pairs\[2\]\.B\[2\]\[2\]: .*float range"):
        instance_from_jsonable(_doc_with_b(b))


def _entrywise(rows):
    return np.array(
        [[complex(*e) if isinstance(e, list) else complex(e) for e in row] for row in rows]
    )


@pytest.mark.parametrize(
    "rows",
    [
        [[1, [0, 2]], [[3.5, -1], -0.0]],
        [[-0.0, 2], [3.5, 2**70]],
        [[[0.0, -0.0], [2**70, 1]], [[-1, 0.5], [1e-300, -2.0]]],
        [[[1, 2], 3], [4.5, [0.0, -0.0]]],
    ],
    ids=["mixed", "reals", "pairs", "mixed-reversed"],
)
def test_rows_parse_as_entry_by_entry(rows):
    out = matrix_from_json(rows, 2, 2, "M")
    assert out.dtype == complex
    assert out.tobytes() == _entrywise(rows).tobytes()  # signed zeros too
