"""Wire-format round trips and rejection of malformed documents."""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qucorr.closed_form import TwoParamState
from qucorr.family import build_state, twirl
from qucorr.operators import (
    DensityMatrix,
    DimensionMismatchError,
    MatrixValidationError,
    NonFiniteError,
    NonUnitTraceError,
    random_density_matrix,
)
from qucorr.statefile import StateFormatError, dumps_density, loads_density

FIXTURES = sorted((Path(__file__).parent / "fixtures").glob("*.json"))


def reference_dumps(rho):
    """The writer formatted one number at a time, the oracle for dumps_density's bytes."""
    def fmt(x):
        return format(float(x), ".17g")

    rows = []
    for row in rho.matrix:
        cells = ", ".join(f"[{fmt(v.real)}, {fmt(v.imag)}]" for v in row)
        rows.append(f"    [{cells}]")
    body = ",\n".join(rows)
    return ('{\n  "dims": [2, %d],\n  "matrix": [\n%s\n  ]\n}\n'
            % (rho.dim_b, body))


class TestRoundTrip:

    def test_exact_for_random_states(self):
        rng = np.random.default_rng(0)
        for d in (3, 4, 5):
            rho = random_density_matrix(2, d, rng)
            back = loads_density(dumps_density(rho))
            assert back.dim_b == d
            assert np.array_equal(back.matrix, rho.matrix)

    def test_exact_for_family_states(self):
        rho = build_state(TwoParamState(3, 0.1, 0.2))
        back = loads_density(dumps_density(rho))
        assert np.array_equal(back.matrix, rho.matrix)

    def test_serialization_is_deterministic(self):
        rng = np.random.default_rng(1)
        rho = random_density_matrix(2, 3, rng)
        assert dumps_density(rho) == dumps_density(rho)


class TestWriterBytes:

    @pytest.mark.parametrize("d", [2, 3, 5, 8, 16])
    def test_random_states(self, d):
        rho = random_density_matrix(2, d, np.random.default_rng(d))
        assert dumps_density(rho) == reference_dumps(rho)

    @pytest.mark.parametrize("d", [3, 5, 8, 16])
    def test_family_and_twirled_states(self, d):
        rng = np.random.default_rng(100 + d)
        for rho in (build_state(TwoParamState(d, 0.3 / (2 * (d - 2)), 0.35)),
                    twirl(random_density_matrix(2, d, rng)).output):
            assert dumps_density(rho) == reference_dumps(rho)

    @pytest.mark.parametrize("d", [2, 5])
    def test_extreme_numbers(self, d):
        # Not states: the writer formats whatever matrix it is given.
        n = 2 * d
        values = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-310, 1e300, -1e300, 0.1])
        rng = np.random.default_rng(d)
        m = rng.choice(values, (n, n)) + 1j * rng.choice(values, (n, n))
        m[0, 0], m[0, 1] = complex(-0.0, -0.0), complex(0.1, 5e-324)
        rho = DensityMatrix(d, m)
        assert dumps_density(rho) == reference_dumps(rho)

    @pytest.mark.parametrize("path", FIXTURES, ids=lambda p: p.stem)
    def test_fixture_reproduces_its_bytes(self, path):
        text = path.read_text(encoding="utf-8")
        assert dumps_density(loads_density(text)) == text


class TestDocumentShape:

    def test_document_is_json_with_expected_keys(self):
        rho = build_state(TwoParamState(3, 0.0, 1.0))
        doc = json.loads(dumps_density(rho))
        assert set(doc) == {"dims", "matrix"}
        assert doc["dims"] == [2, 3]
        assert len(doc["matrix"]) == 6
        assert all(len(row) == 6 for row in doc["matrix"])
        assert all(len(cell) == 2 for row in doc["matrix"] for cell in row)

    def test_writer_emits_full_double_precision(self):
        rho = build_state(TwoParamState(3, 1 / 6, 1 / 6))
        text = dumps_density(rho)
        # 1/6 is not exactly representable; 17 significant digits round-trip it
        assert "0.16666666666666666" in text
        assert json.loads(text)["matrix"][2][2][0] == 1 / 6


class TestRejections:

    def test_not_json(self):
        with pytest.raises(StateFormatError):
            loads_density("this is not json")

    def test_missing_key(self):
        with pytest.raises(StateFormatError):
            loads_density('{"dims": [2, 3]}')

    def test_extra_key(self):
        with pytest.raises(StateFormatError):
            loads_density('{"dims": [2, 3], "matrix": [], "note": 1}')

    def test_bad_dims(self):
        with pytest.raises(StateFormatError):
            loads_density('{"dims": [3, 3], "matrix": []}')
        with pytest.raises(StateFormatError):
            loads_density('{"dims": [2], "matrix": []}')
        with pytest.raises(StateFormatError):
            loads_density('{"dims": [2, 1], "matrix": []}')

    def test_first_factor_other_than_a_qubit(self):
        # Well formed, with a valid 9 x 9 state, but not 2 x d.
        doc = {"dims": [3, 3],
               "matrix": [[[1 / 9 if i == j else 0, 0] for j in range(9)] for i in range(9)]}
        with pytest.raises(DimensionMismatchError, match="2 x d"):
            loads_density(json.dumps(doc))

    def test_wrong_row_count(self):
        with pytest.raises(StateFormatError):
            loads_density('{"dims": [2, 3], "matrix": [[[1, 0]]]}')

    def test_short_row(self):
        doc = {"dims": [2, 2],
               "matrix": [[[0.25 if i == j else 0.0, 0.0] for j in range(4)]
                          for i in range(4)]}
        doc["matrix"][1] = doc["matrix"][1][:1]
        with pytest.raises(StateFormatError, match="^row 1 must have 4 entries$"):
            loads_density(json.dumps(doc))

    def test_bad_cell(self):
        doc = {"dims": [2, 2],
               "matrix": [[[0.25, 0]] * 4 for _ in range(4)]}
        doc["matrix"][0][0] = ["x", 0]
        with pytest.raises(StateFormatError):
            loads_density(json.dumps(doc))

    @pytest.mark.parametrize("flag", [True, False])
    def test_boolean_cell(self, flag):
        doc = {"dims": [2, 2],
               "matrix": [[[0.25 if i == j else 0.0, 0.0] for j in range(4)]
                          for i in range(4)]}
        doc["matrix"][0][1] = [flag, 0]
        with pytest.raises(StateFormatError):
            loads_density(json.dumps(doc))

    def test_boolean_dimension(self):
        with pytest.raises(StateFormatError):
            loads_density('{"dims": [2, true], "matrix": []}')

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_token(self, token):
        text = dumps_density(build_state(TwoParamState(3, 0.1, 0.2)))
        text = text.replace("[0, 0]", f"[{token}, 0]", 1)
        with pytest.raises(StateFormatError, match=token):
            loads_density(text)

    def test_overflowing_number_is_not_finite(self):
        text = dumps_density(build_state(TwoParamState(3, 0.1, 0.2)))
        text = text.replace("[0, 0]", "[1e400, 0]", 1)
        with pytest.raises(NonFiniteError):
            loads_density(text)

    def test_integer_beyond_double_range(self):
        text = dumps_density(build_state(TwoParamState(3, 0.1, 0.2)))
        text = text.replace("[0, 0]", f"[{10 ** 400}, 0]", 1)
        with pytest.raises(StateFormatError, match="double"):
            loads_density(text)

    @pytest.mark.parametrize("cell, i, j, message", [
        (["x", 0], 1, 2, "must be a [re, im] pair"),
        ([0, True], 3, 0, "must be a [re, im] pair"),
        ([0, 0, 0], 2, 5, "must be a [re, im] pair"),
        ([10 ** 400, 0], 4, 1, "does not fit a double"),
    ])
    def test_error_names_the_entry(self, cell, i, j, message):
        doc = json.loads(dumps_density(build_state(TwoParamState(3, 0.1, 0.2))))
        doc["matrix"][i][j] = cell
        with pytest.raises(StateFormatError) as info:
            loads_density(json.dumps(doc))
        assert str(info.value) == f"entry ({i}, {j}) {message}"

    # Two faults on the member above: the reader names the one met first in
    # document order, whatever kind of fault comes later.  A cell of None is deleted.
    @pytest.mark.parametrize("cells, message", [
        ({(0, 3): [10 ** 400, 0], (1, 2): ["x", 0]}, "entry (0, 3) does not fit a double"),
        ({(0, 1): [0, True], (2, 5): None}, "entry (0, 1) must be a [re, im] pair"),
    ], ids=["overflow-before-bad-type", "boolean-before-short-row"])
    def test_first_fault_in_document_order_is_named(self, cells, message):
        doc = json.loads(dumps_density(build_state(TwoParamState(3, 0.1, 0.2))))
        for (i, j), cell in cells.items():
            if cell is None:
                del doc["matrix"][i][j]
            else:
                doc["matrix"][i][j] = cell
        with pytest.raises(StateFormatError) as info:
            loads_density(json.dumps(doc))
        assert str(info.value) == message

    def test_deeply_nested_document(self):
        with pytest.raises(StateFormatError):
            loads_density("[" * 100_000)

    def test_matrix_invariants_still_enforced(self):
        doc = {"dims": [2, 2],
               "matrix": [[[1.0 if i == j else 0.0, 0.0] for j in range(4)]
                          for i in range(4)]}
        with pytest.raises(NonUnitTraceError):
            loads_density(json.dumps(doc))


# Any JSON value: scalars (NaN and infinities included) nested in lists and objects.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=5) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=30)
SEEDS = st.integers(0, 2 ** 32 - 1)


@st.composite
def shaped_documents(draw):
    """Documents with the right keys and a 2d x 2d matrix of arbitrary numbers;
    the dims and one cell may be any JSON value instead."""
    d = draw(st.integers(2, 3))
    n = 2 * d
    cell = st.lists(st.integers() | st.floats(), min_size=2, max_size=2)
    matrix = draw(st.lists(st.lists(cell, min_size=n, max_size=n), min_size=n, max_size=n))
    i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    matrix[i][j] = draw(st.just(matrix[i][j]) | JSON_VALUES)
    dims = draw(st.just([2, d]) | JSON_VALUES)
    return json.dumps({"dims": dims, "matrix": matrix})


@st.composite
def mutated_documents(draw):
    """A valid state document with one span replaced by a few JSON-ish characters."""
    rng = np.random.default_rng(draw(SEEDS))
    text = dumps_density(random_density_matrix(2, draw(st.integers(2, 4)), rng))
    start = draw(st.integers(0, len(text)))
    stop = draw(st.integers(start, min(len(text), start + 8)))
    patch = draw(st.text(alphabet='0123456789.-+eE[]{},:" tfnrueals', max_size=4))
    return text[:start] + patch + text[stop:]


@st.composite
def zero_patterns(draw):
    """A 2d x 4d array of real and imaginary parts, d in 2..16, each part +0.0, -0.0 or a
    finite double from random bits, with drawn odds, so that the writer meets documents
    of mostly +0.0 parts and of mostly other parts."""
    d = draw(st.integers(2, 16))
    odds = np.array(draw(st.lists(st.integers(0, 4), min_size=3, max_size=3)
                         .filter(lambda w: sum(w) > 0)), dtype=float)
    rng = np.random.default_rng(draw(SEEDS))
    shape = (2 * d, 4 * d)
    doubles = np.frombuffer(rng.bytes(8 * shape[0] * shape[1]), np.float64).reshape(shape)
    doubles = np.where(np.isfinite(doubles), doubles, rng.standard_normal(shape))
    kind = rng.choice(3, shape, p=odds / odds.sum())
    return np.select([kind == 0, kind == 1], [0.0, -0.0], doubles)


def _pinned(d, fill, *parts):
    """A 2d x 4d parts array of ``fill`` (a number or "random"), then each (index, value)
    of ``parts`` set, value a number or "random"."""
    rng = np.random.default_rng(d)
    out = np.empty((2 * d, 4 * d))
    for index, value in ((np.s_[:], fill),) + parts:
        out[index] = rng.standard_normal(out[index].shape) if value == "random" else value
    return out


class TestProperties:

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(parts=zero_patterns())
    # All +0.0, at the smallest and the largest d.
    @example(parts=_pinned(2, 0.0))
    @example(parts=_pinned(16, 0.0))
    # Rows entirely +0.0 or -0.0, among mostly other numbers and among mostly +0.0
    # (there at exactly 3/4 +0.0 parts).
    @example(parts=_pinned(3, "random", (np.s_[0], 0.0), (np.s_[1], -0.0), (np.s_[-1], 0.0)))
    @example(parts=_pinned(4, 0.0, (np.s_[1], -0.0), (np.s_[-2], "random")))
    # +0.0 in the last cell of every row, so in the document's last cell too, next to
    # the row break that the writer splices, with and without a number before it.
    @example(parts=_pinned(4, "random", (np.s_[:, -2:], 0.0)))
    @example(parts=_pinned(4, 0.0, (np.s_[:, -3], "random"), (np.s_[:, 0], "random")))
    # A number on each side of a row break, +0.0 everywhere else.
    @example(parts=_pinned(4, 0.0, (np.s_[:, -1], "random"), (np.s_[:, 0], "random")))
    def test_writer_matches_the_reference_over_zero_patterns(self, parts):
        d = parts.shape[0] // 2
        rho = DensityMatrix(d, np.ascontiguousarray(parts).view(complex))
        assert dumps_density(rho) == reference_dumps(rho)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(d=st.integers(2, 8), seed=SEEDS)
    def test_round_trip_is_bit_exact(self, d, seed):
        rho = random_density_matrix(2, d, np.random.default_rng(seed))
        back = loads_density(dumps_density(rho))
        assert back.dim_b == d
        assert np.array_equal(back.matrix, rho.matrix)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(text=st.one_of(JSON_VALUES.map(json.dumps), st.text(max_size=20),
                          shaped_documents(), mutated_documents()))
    def test_bad_documents_raise_only_format_or_validation_errors(self, text):
        try:
            loads_density(text)
        except (StateFormatError, MatrixValidationError):
            pass
