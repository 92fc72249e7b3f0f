"""Wire-format round trips and rejection of malformed documents."""

import json

import numpy as np
import pytest

from qucorr.family import TwoParamState, build_state
from qucorr.operators import NonFiniteError, NonUnitTraceError, random_density_matrix
from qucorr.statefile import StateFormatError, dumps_density, loads_density


class TestRoundTrip:

    def test_exact_for_random_states(self):
        rng = np.random.default_rng(0)
        for d in (3, 4, 5):
            rho = random_density_matrix(2, d, rng)
            back = loads_density(dumps_density(rho))
            assert back.dims == (2, d)
            assert np.array_equal(back.matrix, rho.matrix)

    def test_exact_for_family_states(self):
        rho = build_state(TwoParamState(3, 0.1, 0.2))
        back = loads_density(dumps_density(rho))
        assert np.array_equal(back.matrix, rho.matrix)

    def test_serialization_is_deterministic(self):
        rng = np.random.default_rng(1)
        rho = random_density_matrix(2, 3, rng)
        assert dumps_density(rho) == dumps_density(rho)


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

    def test_wrong_row_count(self):
        with pytest.raises(StateFormatError):
            loads_density('{"dims": [2, 3], "matrix": [[[1, 0]]]}')

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

    def test_matrix_invariants_still_enforced(self):
        doc = {"dims": [2, 2],
               "matrix": [[[1.0 if i == j else 0.0, 0.0] for j in range(4)]
                          for i in range(4)]}
        with pytest.raises(NonUnitTraceError):
            loads_density(json.dumps(doc))
