"""JSON wire format for bipartite states.

A state document is

    {"dims": [2, d], "matrix": [[[re, im], ...], ...]}

with the matrix given row-major in the |i j> -> i*d + j basis and every
entry a two-element [real, imag] array of finite decimal numbers (JSON
booleans and the NaN/Infinity tokens are rejected).  Writers emit 17
significant digits so a round trip reproduces the doubles exactly: every
part that is +0.0 is the literal 0 of a cached document, and one ``%.17g``
template cut from it per document formats only the rest, which in a family
member are 2d + 2 of the 8d^2 parts.  The reader takes the matrix in
one pass and names the first malformed row or entry in document order.  This
module only converts between text and :class:`DensityMatrix`; file handling
belongs to the caller.
"""

from __future__ import annotations

import functools
import json

import numpy as np

from .operators import DensityMatrix, validate_density


class StateFormatError(ValueError):
    """The document is not a well-formed state file."""


def _reject_constant(token: str):
    raise StateFormatError(f"non-finite number {token} is not allowed")


def dumps_density(rho: DensityMatrix) -> str:
    """Serialize a state to the JSON document, one matrix row per line, with the bytes of
    ``format(x, ".17g")`` for every number: the literal 0 for each part that is +0.0 (bit
    pattern 0; -0.0 is not), and a ``%.17g`` slot for every other part."""
    zeros, offsets = _templates(rho.dim_b)
    parts = np.ascontiguousarray(rho.matrix, dtype=complex).view(np.float64).ravel()
    nonzero = parts.view(np.uint64) != 0
    cuts = offsets[nonzero].tolist()
    pieces = [zeros[a:b] for a, b in zip([0] + [c + 1 for c in cuts], cuts + [len(zeros)])]
    return "%.17g".join(pieces) % tuple(parts[nonzero].tolist())


@functools.lru_cache(maxsize=16)
def _templates(d: int) -> tuple[str, np.ndarray]:
    """The document of a 2 x d state with a literal 0 for every part, and the offsets of
    those 0s in it, in part order."""
    n = 2 * d
    head = '{\n  "dims": [2, %d],\n  "matrix": [\n' % d
    row = "    [" + ", ".join(["[0, 0]"] * n) + "]"
    zeros = head + ",\n".join([row] * n) + "\n  ]\n}\n"
    offsets = len(head) + np.flatnonzero(
        np.frombuffer(zeros[len(head):].encode("ascii"), np.uint8) == ord("0"))
    offsets.flags.writeable = False
    return zeros, offsets


def loads_density(text: str) -> DensityMatrix:
    """Parse and validate a state document, reading the matrix in one pass.

    Raises :class:`StateFormatError` for structural problems, naming the first
    malformed row or entry in document order, and the usual validation errors
    if the matrix is not a density operator.
    """
    try:
        doc = json.loads(text, parse_constant=_reject_constant)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise StateFormatError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or set(doc) != {"dims", "matrix"}:
        raise StateFormatError('document must have exactly the keys "dims" and "matrix"')
    dims = doc["dims"]
    # Exact type tests: bool subclasses int, but a JSON true/false is not a number.
    # Positive, so that the row count n is; validate_density decides the 2 x d split.
    if (not isinstance(dims, list) or len(dims) != 2
            or not all(type(x) is int and x > 0 for x in dims)):
        raise StateFormatError('"dims" must be a list of two positive integers')
    n = dims[0] * dims[1]
    rows = doc["matrix"]
    if not isinstance(rows, list) or len(rows) != n:
        raise StateFormatError(f'"matrix" must have {n} rows')
    values = []
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != n:
            raise StateFormatError(f"row {i} must have {n} entries")
        for j, cell in enumerate(row):
            # Exact type tests again, so that JSON booleans are rejected.
            if not (type(cell) is list and len(cell) == 2
                    and type(cell[0]) in (int, float) and type(cell[1]) in (int, float)):
                raise StateFormatError(f"entry ({i}, {j}) must be a [re, im] pair")
            try:
                values.append(complex(*cell))
            except OverflowError as exc:
                raise StateFormatError(f"entry ({i}, {j}) does not fit a double") from exc
    return validate_density(np.array(values).reshape(n, n), *dims)
