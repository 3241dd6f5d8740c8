"""Every array a caller hands the library goes through one screen.

Each owner below receives a small valid input with one entry replaced
by something that is not an admissible number, or a ragged version of
it.  Each must raise ValidationError and emit no warning on the way.
"""

import copy
import json
import math
import os
import tempfile
import warnings

import numpy as np
import pytest

from latinhadamard import (Eigenbasis, OrthogonalDesign, ProbabilityVector,
                           SignedLatinSquare, ValidationError, builtin_design_16,
                           cayley_dickson_table, color, construct_latin_square,
                           design_to_eigenbasis, eigenbasis_from_sign_matrix)
from latinhadamard import cli
from latinhadamard.latin import LatinSquare

_R = math.sqrt(0.5)
_TABLE = cayley_dickson_table(2)
_UNIT = [1, 0, 0, 0]


def _from_signed_entries(entries):
    """A signed matrix written to a file and read back as ``--matrix`` reads it."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "H.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"H": entries}, fh)
        return cli._load_matrix(path)

# (owner, call, a valid input, whether the owner's entries are integers)
OWNERS = [
    ("ProbabilityVector", ProbabilityVector, [0.5, 0.5], False),
    ("proportional_to", ProbabilityVector.proportional_to, [1.0, 1.0], False),
    ("Eigenbasis", lambda x: Eigenbasis(x, ProbabilityVector([0.5, 0.5])),
     [[_R, _R], [_R, -_R]], False),
    ("eigenbasis_from_sign_matrix",
     lambda x: eigenbasis_from_sign_matrix(x, ProbabilityVector([0.5, 0.5])),
     [[1, 1], [1, -1]], True),
    ("design_to_eigenbasis", lambda x: design_to_eigenbasis(builtin_design_16(), x),
     [1 / 16] * 9, False),
    ("multiply_left", lambda x: _TABLE.multiply(x, _UNIT), _UNIT, True),
    ("multiply_right", lambda x: _TABLE.multiply(_UNIT, x), _UNIT, True),
    ("from_signed_entries", _from_signed_entries, [[1, 2], [2, -1]], True),
    ("LatinSquare", LatinSquare, [[1, 2], [2, 1]], True),
    ("SignedLatinSquare", SignedLatinSquare, [[1, 2], [2, -1]], True),
    ("OrthogonalDesign", lambda x: OrthogonalDesign(color(construct_latin_square(1), ()), x),
     [1, 2], True),
]


def _with_last(valid, value):
    bad = copy.deepcopy(valid)
    row = bad
    while isinstance(row[-1], list):
        row = row[-1]
    row[-1] = value
    return bad


def _ragged(valid):
    if isinstance(valid[0], list):
        return [valid[0][:-1]] + valid[1:]
    return [valid[:1], valid[1:]]


def _last(valid):
    return _last(valid[-1]) if isinstance(valid[-1], list) else valid[-1]


def _cases():
    for owner, call, valid, integers in OWNERS:
        call(valid)  # so that each rejection below is the bad entry's
        bad = {"nan": _with_last(valid, math.nan), "inf": _with_last(valid, math.inf),
               "-inf": _with_last(valid, -math.inf),
               "string": _with_last(valid, str(_last(valid))), "ragged": _ragged(valid)}
        if integers:
            bad.update(fraction=_with_last(valid, 0.5), big=_with_last(valid, 2 ** 62))
        for label, value in bad.items():
            yield pytest.param(call, value, id=f"{owner}-{label}")
    yield pytest.param(lambda x: Eigenbasis(x, ProbabilityVector([0.5, 0.5])),
                       np.full((2, 2), np.nan), id="Eigenbasis-all-nan")
    yield pytest.param(lambda x: _TABLE.multiply(x, _UNIT), [0.5, 0, 0, 0],
                       id="multiply-truncated-fraction")
    yield pytest.param(lambda x: _TABLE.multiply(x, [4, 0, 0, 0]), [2 ** 62, 0, 0, 0],
                       id="multiply-wrapping-product")


@pytest.mark.parametrize("call, value", _cases())
def test_screen_rejects_without_warnings(call, value):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError):
            call(value)
