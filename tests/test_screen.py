"""Every array a caller hands the library goes through one screen, and
every integer argument through its scalar sibling.

Each owner below receives a small valid input with one entry replaced
by something that is not an admissible number, or a ragged version of
it.  Each must raise ValidationError and emit no warning on the way.
Each integer argument receives values that are not integers, or are
out of its bounds: ValidationError, or SizeError above its limit.
"""

import copy
import json
import math
import os
import tempfile
import warnings

import numpy as np
import pytest

from latinhadamard import (DistributionSpec, Eigenbasis, OrthogonalDesign, PowerSimConfig,
                           ProbabilityVector, SignedLatinSquare, SizeError, ValidationError,
                           builtin_design_16, canonical_signed_square_8, cayley_dickson_table,
                           chi_square_critical, choices_from_bitstring, color,
                           construct_latin_square, design_to_eigenbasis,
                           eigenbasis_from_latin_hadamard, eigenbasis_from_sign_matrix,
                           normal_critical, num_free_choices, preset_probability, radon,
                           simulate_power, sylvester_hadamard)
from latinhadamard import cli, power
from latinhadamard.latin import SQUARE_MAX_W, LatinSquare, _integer

from product_oracle import multiply

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

# (owner, call, a valid input, whether the owner's entries are integers).
# The multiply rows screen coefficient vectors as the test product oracle
# does: flat, of the table's dimension, integers within +/-2**26.
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
    ("multiply_left", lambda x: multiply(_TABLE, x, _UNIT), _UNIT, True),
    ("multiply_right", lambda x: multiply(_TABLE, _UNIT, x), _UNIT, True),
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
    yield pytest.param(lambda x: multiply(_TABLE, x, _UNIT), [0.5, 0, 0, 0],
                       id="multiply-truncated-fraction")
    yield pytest.param(lambda x: multiply(_TABLE, x, [4, 0, 0, 0]), [2 ** 62, 0, 0, 0],
                       id="multiply-wrapping-product")


@pytest.mark.parametrize("call, value", _cases())
def test_screen_rejects_without_warnings(call, value):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError):
            call(value)


def _config(**fields):
    return PowerSimConfig(null=DistributionSpec("normal", (0, 1)),
                          alternative=DistributionSpec("normal", (0, 1)),
                          basis=eigenbasis_from_latin_hadamard(
                              canonical_signed_square_8(), ProbabilityVector.equiprobable(8)),
                          **{"n": 20, "reps": 10, **fields})


# (argument, call, lo, limit): every integer argument of the library and
# its bounds, the scalar sibling of OWNERS.  None is no limit.
INTEGERS = [
    ("construct_latin_square", construct_latin_square, 0, SQUARE_MAX_W),
    ("num_free_choices", num_free_choices, 0, SQUARE_MAX_W),
    ("sylvester_hadamard", sylvester_hadamard, 0, SQUARE_MAX_W),
    ("equiprobable", ProbabilityVector.equiprobable, 2, 2 ** SQUARE_MAX_W),
    ("radon", radon, 1, None),
    ("cayley_dickson_table", cayley_dickson_table, 0, 5),
    ("chi_square_critical", lambda df: chi_square_critical(df, 0.05), 1, None),
    ("PowerSimConfig-n", lambda n: _config(n=n), 1, power.MAX_N),
    ("PowerSimConfig-reps", lambda reps: _config(reps=reps), 1, power.MAX_REPS),
    ("PowerSimConfig-master_seed", lambda seed: _config(master_seed=seed), 0, 2 ** 64 - 1),
    ("simulate_power-threads", lambda threads: simulate_power(_config(), threads), 1, None),
]


def _integer_cases():
    for argument, call, lo, limit in INTEGERS:
        bad = {"bool": True, "float": 3.0, "string": "3", "none": None, "nan": math.nan,
               "below": lo - 1}
        for label, value in bad.items():
            yield pytest.param(call, value, ValidationError, id=f"{argument}-{label}")
        if limit is not None:
            yield pytest.param(call, limit + 1, SizeError, id=f"{argument}-above")


@pytest.mark.parametrize("call, value, error", _integer_cases())
def test_integer_screen_rejects_without_warnings(call, value, error):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error) as caught:
            call(value)
    assert (caught.type is SizeError) == (error is SizeError)


@pytest.mark.parametrize("call, lo", [pytest.param(call, lo, id=argument)
                                      for argument, call, lo, _ in INTEGERS])
def test_integer_screen_accepts_numpy_integers(call, lo):
    call(np.int64(lo))


# (argument, call, a value of the wrong type, a valid numpy or Python
# value): the other scalar arguments, each checked before the arithmetic
# or the lookup that would raise TypeError on it.
SCALARS = [
    ("normal_critical", normal_critical, None, np.float64(0.05)),
    ("chi_square_critical-alpha", lambda alpha: chi_square_critical(3, alpha), "0.05",
     np.float64(0.01)),
    ("PowerSimConfig-alpha", lambda alpha: _config(alpha=alpha), "0.05", np.float32(0.05)),
    ("quantile", DistributionSpec("normal", (0, 1)).quantile, "0.5", np.float64(0.5)),
    ("choices_from_bitstring", choices_from_bitstring, None, "01"),
    ("preset_probability", preset_probability, {}, "b"),
]


@pytest.mark.parametrize("call, bad", [pytest.param(call, bad, id=argument)
                                       for argument, call, bad, _ in SCALARS])
def test_scalar_of_the_wrong_type_is_a_validation_error(call, bad):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError):
            call(bad)


@pytest.mark.parametrize("call, good", [pytest.param(call, good, id=argument)
                                        for argument, call, _, good in SCALARS])
def test_scalar_screen_accepts_numpy_floats(call, good):
    call(good)


def test_integer_screen_returns_a_python_int():
    value = _integer(np.int64(3), "value", 0)
    assert type(value) is int and value == 3
    cfg = _config(n=np.int64(20), reps=np.uint64(10), master_seed=np.int32(7))
    assert [type(v) for v in (cfg.n, cfg.reps, cfg.master_seed)] == [int, int, int]


@pytest.mark.parametrize("cached, rejected", [
    (lambda: construct_latin_square(1), lambda: construct_latin_square(True)),
    (lambda: construct_latin_square(np.int64(1)), lambda: construct_latin_square(True)),
    (lambda: construct_latin_square(np.int64(3)), lambda: construct_latin_square(3.0)),
    (lambda: construct_latin_square(w=1), lambda: construct_latin_square(w=True)),
], ids=["int-bool", "int64-bool", "int64-float", "keyword-bool"])
def test_cached_square_is_not_returned_for_an_equal_non_integer(cached, rejected):
    # True == 1 == np.int64(1) with equal hashes: an untyped cache keys
    # (np.int64(1),) and (True,), or w=1 and w=True, alike, and would
    # return the cached square without screening the argument
    cached()
    with pytest.raises(ValidationError, match="^square exponent must be a non-negative integer"):
        rejected()
