"""Every exception class the library defines survives a pickle round trip.

``verify --jobs`` runs trials in worker processes, so an exception raised
there reaches the parent only as a pickle. Rebuilt, it must keep its type,
its message and every public attribute.
"""

import importlib
import inspect
import pickle
import pkgutil

import pytest

import blockginv
from blockginv.cli import InputError, OutputError
from blockginv.generators import GenerationExhausted
from blockginv.ginverse import NotGroupInvertible, group_inverse
from blockginv.matrices import Matrix, ShapeMismatch, SingularMatrix, inverse
from blockginv.scalars import ScalarParseError, parse_scalar
from blockginv.theorems import HypothesisViolated, block_group_inverse
from conftest import mat


def _raised(cls, call):
    with pytest.raises(cls) as info:
        call()
    return info.value


def _samples():
    nil = mat([["0", "1"], ["0", "0"]])
    return [
        _raised(ScalarParseError, lambda: parse_scalar("1/0")),
        ShapeMismatch("mul", (1, 2), (3, 4)),
        _raised(ShapeMismatch,
                lambda: Matrix.identity(2) * Matrix.identity(3)),
        _raised(SingularMatrix, lambda: inverse(Matrix.zeros(2, 2))),
        _raised(NotGroupInvertible, lambda: group_inverse(nil)),
        # A rule's refusal and standing violation carry their reports.
        _raised(NotGroupInvertible, lambda: block_group_inverse(
            "thm2.1", mat([["1", "1"], ["0", "0"]]), nil)),
        _raised(HypothesisViolated, lambda: block_group_inverse(
            "thm2.1", nil, mat([["1", "0"], ["0", "0"]]))),
        HypothesisViolated("FEF^pi=0"),
        GenerationExhausted("no instance"),
        InputError("e: bad"),
        OutputError("too many digits"),
    ]


def _defined_exception_classes():
    names = [blockginv.__name__] + [
        f"{blockginv.__name__}.{info.name}"
        for info in pkgutil.iter_modules(blockginv.__path__)]
    return {cls for name in names
            for _, cls in inspect.getmembers(importlib.import_module(name),
                                             inspect.isclass)
            if issubclass(cls, BaseException) and cls.__module__ == name}


def _public(exc):
    return {key: value for key, value in vars(exc).items()
            if not key.startswith("_")}


def test_samples_cover_every_library_exception():
    assert {type(exc) for exc in _samples()} == _defined_exception_classes()


@pytest.mark.parametrize("exc", _samples(),
                         ids=lambda exc: type(exc).__name__)
def test_pickle_round_trip_keeps_type_message_and_attributes(exc):
    again = pickle.loads(pickle.dumps(exc))
    assert type(again) is type(exc)
    assert str(again) == str(exc)
    assert again.args == exc.args
    assert _public(again) == _public(exc)

