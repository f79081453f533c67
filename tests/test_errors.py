import pickle

import pytest

import htks.errors
from htks import TouchLabel
from htks.errors import EmptyClassRow, HtksError, ParseError


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


ERRORS = [cls for cls in _subclasses(HtksError) if cls.__module__ == htks.errors.__name__]
# The errors whose constructors take more than a message.
INSTANCES = {
    ParseError: ParseError("bad token", "poses.txt", 7),
    EmptyClassRow: EmptyClassRow(TouchLabel.HEAD),
}


@pytest.mark.parametrize("cls", ERRORS, ids=lambda cls: cls.__name__)
def test_errors_round_trip_through_pickle(cls):
    # Errors cross process boundaries intact: same type, message and attributes.
    error = INSTANCES.get(cls) or cls("something went wrong")
    copy = pickle.loads(pickle.dumps(error))
    assert type(copy) is cls
    assert str(copy) == str(error)
    assert copy.args == error.args
    assert vars(copy) == vars(error)  # ParseError.path and line_no, EmptyClassRow.label
