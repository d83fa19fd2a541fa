"""Shared fixtures."""

from fractions import Fraction

import pytest


@pytest.fixture
def fraction_counter(monkeypatch):
    """A function returning how many Fractions have been built since the
    fixture was set up, counted at Fraction.__new__ (arithmetic results
    included)."""
    built = [0]
    new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        built[0] += 1
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting_new)
    return lambda: built[0]


class BareissCall(tuple):
    """(rows, ncols, reduce, modulus) of one linalg._bareiss call, with the
    row width, ncols pivot-eligible columns and any after them, as width."""


@pytest.fixture
def bareiss_calls(monkeypatch):
    """The list of (rows, ncols, reduce, modulus) of every linalg._bareiss
    call made since the fixture was set up, each a BareissCall carrying
    its row width; reduce False marks forward elimination, modulus None
    exact elimination."""
    from rigidlab import linalg

    calls = []
    real = linalg._bareiss

    def recording(rows, ncols, reduce=True, modulus=None):
        call = BareissCall((len(rows), ncols, reduce, modulus))
        call.width = len(rows[0]) if rows else 0
        calls.append(call)
        return real(rows, ncols, reduce, modulus)

    monkeypatch.setattr(linalg, "_bareiss", recording)
    return calls
