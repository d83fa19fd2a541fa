"""Differential tests: the float backend against the exact one."""

import random
from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from rigidlab.admissibility import (classify_admissible,
                                    proportional_pair_space,
                                    single_vertex_space)
from rigidlab.errors import RigidLabError
from rigidlab.linalg import exact_matrix, to_float
from rigidlab.motions import PointConfiguration


def _seeded_cents(seed):
    """Five points of integers in [-9, 9], in hundredths, one row per point."""
    r = random.Random(seed)
    return [[100 * r.randint(-9, 9) for _ in range(3)] for _ in range(5)]


def _outcome(p, space_of):
    try:
        return classify_admissible(p, space_of(p)).kind
    except RigidLabError as exc:
        return type(exc).__name__


SPACES = {
    "example1": single_vertex_space,
    "example2:3/7": lambda p: proportional_pair_space(p, Fraction(3, 7)),
}


@settings(max_examples=100, deadline=None)
@given(cents=st.lists(st.lists(st.integers(-900, 999), min_size=3, max_size=3),
                      min_size=5, max_size=5),
       k=st.integers(-6, 6))
@example(cents=_seeded_cents(1), k=6)
@example(cents=_seeded_cents(4), k=6)
def test_float_classification_matches_exact(cents, k):
    """Coordinates are i + h/100 (i in [-9, 9], h in [0, 99]) times 10^k;
    the float run gets the nearest float64 configuration."""
    exact = PointConfiguration(exact_matrix(
        [[Fraction(c, 100) * Fraction(10) ** k for c in row] for row in cents]).T)
    floats = PointConfiguration(to_float(exact.points))
    for name, space_of in SPACES.items():
        assert _outcome(floats, space_of) == _outcome(exact, space_of), name
