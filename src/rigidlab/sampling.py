"""Deterministic randomness helpers.

Every randomized routine derives its generator from (seed, tag, index), so
independent sampling sites never share a stream and runs with the same
seed are reproducible byte for byte.
"""

from __future__ import annotations

import random
from fractions import Fraction

import numpy as np

from .errors import DegenerateConfigError
from .linalg import array, zeros
from .motions import PointConfiguration

DEFAULT_BOUND = 10 ** 6


def subrng(seed: int, tag: str, index: int = 0) -> random.Random:
    return random.Random(f"{seed}/{tag}/{index}")


def random_int_vector(n: int, rng: random.Random,
                      bound: int = DEFAULT_BOUND) -> list[int]:
    """n draws from [-bound, bound] as Python ints; every exact draw is
    made here, row by row."""
    return [rng.randint(-bound, bound) for _ in range(n)]


def random_exact_matrix(nrows: int, ncols: int, rng: random.Random,
                        bound: int = DEFAULT_BOUND) -> np.ndarray:
    """random_int_vector draws, one row at a time, as an object array of
    Python ints."""
    return array([random_int_vector(ncols, rng, bound) for _ in range(nrows)]
                 ).reshape(nrows, ncols)


def random_exact_vector(n: int, rng: random.Random,
                        bound: int = DEFAULT_BOUND) -> np.ndarray:
    return random_exact_matrix(1, n, rng, bound)[0]


def random_rational_matrix(nrows: int, ncols: int, rng: random.Random,
                           bound: int = DEFAULT_BOUND,
                           den_bound: int = 1000) -> np.ndarray:
    out = zeros((nrows, ncols))
    for i in range(nrows):
        for j in range(ncols):
            out[i, j] = Fraction(rng.randint(-bound, bound),
                                 rng.randint(1, den_bound))
    return out


def random_float_matrix(nrows: int, ncols: int, rng: random.Random,
                        scale: float = 1.0) -> np.ndarray:
    return np.array([[rng.uniform(-scale, scale) for _ in range(ncols)]
                     for _ in range(nrows)])


def random_float_vector(n: int, rng: random.Random, scale: float = 1.0) -> np.ndarray:
    return np.array([rng.uniform(-scale, scale) for _ in range(n)])


def random_config(dim: int, count: int, rng: random.Random,
                  exact: bool = True, bound: int = DEFAULT_BOUND):
    """Random integer-coordinate configuration; generic with overwhelming
    probability at the default bound."""
    if exact:
        return PointConfiguration(random_exact_matrix(dim, count, rng, bound))
    return PointConfiguration(random_float_matrix(dim, count, rng, float(bound)))


def random_general_config(dim: int, count: int, seed: int, tag: str = "config",
                          exact: bool = True, bound: int = DEFAULT_BOUND):
    """Random configuration rejected until it is in general position."""
    for attempt in range(50):
        p = random_config(dim, count, subrng(seed, tag, attempt),
                          exact=exact, bound=bound)
        if p.is_general_position():
            return p
    raise DegenerateConfigError("could not sample a general-position configuration")
