"""Seeded random matrices for the tests.

The library draws these inside ``gen_pair`` and exports no function that
returns them. Each helper runs the library's own private draw on a fresh
``random.Random(seed)``, so a seed gives the same matrix here as it
always has. They look the draw up on the ``generators`` module at call
time, so a test that patches ``generators.rank`` patches them too.
"""

import random

from blockginv import generators
from blockginv.matrices import Matrix


def gen_invertible(n: int, seed: int = 0) -> Matrix:
    """A seeded random invertible n x n matrix."""
    return generators._gen_invertible(random.Random(seed), n)


def gen_group_invertible(n: int, rank_: int, seed: int = 0) -> Matrix:
    """A seeded random n x n matrix of rank rank_ <= n and Drazin index
    <= 1."""
    return generators._gen_group_invertible(random.Random(seed), n, rank_)
