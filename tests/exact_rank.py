"""Exact rank of a rational matrix, by Gaussian elimination on Fractions."""

from fractions import Fraction


def exact_rank(m) -> int:
    """The rank of ``m``, rows of integers, Fractions or floats (each float
    taken as the binary fraction it stores), computed without rounding."""
    rows = [[Fraction(x) for x in row] for row in m]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(rank + 1, len(rows)):
            if rows[i][col]:
                factor = rows[i][col] / rows[rank][col]
                rows[i] = [x - factor * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank
