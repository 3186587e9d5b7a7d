"""Exact linear algebra around one cached integer kernel.

Arithmetic uses Python's arbitrary-precision ints, and
``fractions.Fraction`` where a result is rational; no floating point
anywhere. Matrices are tuples of row tuples, vectors are flat tuples,
so everything is hashable and results can be memoized per matrix. Vectors
are row vectors throughout: products are taken as ``v @ m``.

The kernel :func:`det_adj` returns ``(det m, adj m)`` by fraction-free
Gauss-Jordan elimination, so ``v @ m^-1`` is the integer vector
``v @ adj m`` over ``det m``. Callers work with the scaled integers and
render ``fractions.Fraction`` only at the API edge (:func:`inverse`,
:func:`solve_left`).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from operator import mul
from typing import Iterable, Optional, Sequence

from .errors import SingularMatrixError

IntVector = tuple[int, ...]
IntMatrix = tuple[tuple[int, ...], ...]
RationalVector = tuple[Fraction, ...]
RationalMatrix = tuple[tuple[Fraction, ...], ...]


# ---------------------------------------------------------------------------
# vector helpers (containment order, weight, row-vector products)

def vec(entries: Iterable[int]) -> IntVector:
    return tuple(int(x) for x in entries)


def zeros(n: int) -> IntVector:
    return (0,) * n


def ones(n: int) -> IntVector:
    return (1,) * n


def vec_add(a: Sequence[int], b: Sequence[int]) -> IntVector:
    return tuple(x + y for x, y in zip(a, b, strict=True))


def vec_sub(a: Sequence[int], b: Sequence[int]) -> IntVector:
    return tuple(x - y for x, y in zip(a, b, strict=True))


def weight(a: Sequence[int]) -> int:
    """Sum of all entries."""
    return sum(a)


def dominates(a: Sequence[int], b: Sequence[int]) -> bool:
    """Containment order: every entry of ``a`` is >= the entry of ``b``."""
    return all(x >= y for x, y in zip(a, b, strict=True))


def support(a: Sequence[int]) -> frozenset[int]:
    """1-based indices of the non-zero entries."""
    return frozenset(i + 1 for i, x in enumerate(a) if x != 0)


def row_times_matrix(v: Sequence, m: Sequence[Sequence]) -> tuple:
    """Row vector times matrix, exact. Entries may be int or Fraction."""
    n = len(v)
    if n != len(m):
        raise ValueError(f"dimension mismatch: vector {n}, matrix {len(m)} rows")
    cols = len(m[0]) if m else 0
    return tuple(sum(v[i] * m[i][j] for i in range(n)) for j in range(cols))


def freeze_matrix(rows: Iterable[Sequence[int]]) -> IntMatrix:
    """Normalize any nested sequence of ints into the canonical tuple form."""
    out = tuple(tuple(map(int, row)) for row in rows)
    if out and any(len(row) != len(out[0]) for row in out):
        raise ValueError("ragged matrix")
    return out


# ---------------------------------------------------------------------------
# the (det, adj) kernel and its Fraction views

@lru_cache(maxsize=32)
def det_adj(m: IntMatrix) -> tuple[int, Optional[IntMatrix]]:
    """Exact ``(det m, adj m)`` of a square integer matrix in canonical form.

    Fraction-free (Bareiss) Gauss-Jordan elimination of ``[m | I]``: every
    division is exact, and at the end the left block is ``p * I`` and the
    right block ``p * m^-1``, where ``p`` is the last pivot and equals
    ``det m`` up to the sign of the row swaps. Pivots are the first non-zero
    entry by row order. A missing pivot means ``m`` is singular, reported as
    ``(0, None)``.

    The adjugate is returned by columns, so that ``v @ adj m`` is one dot
    product per column (:func:`times_adj`). Results are cached for the 32
    most recently used matrices.
    """
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("expected a square matrix")
    # row i holds the columns k.. of the left block, then the right block
    a = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(m)]
    sign, prev = 1, 1
    for k in range(n):
        p = next((r for r in range(k, n) if a[r][0]), None)
        if p is None:
            return 0, None
        if p != k:
            a[k], a[p] = a[p], a[k]
            sign = -sign
        pivot, *rest = a[k]
        for i in range(n):
            if i != k:
                f, *row = a[i]
                a[i] = [(pivot * x - f * y) // prev for x, y in zip(row, rest)]
        a[k] = rest
        prev = pivot
    return sign * prev, tuple(tuple(sign * row[j] for row in a) for j in range(n))


def times_adj(v: Sequence, adj_columns: IntMatrix) -> tuple:
    """``v @ adj`` for an adjugate stored by columns, as :func:`det_adj` returns it."""
    return tuple(sum(map(mul, v, col)) for col in adj_columns)


def determinant(m: Sequence[Sequence[int]]) -> int:
    """Exact determinant, read from the cached kernel; 0 for a singular matrix."""
    return det_adj(freeze_matrix(m))[0]


def _invertible_kernel(m: Sequence[Sequence[int]]) -> tuple[int, IntMatrix]:
    det, adj = det_adj(freeze_matrix(m))
    if adj is None:
        raise SingularMatrixError("matrix is singular")
    return det, adj


def inverse(m: Sequence[Sequence[int]]) -> RationalMatrix:
    """Exact inverse as a matrix of Fractions, ``adj m / det m``.

    Raises SingularMatrixError when no inverse exists.
    """
    det, adj = _invertible_kernel(m)
    return tuple(tuple(Fraction(x, det) for x in row) for row in zip(*adj))


def solve_left(v: Sequence, m: Sequence[Sequence[int]]) -> RationalVector:
    """Solve ``x @ m = v`` exactly for the row vector x."""
    det, adj = _invertible_kernel(m)
    return tuple(Fraction(x, det) for x in times_adj(v, adj))


def is_integral(v: Sequence) -> bool:
    """True iff every entry is an integer (denominator 1)."""
    return all(Fraction(x).denominator == 1 for x in v)


def rank_and_kernel(m: Sequence[Sequence[int]]) -> tuple[int, list[IntVector]]:
    """Exact rank and a basis of the right kernel.

    Kernel basis vectors are scaled to primitive integer vectors whose first
    non-zero entry is positive, so the output is deterministic.
    """
    rows = [list(map(Fraction, row)) for row in m]
    n_rows = len(rows)
    n_cols = len(rows[0]) if rows else 0
    pivot_cols: list[int] = []
    r = 0
    for c in range(n_cols):
        pivot_row = next((i for i in range(r, n_rows) if rows[i][c] != 0), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        pivot = rows[r][c]
        rows[r] = [x / pivot for x in rows[r]]
        for i in range(n_rows):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivot_cols.append(c)
        r += 1
        if r == n_rows:
            break
    rank = len(pivot_cols)
    free_cols = [c for c in range(n_cols) if c not in pivot_cols]
    basis = []
    for free in free_cols:
        v = [Fraction(0)] * n_cols
        v[free] = Fraction(1)
        for i, pc in enumerate(pivot_cols):
            v[pc] = -rows[i][free]
        basis.append(_primitive(v))
    return rank, basis


def _primitive(v: list[Fraction]) -> IntVector:
    from math import gcd, lcm

    denom = lcm(*(x.denominator for x in v)) if v else 1
    ints = [int(x * denom) for x in v]
    g = gcd(*ints) if any(ints) else 1
    ints = [x // g for x in ints]
    first = next((x for x in ints if x != 0), 1)
    if first < 0:
        ints = [-x for x in ints]
    return tuple(ints)


def rational_to_str(x) -> str:
    """Serialize an exact rational as "p/q", or "p" when q == 1."""
    f = Fraction(x)
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"
