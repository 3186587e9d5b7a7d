from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chipfiring import (
    Digraph,
    InvariantViolationError,
    SingularMatrixError,
    det_adj,
    determinant,
    determinant_cofactor,
    full_laplacian,
    inverse,
    is_integral,
    laplacian_kernel,
    minimum_strong_script,
    rank_and_kernel,
    rational_to_str,
    reduced_laplacian,
    solve_left,
    strong_script_from_inverse,
    times_adj,
)
from chipfiring.linalg import freeze_matrix, row_times_matrix

F = Fraction


def test_determinant_reference_values(g1, g2, g3):
    assert determinant(reduced_laplacian(g1)) == 2
    assert determinant(reduced_laplacian(g2)) == 18
    assert determinant(reduced_laplacian(g3)) == 2


def test_inverse_g2(g2):
    expected = (
        (F(1, 3), F(2, 3), F(1, 3), F(1, 3)),
        (F(2, 9), F(10, 9), F(5, 9), F(7, 18)),
        (F(1, 9), F(5, 9), F(7, 9), F(4, 9)),
        (F(0), F(0), F(0), F(1, 2)),
    )
    lap = reduced_laplacian(g2)
    inv = inverse(lap)
    assert inv == expected
    # exact product check
    identity = tuple(tuple(F(int(i == j)) for j in range(4)) for i in range(4))
    product = tuple(row_times_matrix(row, inv) for row in lap)
    assert product == identity


def test_inverse_small_cases(g1, g3):
    assert inverse(reduced_laplacian(g1)) == ((F(1, 2),),)
    assert inverse(reduced_laplacian(g3)) == ((F(3), F(1)), (F(5, 2), F(1)))


def test_inverse_singular_raises():
    with pytest.raises(SingularMatrixError):
        inverse([[1, 2], [2, 4]])


def _check_kernel(m):
    """adj @ m == m @ adj == det * I, with det from the cofactor oracle."""
    det, adj = det_adj(freeze_matrix(m))
    assert det == determinant_cofactor(m)
    if det == 0:
        assert adj is None
        return
    n = len(m)
    scaled_identity = [tuple(det * (i == j) for j in range(n)) for i in range(n)]
    adj_rows = list(zip(*adj))
    assert [row_times_matrix(row, m) for row in adj_rows] == scaled_identity
    assert [times_adj(row, adj) for row in m] == scaled_identity


def test_kernel_reference_values(g2):
    # a zero first pivot needs a row swap, which flips the sign
    assert det_adj(((0, 1), (1, 0))) == (-1, ((0, -1), (-1, 0)))
    assert det_adj(((1, 2), (3, 4))) == (-2, ((4, -3), (-2, 1)))
    assert det_adj(()) == (1, ())
    for m in [((0, 1), (1, 0)), ((1, 2), (3, 4)), ((0, 2, 1), (3, 0, 1), (1, 1, 0)), reduced_laplacian(g2)]:
        _check_kernel(m)


def test_kernel_singular_and_non_square():
    for m in [[[1, 2], [2, 4]], [[0, 0], [0, 0]], [[0, 1, 2], [0, 3, 4], [0, 5, 6]]]:
        assert determinant(m) == 0
        _check_kernel(m)
        with pytest.raises(SingularMatrixError):
            inverse(m)
        with pytest.raises(SingularMatrixError):
            solve_left([1] * len(m), m)
    with pytest.raises(ValueError):
        determinant([[1, 2, 3], [4, 5, 6]])


def test_laplacian_kernel_rejects_a_non_positive_determinant():
    # built without validation: vertices 1 and 2 only fire into each other
    g = Digraph(n=2, arcs=((1, 2, 1), (2, 1, 1)))
    with pytest.raises(InvariantViolationError):
        laplacian_kernel(g)


def test_caches_are_bounded():
    for fn in (det_adj, minimum_strong_script, strong_script_from_inverse):
        assert fn.cache_info().maxsize is not None


def test_solve_left_reference_values(g2, g3):
    assert solve_left((3, 0, 0, 0), reduced_laplacian(g2)) == (1, 2, 1, 1)
    assert solve_left((0, 0, 0, 0), reduced_laplacian(g2)) == (0, 0, 0, 0)
    assert solve_left((-1, 0), reduced_laplacian(g3)) == (-3, -1)


def test_is_integral():
    assert is_integral((-3, -1))
    assert is_integral(())
    assert not is_integral((F(-5, 2), F(-1)))
    assert is_integral((0, 0))


def test_rank_and_kernel(g1, g2):
    assert rank_and_kernel(full_laplacian(g1)) == (1, [(1, 1)])
    assert rank_and_kernel(full_laplacian(g2)) == (4, [(1, 1, 1, 1, 1)])
    rank, kernel = rank_and_kernel(reduced_laplacian(g2))
    assert rank == 4 and kernel == []


int_entries = st.integers(min_value=-30, max_value=30)


@st.composite
def square_matrices(draw, max_n=5, entries=int_entries):
    n = draw(st.integers(min_value=1, max_value=max_n))
    return tuple(tuple(draw(entries) for _ in range(n)) for _ in range(n))


@given(square_matrices())
@settings(max_examples=150, deadline=None)
def test_determinant_matches_cofactor_oracle(m):
    assert determinant(m) == determinant_cofactor(m)


@given(square_matrices(max_n=6))
@settings(max_examples=60, deadline=None)
def test_determinant_matches_cofactor_oracle_6x6(m):
    assert determinant(m) == determinant_cofactor(m)


# small entries make zero pivots (row swaps) and singular matrices common
@given(st.one_of(square_matrices(), square_matrices(max_n=6, entries=st.integers(-2, 2))))
@settings(max_examples=200, deadline=None)
def test_kernel_identity_and_cofactor_oracle(m):
    _check_kernel(m)


@given(square_matrices(max_n=4), st.data())
@settings(max_examples=100, deadline=None)
def test_solve_left_roundtrip(m, data):
    if determinant(m) == 0:
        return
    v = tuple(data.draw(int_entries) for _ in range(len(m)))
    image = row_times_matrix(v, m)
    assert solve_left(image, m) == v


def test_solve_left_of_script_image_is_integral(g2):
    lap = reduced_laplacian(g2)
    for script in [(1, 2, 1, 1), (0, 0, 0, 1), (-2, 5, 0, 3)]:
        assert is_integral(solve_left(row_times_matrix(script, lap), lap))


def test_rational_to_str():
    assert rational_to_str(F(7)) == "7"
    assert rational_to_str(F(7, 18)) == "7/18"
    assert rational_to_str(F(-5, 2)) == "-5/2"
    assert rational_to_str(0) == "0"
