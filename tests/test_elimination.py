"""Property tests for the exact elimination kernel behind solve, rank,
kernel and determinant, over random integer and rational matrices."""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from tropform.lattice import (
    determinant,
    dot,
    rational_kernel,
    rational_rank,
    solve_exact,
)

SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None)

INTS = st.integers(-6, 6)
FRACTIONS = st.fractions(min_value=-6, max_value=6, max_denominator=4)


def _matrices(entries, max_rows=4, max_cols=5):
    return st.tuples(st.integers(1, max_rows), st.integers(1, max_cols)).flatmap(
        lambda shape: st.lists(st.lists(entries, min_size=shape[1], max_size=shape[1]),
                               min_size=shape[0], max_size=shape[0]))


def _square(entries, max_n=4):
    return st.integers(1, max_n).flatmap(
        lambda n: st.lists(st.lists(entries, min_size=n, max_size=n),
                           min_size=n, max_size=n))


def _systems(entries):
    return _matrices(entries).flatmap(
        lambda a: st.tuples(st.just(a),
                            st.lists(entries, min_size=len(a), max_size=len(a))))


MATRICES = st.one_of(_matrices(INTS), _matrices(FRACTIONS))
SQUARES = st.one_of(_square(INTS), _square(FRACTIONS))
SYSTEMS = st.one_of(_systems(INTS), _systems(FRACTIONS))


def _cofactor_det(m):
    if not m:
        return 1
    return sum((-1) ** j * m[0][j] * _cofactor_det([row[:j] + row[j + 1:] for row in m[1:]])
               for j in range(len(m)))


@SETTINGS
@given(SQUARES)
def test_determinant_matches_cofactor_expansion(a):
    assert determinant(a) == _cofactor_det(a)


@SETTINGS
@given(MATRICES)
def test_rank_nullity_and_kernel_vectors(a):
    n = len(a[0])
    kern = rational_kernel(a, n)
    assert rational_rank(a) + len(kern) == n
    for k in kern:
        assert all(dot(row, k) == 0 for row in a)
    assert rational_rank(kern) == len(kern)


@SETTINGS
@given(SYSTEMS)
def test_solve_exact_solves_or_reports_inconsistency(system):
    a, b = system
    x = solve_exact(a, b)
    augmented = [list(row) + [c] for row, c in zip(a, b)]
    if x is None:
        assert rational_rank(augmented) > rational_rank(a)
    else:
        assert all(isinstance(v, Fraction) for v in x)
        assert [dot(row, x) for row in a] == list(b)
        assert rational_rank(augmented) == rational_rank(a)
