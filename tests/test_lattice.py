import random

import pytest

from residuum.lattice import (
    det,
    primitive,
    rank,
    solve_exact,
    unimodular_complement,
    unimodular_completion,
    xgcd,
)

from oracles import det_permutation


def test_det_examples():
    assert det([(5, 0), (0, 3)]) == 15
    assert det([(1, 0), (0, 1)]) == 1
    assert det([(5, 0), (2, 2)]) == 10


def test_det_rejects_non_square():
    with pytest.raises(ValueError):
        det([(1, 2, 3), (4, 5, 6)])
    with pytest.raises(ValueError):
        det([])


def test_det_matches_permutation_expansion():
    rng = random.Random(7)
    for _ in range(120):
        n = rng.randint(1, 5)
        rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        assert det(rows) == det_permutation(rows)


def test_det_alternating_under_row_swap():
    rng = random.Random(11)
    for _ in range(200):
        n = rng.randint(2, 4)
        rows = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
        i, j = rng.sample(range(n), 2)
        swapped = list(rows)
        swapped[i], swapped[j] = rows[j], rows[i]
        assert det(swapped) == -det(rows)


def test_primitive_examples():
    assert primitive((2, 8)) == (1, 4)
    assert primitive((1, 1)) == (1, 1)
    assert primitive((-6, -9)) == (-2, -3)


def test_primitive_zero_vector():
    with pytest.raises(ValueError):
        primitive((0, 0, 0))


def test_primitive_scaling_invariance():
    rng = random.Random(13)
    for _ in range(300):
        n = rng.randint(1, 4)
        while True:
            v = tuple(rng.randint(-8, 8) for _ in range(n))
            if any(v):
                break
        k = rng.randint(1, 9)
        assert primitive(tuple(k * a for a in v)) == primitive(v)


def test_unimodular_complement_examples():
    assert unimodular_complement((1, 1)) == (0, 1)
    assert unimodular_complement((3, 5)) == (1, 2)
    assert unimodular_complement((1, 0)) == (0, 1)


def test_unimodular_complement_rejects_non_primitive():
    with pytest.raises(ValueError):
        unimodular_complement((2, 4))


def test_unimodular_complement_determinant():
    rng = random.Random(17)
    count = 0
    while count < 400:
        v = (rng.randint(-20, 20), rng.randint(-20, 20))
        if not any(v):
            continue
        rho = primitive(v)
        eta = unimodular_complement(rho)
        assert abs(det([rho, eta])) == 1
        assert eta[0] >= 0
        count += 1


def test_unimodular_completion_general_dims():
    rng = random.Random(19)
    for _ in range(150):
        n = rng.randint(1, 5)
        while True:
            v = tuple(rng.randint(-9, 9) for _ in range(n))
            if any(v):
                break
        rho = primitive(v)
        rows = unimodular_completion(rho)
        assert rows[0] == rho
        assert abs(det([list(r) for r in rows])) == 1


def test_xgcd():
    rng = random.Random(23)
    for _ in range(200):
        a, b = rng.randint(-50, 50), rng.randint(-50, 50)
        g, x, y = xgcd(a, b)
        assert a * x + b * y == g
        assert g >= 0


def test_rank_and_solve():
    assert rank([[1, 2], [2, 4]]) == 1
    assert rank([[1, 0], [0, 1]]) == 2
    sol = solve_exact([[2, 0], [0, 4]], [6, 8])
    assert sol == (3, 2)
    assert solve_exact([[1, 1], [1, 1]], [1, 2]) is None


def test_rank_and_solve_share_consistent_elimination():
    rng = random.Random(29)
    for _ in range(300):
        nrows, ncols = rng.randint(1, 5), rng.randint(1, 5)
        rows = [[rng.randint(-4, 4) for _ in range(ncols)] for _ in range(nrows)]
        if nrows > 1 and rng.random() < 0.4:
            # force a dependent row
            a, b = rng.randint(-2, 2), rng.randint(-2, 2)
            rows[-1] = [a * x + b * y for x, y in zip(rows[0], rows[1 % (nrows - 1)])]
        if rng.random() < 0.5:
            x0 = [rng.randint(-3, 3) for _ in range(ncols)]
            rhs = [sum(a * b for a, b in zip(row, x0)) for row in rows]
        else:
            rhs = [rng.randint(-5, 5) for _ in range(nrows)]
        augmented = [row + [r] for row, r in zip(rows, rhs)]
        sol = solve_exact(rows, rhs)
        assert (sol is None) == (rank(rows) < rank(augmented))
        if sol is not None:
            assert all(sum(a * x for a, x in zip(row, sol)) == r for row, r in zip(rows, rhs))
        transpose = [list(col) for col in zip(*rows)]
        assert rank(rows) == rank(transpose)
