"""Grassmannians by their fixed points.

A generic C*-action on Gr(k, n) has a Bialynicki-Birula decomposition with
the q-Pascal recursion Gr(k, n) = decomp(Gr(k, n-1):0, Gr(k-1, n-1):n-k),
where Gr(0, n) = Gr(n, n) is a point and Gr(1, n) = P^(n-1).  Its Betti
numbers are the coefficients of the Gaussian binomial [n choose k]_q,
computed here by counting k-subsets, a route that shares nothing with the
decomposition.
"""

import itertools

from lawson import (
    Decomposition,
    FixedComponent,
    Point,
    ProjectiveSpace,
    checks,
    evaluate,
    parse,
    render,
)


def grassmannian(k: int, n: int):
    # No memo: equal nodes are one object, so the recursion gives a DAG.
    if k in (0, n):
        return Point()
    if k == 1:
        return ProjectiveSpace(n - 1)
    fixed = grassmannian(k, n - 1), grassmannian(k - 1, n - 1)
    return Decomposition((FixedComponent(fixed[0], 0), FixedComponent(fixed[1], n - k)))


def gaussian_binomial(n: int, k: int) -> tuple[int, ...]:
    """Coefficients of [n choose k]_q: the k-subsets of range(n) by the sum
    of their elements, less its least value k(k-1)/2."""
    coefficients = [0] * (k * (n - k) + 1)
    for subset in itertools.combinations(range(n), k):
        coefficients[sum(subset) - k * (k - 1) // 2] += 1
    return tuple(coefficients)


def _distinct_nodes(x) -> int:
    seen, stack = {}, [x]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen[id(node)] = node
            stack.extend(fixed.component for fixed in getattr(node, "components", ()))
    return len(seen)


def test_betti_numbers_are_gaussian_binomials_and_columns_are_constant():
    for n in range(2, 11):
        for k in range(1, n):
            result = evaluate(grassmannian(k, n))
            assert result.attributes.betti == gaussian_binomial(n, k), (k, n)
            assert checks.row_zero_counts_cells(result), (k, n)
            assert checks.columns_are_constant(result.table), (k, n)


def test_parsed_text_is_the_dag_itself():
    dag = grassmannian(6, 14)
    text = render(dag)
    assert len(text) > 20_000  # the text repeats every shared subvariety
    assert parse(text) is dag
    assert _distinct_nodes(dag) == 49
