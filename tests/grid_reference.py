"""Canonical-order likelihood grids for tests, and random tables to check them on.

``reference_grid`` is the oracle of record for ``assignment_count_grid``: it
scatter-adds every arm composition's product into its vector's canonical
flat index with ``np.add.at``, in ascending order of always takers in
intervention, as the package filled the grid before it moved to the support
box.  ``canonical`` lays a support box out in that canonical order.
``at_plane_sums`` checks a box at any n: its exact at-plane sums, by integer
matrix chains.
"""
import math

import numpy as np
from hypothesis import strategies as st

from defiers.combinatorics import choose_table
from defiers.core import theta_index


def reference_grid(x):
    """Assignment count of every Theta with n = x.n, in canonical order."""
    i1, i0, c1, c0 = x.counts()
    table = choose_table(x.n)
    index = theta_index(x.n)
    grid = np.zeros(index.size)
    d_i = np.arange(i0 + 1, dtype=np.int64)[:, None, None]
    a_c = np.arange(c1 + 1, dtype=np.int64)[None, :, None]
    c_c = np.arange(c0 + 1, dtype=np.int64)[None, None, :]
    for a_i in range(i1 + 1):
        at = a_i + a_c
        co = (i1 - a_i) + c_c
        de = d_i + (c1 - a_c)
        nt = (i0 - d_i) + (c0 - c_c)
        term = table[at, a_i] * table[co, i1 - a_i] * table[de, d_i] * table[nt, i0 - d_i]
        idx = index.flatten(at, co, de)
        np.add.at(grid, np.broadcast_to(idx, term.shape).ravel(), term.ravel())
    return grid


def at_plane_sums(x):
    """Exact sum of the assignment counts in each at-plane of the support box, as
    Python ints: the large-n oracle, by matrix chains rather than by compositions.

    A composition's product is F1[a_i, a_c] F2[a_i, c_c] F3[a_c, d_i] F4[d_i, c_c],
    with F1 = C(a_i + a_c, a_i), F2 = C(i1 - a_i + c_c, i1 - a_i), F3 = C(c1 - a_c + d_i,
    d_i) and F4 = C(i0 - d_i + c0 - c_c, i0 - d_i).  Summing out d_i and c_c leaves
    F1[a_i, a_c] P[a_c, a_i] with P = F3 F4 F2^T, and at = a_i + a_c, so plane at is
    the anti-diagonal at of F1 * P^T.
    """
    i1, i0, c1, c0 = x.counts()

    def binomials(rows, cols, top_bottom):
        return np.array(
            [[math.comb(*top_bottom(r, c)) for c in range(cols)] for r in range(rows)], dtype=object
        )

    f1 = binomials(i1 + 1, c1 + 1, lambda a_i, a_c: (a_i + a_c, a_i))
    f2 = binomials(i1 + 1, c0 + 1, lambda a_i, c_c: (i1 - a_i + c_c, i1 - a_i))
    f3 = binomials(c1 + 1, i0 + 1, lambda a_c, d_i: (c1 - a_c + d_i, d_i))
    f4 = binomials(i0 + 1, c0 + 1, lambda d_i, c_c: (i0 - d_i + c0 - c_c, i0 - d_i))
    terms = (f1 * f3.dot(f4).dot(f2.T).T)[:, ::-1]  # column c1 - a_c
    return [int(terms.diagonal(c1 - at).sum()) for at in range(i1 + c1 + 1)]


def canonical(box, n):
    """The support box as a canonical-order grid: 0 for every vector outside it."""
    index = theta_index(n)
    at, co, de, _ = index.components(np.arange(index.size))
    inside = (at < box.shape[0]) & (co < box.shape[1]) & (de < box.shape[2])
    grid = np.zeros(index.size)
    grid[inside] = box[at[inside], co[inside], de[inside]]
    return grid


@st.composite
def tables(draw, max_n=40):
    """Counts (i1, i0, c1, c0) of a random table with 1 <= n <= max_n."""
    n = draw(st.integers(1, max_n))
    m = draw(st.integers(0, n))
    i1 = draw(st.integers(0, m))
    c1 = draw(st.integers(0, n - m))
    return (i1, m - i1, c1, n - m - c1)
