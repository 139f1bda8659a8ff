from __future__ import annotations

import random

from hypothesis import strategies as st

from ncwl import Graph


@st.composite
def graphs(draw, max_nodes: int = 10, max_labels: int = 1, min_nodes: int = 0):
    """Random simple labeled graph with min_nodes <= n <= max_nodes."""
    n = draw(st.integers(min_value=min_nodes, max_value=max_nodes))
    all_pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = [e for e in all_pairs if draw(st.booleans())]
    if max_labels > 1 and n:
        labels = draw(
            st.lists(
                st.integers(min_value=0, max_value=max_labels - 1), min_size=n, max_size=n
            )
        )
    else:
        labels = None
    return Graph.build(n, edges, labels)


@st.composite
def permutations_of(draw, n: int):
    perm = list(range(n))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    random.Random(seed).shuffle(perm)
    return perm
