"""The blossom engine the cover solver calls, against the enumeration oracle."""

import numpy as np
import pytest

from conftest import pm_graph
from oracles import Graph, blossom, complete_graph, enumerate_perfect_matchings, matching_brute_force


def test_single_edge():
    g = Graph(2, [(0, 1, 5.0)])
    m = blossom(g)
    assert m.pairs == ((0, 1),)
    assert m.weight == 5.0


def test_four_cycle_picks_heavy_pair():
    g = Graph(4, [(0, 1, 1.0), (1, 2, 2.0), (2, 3, 1.0), (3, 0, 2.0)])
    m = blossom(g)
    assert m.pairs == ((0, 3), (1, 2))
    assert m.weight == 4.0


def test_brute_force_complete_k4_all_ones():
    g = complete_graph(4, lambda u, v: 1.0)
    assert matching_brute_force(g).weight == 2.0


def test_k6_has_fifteen_perfect_matchings():
    g = complete_graph(6, lambda u, v: float(u + v))
    assert sum(1 for _ in enumerate_perfect_matchings(g)) == 15


def test_odd_vertex_count_rejected():
    g = Graph(3, [(0, 1, 1.0), (1, 2, 1.0)])
    assert blossom(g) is None
    with pytest.raises(ValueError, match="odd"):
        matching_brute_force(g)


def test_no_perfect_matching_detected():
    # vertex 3 is isolated
    g = Graph(4, [(0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0)])
    assert blossom(g) is None
    with pytest.raises(ValueError, match="perfect matching"):
        matching_brute_force(g)


def test_brute_force_size_cap():
    g = complete_graph(14, lambda u, v: 1.0)
    with pytest.raises(ValueError, match="capped"):
        matching_brute_force(g)


def test_agrees_with_brute_force_on_random_graphs():
    rng = np.random.default_rng(7)
    for _ in range(60):
        nv = int(rng.choice([2, 4, 6, 8]))
        g = pm_graph(rng, nv)
        exact = matching_brute_force(g)
        fast = blossom(g)
        # integer weights make optimal values exactly comparable
        assert fast.weight == exact.weight
        flat = [v for pair in fast.pairs for v in pair]
        assert sorted(flat) == list(range(nv))


def test_zero_and_negative_weights_supported():
    g = Graph(
        4,
        [(0, 1, -3.0), (2, 3, 0.0), (0, 2, -1.0), (1, 3, -1.0), (0, 3, -5.0), (1, 2, -5.0)],
    )
    m = blossom(g)
    assert m.weight == matching_brute_force(g).weight == -2.0


def test_weight_scaling_is_exact():
    rng = np.random.default_rng(3)
    for _ in range(20):
        g = pm_graph(rng, int(rng.choice([4, 6, 8])))
        base = blossom(g).weight
        for factor in (2.0, 0.5, 8.0):
            scaled = Graph(g.num_vertices, [(u, v, w * factor) for u, v, w in g.edges])
            # powers of two scale floats without rounding, so equality is exact
            assert blossom(scaled).weight == base * factor
