import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cftp_colorings.errors import GraphParseError
from cftp_colorings.graphs import (
    gen_complete,
    gen_complete_bipartite,
    gen_random_regular,
    parse_edge_list,
)


def test_parse_triangle():
    g = parse_edge_list("3 3\n0 1\n1 2\n0 2")
    assert g.n == 3 and g.m == 3 and g.max_degree == 2


def test_parse_self_loop_names_line():
    with pytest.raises(GraphParseError, match="line 2.*self-loop"):
        parse_edge_list("2 1\n0 0")


def test_parse_k4():
    g = parse_edge_list("4 6\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3")
    assert g.n == 4 and g.m == 6 and g.max_degree == 3
    assert g.edges == gen_complete(4).edges


def test_parse_duplicate_edge_rejected():
    with pytest.raises(GraphParseError, match="duplicate"):
        parse_edge_list("3 2\n0 1\n1 0")


def test_parse_duplicate_edge_names_the_repeating_line():
    msg = r"line 3: duplicate edge \(0, 1\), first on line 2"
    with pytest.raises(GraphParseError, match=msg):
        parse_edge_list("3 2\n0 1\n1 0")


def test_parse_out_of_range_vertex():
    with pytest.raises(GraphParseError, match="line 2"):
        parse_edge_list("2 1\n0 5")


def test_parse_malformed_line():
    with pytest.raises(GraphParseError, match="line 2"):
        parse_edge_list("2 1\nnope")


def test_bipartite_d3():
    g = gen_complete_bipartite(3)
    assert g.n == 6 and g.m == 9
    assert all(g.degree(v) == 3 for v in range(6))


def test_bipartite_d1_single_edge():
    g = gen_complete_bipartite(1)
    assert g.n == 2 and g.m == 1


def test_bipartite_edge_count_is_d_squared():
    # oracle: each of d left vertices meets all d right vertices
    d = 6
    g = gen_complete_bipartite(d)
    assert g.m == sum(1 for _ in range(d) for _ in range(d)) == 36


def test_regular_basic():
    g = gen_random_regular(8, 3, seed=1)
    assert all(g.degree(v) == 3 for v in range(8))
    assert all(v in g.adjacency[u] for v in range(g.n) for u in g.adjacency[v])
    assert g.max_degree == max(len(a) for a in g.adjacency)
    assert 2 * g.m == sum(len(a) for a in g.adjacency)


def test_regular_parity_rejected():
    with pytest.raises(ValueError, match="even"):
        gen_random_regular(5, 3, seed=0)


def test_regular_n4_d3_is_k4():
    g = gen_random_regular(4, 3, seed=9)
    assert g.edges == gen_complete(4).edges


def test_regular_reproducible():
    a = gen_random_regular(30, 4, seed=77)
    b = gen_random_regular(30, 4, seed=77)
    assert a.edges == b.edges
    c = gen_random_regular(30, 4, seed=78)
    assert c.edges != a.edges


def test_write_parse_roundtrip():
    g = gen_complete_bipartite(4)
    text = f"{g.n} {g.m}\n" + "".join(f"{u} {v}\n" for u, v in sorted(g.edges))
    assert parse_edge_list(text).edges == g.edges


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=4, max_value=40),
    d=st.integers(min_value=1, max_value=6),
    seed=st.integers(min_value=0, max_value=2**32),
)
def test_regular_degree_audit(n, d, seed):
    if (n * d) % 2 or d >= n:
        return
    g = gen_random_regular(n, d, seed)
    assert all(v in g.adjacency[u] for v in range(g.n) for u in g.adjacency[v])
    assert g.max_degree == max(len(a) for a in g.adjacency)
    assert 2 * g.m == sum(len(a) for a in g.adjacency)
    assert all(g.degree(v) == d for v in range(n))


@settings(max_examples=40, deadline=None)
@given(st.sets(st.tuples(st.integers(0, 14), st.integers(0, 14)), max_size=30))
def test_roundtrip_arbitrary_edge_sets(pairs):
    edges = {(u, v) for u, v in ((min(p), max(p)) for p in pairs) if u != v}
    n = 15
    text = f"{n} {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in sorted(edges))
    g = parse_edge_list(text)
    assert g.edges == frozenset(edges)
    again = f"{g.n} {g.m}\n" + "".join(f"{u} {v}\n" for u, v in sorted(g.edges))
    assert parse_edge_list(again).edges == g.edges
