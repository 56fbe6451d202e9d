"""Graph serialization round trips and SNAP edge-list parsing."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import generators as gen
from repro.graph import io
from repro.graph.builder import from_edges


def assert_same_graph(a, b):
    assert a.num_vertices == b.num_vertices
    assert a.undirected == b.undirected
    assert sorted(a.iter_edges()) == sorted(b.iter_edges())


class TestEdgeList:
    def test_round_trip_undirected(self, tmp_path, small_world):
        p = tmp_path / "g.txt"
        io.write_edge_list(small_world, p)
        back = io.read_edge_list(p)
        assert_same_graph(small_world, back)

    def test_round_trip_directed(self, tmp_path):
        g = gen.erdos_renyi(30, 0.1, seed=1, directed=True)
        p = tmp_path / "g.txt"
        io.write_edge_list(g, p)
        assert_same_graph(g, io.read_edge_list(p))

    def test_round_trip_preserves_name(self, tmp_path, ring10):
        ring10.name = "myring"
        p = tmp_path / "g.txt"
        io.write_edge_list(ring10, p)
        assert io.read_edge_list(p).name == "myring"

    def test_round_trip_isolated_vertices(self, tmp_path):
        from repro.graph.builder import from_edges
        g = from_edges(10, [(0, 1)], undirected=True)
        p = tmp_path / "g.txt"
        io.write_edge_list(g, p)
        assert io.read_edge_list(p).num_vertices == 10

    def test_headerless_snap_format(self):
        data = b"# SNAP comment\n0\t1\n1\t2\n4\t2\n"
        g = io.from_edge_list_bytes(data)
        assert g.num_vertices == 5
        assert not g.undirected
        assert sorted(g.iter_edges()) == [(0, 1), (1, 2), (4, 2)]

    def test_space_separated_accepted(self):
        g = io.from_edge_list_bytes(b"0 1\n1 2\n")
        assert g.num_arcs == 2

    def test_malformed_line_rejected(self):
        with pytest.raises(ValueError, match="malformed"):
            io.from_edge_list_bytes(b"0\n")

    def test_malformed_line_named_after_good_lines(self):
        with pytest.raises(ValueError, match=r"malformed edge line: '7'"):
            io.from_edge_list_bytes(b"# c\n0 1\n1 2\n7\n2 3\n")

    def test_missing_weight_after_weighted_header(self):
        data = b"# weighted: true\n0\t1\t0.5\n# late comment\n1\t2\n"
        with pytest.raises(ValueError,
                           match=r"missing weight on line: '1\\t2'"):
            io.from_edge_list_bytes(data)

    def test_weighted_header_over_two_column_body_rejected(self):
        with pytest.raises(ValueError, match="missing weight"):
            io.from_edge_list_bytes(b"# weighted: true\n0 1\n1 2\n")

    def test_missing_weight_before_inline_comment(self):
        # ``#`` after the columns is a comment on both the vectorized and
        # the error-locating path, so it is not read as the weight
        with pytest.raises(ValueError,
                           match=r"missing weight on line: '1 2 # c'"):
            io.from_edge_list_bytes(b"0 1 0.5\n1 2 # c\n")

    def test_inline_comment_after_columns(self):
        g = io.from_edge_list_bytes(b"0 1 # c\n1 2#d\n")
        assert sorted(g.iter_edges()) == [(0, 1), (1, 2)]

    def test_non_integer_id_rejected(self):
        with pytest.raises(ValueError):
            io.from_edge_list_bytes(b"0 1\n1.5 2\n")

    def test_comments_blank_lines_and_crlf_anywhere(self):
        data = (b"\r\n# a\r\n0 1\r\n\r\n  \r\n# nodes: 6 arcs: 3\r\n"
                b"1 2\r\n# b\r\n4 2")
        g = io.from_edge_list_bytes(data)
        assert g.num_vertices == 6
        assert sorted(g.iter_edges()) == [(0, 1), (1, 2), (4, 2)]

    def test_empty_input(self):
        g = io.from_edge_list_bytes(b"")
        assert g.num_vertices == 0

    def test_bytes_round_trip(self, k5):
        data = io.to_edge_list_bytes(k5)
        assert_same_graph(k5, io.from_edge_list_bytes(data))

    def test_undirected_file_stores_each_edge_once(self, ring10):
        data = io.to_edge_list_bytes(ring10).decode()
        edges = [l for l in data.splitlines() if not l.startswith("#")]
        assert len(edges) == 10


@st.composite
def graphs(draw):
    """Simple graphs (no self loops, one weight per undirected pair) with
    isolated vertices allowed."""
    n = draw(st.integers(1, 25))
    undirected = draw(st.booleans())
    weighted = draw(st.booleans())
    pairs = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        .filter(lambda e: e[0] != e[1]),
        max_size=60,
    ))
    if undirected:
        pairs = [(min(e), max(e)) for e in pairs]
    pairs = list(dict.fromkeys(pairs))
    weights = None
    if weighted and pairs:
        weights = draw(st.lists(
            st.floats(0.01, 100.0), min_size=len(pairs), max_size=len(pairs)
        ))
    return from_edges(n, pairs, undirected=undirected, name="g",
                      weights=weights)


def _interleave(data: bytes, junk, crlf: bool) -> bytes:
    """Insert comment/blank lines before chosen lines; optionally CRLF."""
    lines = data.decode().splitlines()
    out = []
    for i, line in enumerate(lines + [None]):
        out.extend(text for at, text in junk if at % (len(lines) + 1) == i)
        if line is not None:
            out.append(line)
    return ("\r\n" if crlf else "\n").join(out).encode()


class TestEdgeListRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(
        g=graphs(),
        junk=st.lists(st.tuples(
            st.integers(0, 200),
            st.sampled_from(["", "   ", "\t", "# note", "  # indented note",
                             "#"]),
        ), max_size=8),
        crlf=st.booleans(),
    )
    def test_round_trip_with_comments_blanks_crlf(self, g, junk, crlf):
        back = io.from_edge_list_bytes(
            _interleave(io.to_edge_list_bytes(g), junk, crlf)
        )
        assert back.num_vertices == g.num_vertices
        assert back.undirected == g.undirected
        assert back.name == g.name
        assert np.array_equal(back.indptr, g.indptr)
        assert np.array_equal(back.indices, g.indices)
        assert back.indices.dtype == g.indices.dtype
        if g.weights is None:
            assert back.weights is None
        else:
            assert np.array_equal(back.weights, g.weights)


class TestNpz:
    def test_round_trip(self, tmp_path, small_world):
        p = tmp_path / "g.npz"
        io.write_npz(small_world, p)
        back = io.read_npz(p)
        assert_same_graph(small_world, back)
        assert np.array_equal(back.indptr, small_world.indptr)

    def test_round_trip_directed_with_name(self, tmp_path):
        g = gen.erdos_renyi(20, 0.2, seed=2, directed=True)
        g.name = "er-directed"
        p = tmp_path / "g.npz"
        io.write_npz(g, p)
        back = io.read_npz(p)
        assert back.name == "er-directed"
        assert not back.undirected
