"""The array-stored graph core against the earlier tuple-built one.

``reference.parse_edge_list`` and ``reference.build`` are the earlier
parser and ``Graph.build``; every graph the package makes must have their
tuple form, and every invalid input must raise their error, message and
line included.
"""

from __future__ import annotations

import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ncwl.graph
import reference
from ncwl import (
    Graph,
    GraphFormatError,
    complete_graph,
    disjoint_union,
    parse_edge_list,
    path_graph,
    permute_graph,
    random_gnp,
    stats,
)
from ncwl.graph import MAX_NODE_COUNT, _neighbor_edge_total, _plain_edge_list, _validated_csr

from conftest import graphs, permutations_of

def assert_stored_form(g: Graph):
    for a in (g.degrees, g.neighbors):
        assert a.dtype == np.intp and not a.flags.writeable
    assert len(g.degrees) == g.node_count and len(g.neighbors) == int(g.degrees.sum())


def outcome(fn, *args):
    """("ok", tuple form) or ("error", kind, message, line) of one call."""
    try:
        g = fn(*args)
    except (ValueError, TypeError) as exc:
        kind = "value" if isinstance(exc, ValueError) else "type"
        return "error", kind, str(exc), getattr(exc, "line", None)
    if isinstance(g, Graph):
        assert_stored_form(g)
        g = reference.tuple_form(g)
    return "ok", g


# edge-list files: valid ones, then single-fault mutants

FAULTS = (
    "duplicate",
    "reversed-duplicate",
    "self-loop",
    "out-of-range",
    "negative",
    "huge",
    "non-integer",
    "one-token",
    "three-tokens",
    "missing-line",
)


@st.composite
def valid_edges(draw, n: int, max_size: int = 80):
    """Distinct edges on n nodes, no self-loops, in drawn order and orientation."""
    if n < 2:
        return []
    node = st.integers(0, n - 1)
    pairs = draw(
        st.lists(
            st.tuples(node, node).filter(lambda e: e[0] != e[1]),
            max_size=max_size,
            unique_by=lambda e: (min(e), max(e)),
        )
    )
    return [list(map(str, e)) for e in pairs]


ARABIC_INDIC = str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")
FULLWIDTH = str.maketrans("0123456789", "０１２３４５６７８９")


def token(draw, text: str, plain: bool) -> str:
    """An integer token in a syntax Python's ``int`` reads as the same value.

    A plain token is ASCII digits only, with up to two leading zeros. The
    others may also carry a sign or an underscore, other decimal digits
    (``١``, ``５``) or zeros up to 19-22 digits.
    """
    if text.startswith("-"):
        return text
    syntaxes = [text, "0" + text, "00" + text]
    if not plain:
        syntaxes += [
            "+" + text,
            "0_" + text,
            text.translate(ARABIC_INDIC),
            text.translate(FULLWIDTH),
            text.zfill(draw(st.integers(19, 22))),
        ]
    return draw(st.sampled_from(syntaxes))


def apply_fault(draw, fault: str, n: int, lines: list[list[str]]) -> int:
    """Mutate the edge lines in place; returns the edge count the header claims."""
    if not lines:
        lines.append(["0", "1"])
    i = draw(st.integers(0, len(lines) - 1))
    u, v = lines[i][0], lines[i][-1]
    at = draw(st.integers(0, len(lines)))
    side = draw(st.integers(0, 1))
    if fault == "duplicate":
        lines.insert(at, [u, v])
    elif fault == "reversed-duplicate":
        lines.insert(at, [v, u])
    elif fault == "self-loop":
        lines[i] = [u, u]
    elif fault == "out-of-range":
        lines[i][side] = str(n + draw(st.integers(0, 3)))
    elif fault == "negative":
        lines[i][side] = str(-draw(st.integers(1, 3)))
    elif fault == "huge":
        lines[i][side] = draw(st.sampled_from((str(2**70), str(-(2**70)), str(2**63))))
    elif fault == "non-integer":
        lines[i][side] = draw(st.sampled_from(("x", "1.5", "0x1", "1_", "--1", "1e3")))
    elif fault == "one-token":
        lines[i] = [u]
    elif fault == "three-tokens":
        lines[i] = [u, v, draw(st.sampled_from(("0", "1", "#")))]
    elif fault == "missing-line":
        return len(lines) + draw(st.integers(1, 2))
    return len(lines)


#: What ``str.splitlines`` and ``str.split`` take as a line break or a
#: blank besides LF, CR and the ASCII blanks: no plain file holds them.
UNICODE_BREAKS = ("\x0b", "\x0c", "\x1c", "\x85", "\u2028")


@st.composite
def edge_list_files(draw, faults=(None,)):
    """Edge-list text; about half of it plain (:func:`is_plain`, unless a
    fault makes it otherwise): no comment, no label section, ASCII digits,
    blanks and LF/CR line breaks only."""
    plain = draw(st.booleans())
    n = draw(st.integers(0, 40))
    lines = draw(valid_edges(n))
    fault = draw(st.sampled_from(faults))
    claimed = len(lines) if fault is None else apply_fault(draw, fault, n, lines)
    data = [[str(n), str(claimed)]]
    data += [[token(draw, t, plain) for t in line] for line in lines]
    if not plain and n and draw(st.booleans()):
        order = draw(permutations_of(n))
        data.append(["labels"])
        data += [[str(v), str(draw(st.integers(0, 4)))] for v in order]

    pads, seps = ("", " ", "  ", "\t"), (" ", "  ", "\t", " \t ")
    noises = ("", "   ")
    newlines = ("\n", "\r\n", "\r")
    if not plain:
        pads += UNICODE_BREAKS[:1]
        noises += ("# a comment", "  #x 1 2", "#")
        newlines += UNICODE_BREAKS
    pad, sep, noise = st.sampled_from(pads), st.sampled_from(seps), st.sampled_from(noises)
    out = []
    for line in data:
        out += draw(st.lists(noise, max_size=2))
        out.append(draw(pad) + draw(sep).join(line) + draw(pad))
    out += draw(st.lists(noise, max_size=2))
    newline = draw(st.sampled_from(newlines))
    return newline.join(out) + draw(st.sampled_from(("", newline)))


def is_plain(text: str) -> bool:
    """Whether ``text`` is a plain edge list, the byte tokenizer's input, by its lines."""
    if set(text) - set("0123456789 \t\r\n"):
        return False
    lines = [line.split() for line in re.split("[\r\n]", text) if line.split()]
    return (
        bool(lines)
        and all(len(line) == 2 and max(map(len, line)) <= 18 for line in lines)
        and int(lines[0][0]) <= MAX_NODE_COUNT
        and int(lines[0][1]) == len(lines) - 1
    )


def assert_plain_exactly_when_expected(text: str):
    """The byte tokenizer reads exactly the plain texts, each as ``int`` reads its lines."""
    plain = _plain_edge_list(text)
    assert (plain is not None) == is_plain(text)
    if plain is not None:
        lines = [line.split() for line in text.splitlines() if line.split()]
        assert plain[0] == int(lines[0][0])
        assert plain[1].dtype == np.int64
        assert plain[1].tolist() == [[int(u), int(v)] for u, v in lines[1:]]


def assert_parses_as_reference(text: str):
    assert outcome(parse_edge_list, text) == outcome(reference.parse_edge_list, text)


class TestParseDifferential:
    @given(edge_list_files())
    @settings(max_examples=150, deadline=None)
    def test_valid_files(self, text):
        assert outcome(reference.parse_edge_list, text)[0] == "ok"
        assert_parses_as_reference(text)
        assert_plain_exactly_when_expected(text)

    @given(edge_list_files(faults=FAULTS))
    @settings(max_examples=400, deadline=None)
    def test_single_fault_mutants(self, text):
        assert_parses_as_reference(text)
        assert_plain_exactly_when_expected(text)

    @pytest.mark.parametrize("fault", FAULTS)
    def test_every_fault_on_a_graph_the_arrays_parse(self, fault):
        rng = random.Random(fault)
        g = random_gnp(rng, 40, 0.2)
        lines = [[str(u), str(v)] for u, v in g.edges()]
        rng.shuffle(lines)
        i = rng.randrange(len(lines))
        u, v = lines[i]
        claimed = len(lines)
        if fault == "duplicate":
            lines.insert(len(lines) - 3, [u, v])
        elif fault == "reversed-duplicate":
            lines.insert(len(lines) - 3, [v, u])
        elif fault == "self-loop":
            lines[i] = [u, u]
        elif fault == "out-of-range":
            lines[i][1] = "40"
        elif fault == "negative":
            lines[i][0] = "-1"
        elif fault == "huge":
            lines[i][0] = str(2**70)
        elif fault == "non-integer":
            lines[i][1] = "1.0"
        elif fault == "one-token":
            lines[i] = [u]
        elif fault == "three-tokens":
            lines[i] = [u, v, "1"]
        else:
            claimed += 1
        claimed += fault in ("duplicate", "reversed-duplicate")
        text = f"40 {claimed}\n" + "".join(" ".join(line) + "\n" for line in lines)
        with pytest.raises(GraphFormatError):
            reference.parse_edge_list(text)
        assert_parses_as_reference(text)


#: Texts the byte tokenizer reads, and texts it leaves to the line path.
PLAIN_TEXTS = {
    "lf": "3 2\n0 1\n1 2\n",
    "crlf": "3 2\r\n0 1\r\n1 2\r\n",
    "lone-cr": "3 2\r0 1\r1 2",
    "tabs-and-blank-lines": "\n\t3\t2 \n\n 0 \t1\n\r\n1  2\t\n\n",
    "no-final-break": "3 2\n0 1\n1 2",
    "no-edges": "5 0\n",
    "node-limit": f"{MAX_NODE_COUNT} 0",
    "18-digit-ids": "000000000000000003 2\n000000000000000000 01\n1 000000000000000002\n",
}
LINE_TEXTS = {
    "empty": "",
    "blank": " \n\r\n\t",
    "comment": "# a graph\n3 2\n0 1\n1 2\n",
    "labels": "3 1\n0 1\nlabels\n0 1\n1 0\n2 0\n",
    "plus": "3 2\n+0 1\n1 2\n",
    "underscore": "3 2\n0_0 1\n1 2\n",
    "arabic-indic": "3 2\n0 ١\n1 2\n",
    "fullwidth": "3 2\n0 1\n1 ２\n",
    "19-digit-id": "3 2\n0000000000000000000 1\n1 2\n",
    "22-digit-id": "3 2\n0 0000000000000000000001\n1 2\n",
    "vertical-tab": "3 2\x0b0 1\n1 2\n",
    "form-feed": "3 2\n0 1\x0c1 2\n",
    "file-separator": "3 2\n0 1\x1c1 2\n",
    "next-line": "3 2\n0 1\x851 2\n",
    "line-separator": "3 2\u20280 1\n1 2\n",
    "nul": "3 2\n0 1\n1 2\n\x00",
    "one-token": "3 2\n0\n1 2\n",
    "three-tokens": "3 2\n0 1 2\n1 2\n",
    "two-edges-a-line": "3 2\n0 1 1 2\n",
    "missing-edge-line": "3 3\n0 1\n1 2\n",
    "extra-edge-line": "3 1\n0 1\n1 2\n",
    "over-the-node-limit": f"{MAX_NODE_COUNT + 1} 0\n",
    "out-of-range": "3 2\n0 1\n1 3\n",
    "self-loop": "3 2\n0 1\n2 2\n",
    "duplicate": "3 2\n0 1\n1 0\n",
}


class TestBytePath:
    """Which texts the byte tokenizer reads; the line path reads the rest."""

    @pytest.mark.parametrize("text", PLAIN_TEXTS.values(), ids=PLAIN_TEXTS.keys())
    def test_plain_texts_are_read_from_their_bytes(self, monkeypatch, text):
        expected = outcome(reference.parse_edge_list, text)
        assert expected[0] == "ok" and is_plain(text)
        assert_plain_exactly_when_expected(text)

        def refuse(lines):
            raise AssertionError("line path taken")

        monkeypatch.setattr(ncwl.graph, "_parsed_pairs", refuse)
        assert outcome(parse_edge_list, text) == expected

    @pytest.mark.parametrize("name", LINE_TEXTS)
    def test_other_texts_take_the_line_path(self, name):
        text = LINE_TEXTS[name]
        plain = _plain_edge_list(text)
        if name in ("out-of-range", "self-loop", "duplicate"):
            # read from the bytes, refused by the arrays, and named by the line path
            assert plain is not None and _validated_csr(*plain) is None
        else:
            assert plain is None
        assert_plain_exactly_when_expected(text)
        assert_parses_as_reference(text)


@st.composite
def edge_sequences(draw):
    """(n, edges, labels) for Graph.build: valid, or with one fault of value or type."""
    n = draw(st.integers(0, 40))
    edges = [tuple(map(int, e)) for e in draw(valid_edges(n))]
    faults = (None, None, "dup", "rev", "loop", "range", "big", "float", "triple")
    fault = draw(st.sampled_from(faults))
    if fault and edges:
        i = draw(st.integers(0, len(edges) - 1))
        u, v = edges[i]
        if fault == "dup":
            edges.append((u, v))
        elif fault == "rev":
            edges.insert(draw(st.integers(0, len(edges))), (v, u))
        elif fault == "loop":
            edges[i] = (v, v)
        elif fault == "range":
            edges[i] = (u, draw(st.sampled_from((n, n + 5, -1))))
        elif fault == "big":
            edges[i] = (draw(st.sampled_from((2**63, 2**70, -(2**70)))), v)
        elif fault == "float":
            edges[i] = (u, v + 0.5)
        else:
            edges[i] = (u, v, 0)
    labels = draw(st.none() | st.lists(st.integers(0, 3), min_size=n, max_size=n))
    return n, edges, labels


class TestBuildDifferential:
    @given(edge_sequences())
    @settings(max_examples=300, deadline=None)
    def test_build_matches_reference(self, case):
        n, edges, labels = case
        expected = outcome(reference.build, n, edges, labels)
        assert outcome(Graph.build, n, edges, labels) == expected
        assert outcome(Graph.build, n, iter(edges), labels) == expected
        if expected[0] == "ok":
            a, b = Graph.build(n, edges, labels), Graph.build(n, iter(edges), labels)
            assert a == b and hash(a) == hash(b)

    def test_numpy_ids_and_arrays_build_the_same_graph(self):
        g = random_gnp(random.Random("numpy-ids"), 40, 0.3)
        pairs = np.array(g.edges(), dtype=np.int32)
        assert Graph.build(40, pairs) == g
        assert Graph.build(40, [tuple(e) for e in pairs.astype(np.int64)]) == g
        h = Graph.build(40, pairs)
        assert all(type(u) is int for nb in h.adjacency for u in nb)

    def test_ids_the_arrays_refuse_give_the_int_built_graph(self):
        # numpy unsigned ids and bools pass only the edge-by-edge validator
        g = random_gnp(random.Random("unsigned-ids"), 40, 0.3)
        cases = [
            (3, [(np.uint64(0), np.uint64(1))], Graph.build(3, [(0, 1)])),
            (2, [(True, False)], Graph.build(2, [(0, 1)])),
            (40, [(np.uint64(u), np.uint64(v)) for u, v in g.edges()], g),
        ]
        for n, edges, want in cases:
            h = Graph.build(n, edges)
            assert h == want and hash(h) == hash(want)
            assert h.adjacency == want.adjacency and h.edge_set == want.edge_set
            assert all(type(u) is int for nb in h.adjacency for u in nb)
            assert all(type(x) is int for e in h.edge_set for x in e)
            assert h.edges() == want.edges()

    def test_labels_are_checked_after_the_edges(self):
        for n in (3, 30):
            with pytest.raises(ValueError, match="self-loop"):
                Graph.build(n, [(1, 1)], [0])
            with pytest.raises(ValueError, match="labels length"):
                Graph.build(n, [(0, 1)], [0])
            with pytest.raises(ValueError, match="non-negative"):
                Graph.build(n, [(0, 1)], [-1] * n)


def union_reference(g1: Graph, g2: Graph):
    offset = g1.node_count
    edges = g1.edges() + [(u + offset, v + offset) for u, v in g2.edges()]
    return reference.build(offset + g2.node_count, edges, g1.labels + g2.labels)


class TestUnionAndPermute:
    @given(graphs(max_nodes=30, max_labels=3), graphs(max_nodes=30, max_labels=3))
    @settings(max_examples=60, deadline=None)
    def test_union_matches_reference(self, g1, g2):
        union, offset = disjoint_union(g1, g2)
        assert offset == g1.node_count
        assert_stored_form(union)
        expected = union_reference(g1, g2)
        assert reference.tuple_form(union) == expected
        rebuilt = Graph.build(expected[0], sorted(expected[2]), expected[3])
        assert union == rebuilt and hash(union) == hash(rebuilt)

    @given(graphs(max_nodes=30, max_labels=3), st.data())
    @settings(max_examples=60, deadline=None)
    def test_permute_matches_reference(self, g, data):
        perm = data.draw(permutations_of(g.node_count))
        h = permute_graph(g, perm)
        assert_stored_form(h)
        labels = [0] * g.node_count
        for v, lab in enumerate(g.labels):
            labels[perm[v]] = lab
        expected = reference.build(g.node_count, [(perm[u], perm[v]) for u, v in g.edges()], labels)
        assert reference.tuple_form(h) == expected
        rebuilt = Graph.build(g.node_count, list(expected[2]), labels)
        assert h == rebuilt and hash(h) == hash(rebuilt)

    def test_union_over_the_node_limit_is_refused(self):
        half = Graph.build(ncwl.graph.MAX_NODE_COUNT // 2 + 1, [])
        with pytest.raises(ValueError, match="exceeds the limit"):
            disjoint_union(half, half)

    def test_rejects_what_is_not_a_permutation(self):
        with pytest.raises(ValueError, match="not a permutation"):
            permute_graph(complete_graph(30), [0] * 30)


class TestEqualityAndViews:
    def test_equality_follows_labels_and_adjacency(self):
        g = random_gnp(random.Random("eq"), 30, 0.3)
        same = Graph.build(30, reversed(g.edges()))
        relabeled = Graph.build(30, g.edges(), [1] + [0] * 29)
        u, v = g.edges()[0]
        fewer = Graph.build(30, g.edges()[1:])
        assert g == same and hash(g) == hash(same)
        assert g != relabeled and g != fewer and g != Graph.build(31, g.edges())
        assert g != "a graph" and g != None  # noqa: E711
        # neither == nor hash derives a view
        for h in (g, same, relabeled, fewer):
            assert "adjacency" not in h.__dict__ and "edge_set" not in h.__dict__

    @given(graphs(max_nodes=30))
    @settings(max_examples=60, deadline=None)
    def test_views_and_accessors_agree_with_the_arrays(self, g):
        h = Graph.build(g.node_count, g.edges(), g.labels)
        assert "adjacency" not in h.__dict__ and "edge_set" not in h.__dict__
        edges = h.edges()
        assert edges == sorted(h.edge_set) and h.edge_count == len(edges)
        assert all(type(x) is int for e in edges for x in e)
        assert [h.degree(v) for v in range(h.node_count)] == [len(nb) for nb in h.adjacency]
        assert all(h.has_edge(v, u) for u, v in edges)
        assert h.adjacency == g.adjacency and h.edge_set == g.edge_set

    @pytest.mark.parametrize("v", [-1, 3, -4])
    def test_degree_refuses_an_id_out_of_range(self, v):
        # a negative id once indexed from the end: degree(-1) read node 2's degree
        with pytest.raises(ValueError, match=f"node id out of range: {v}"):
            path_graph(3).degree(v)


class TestNeighborEdgeTotal:
    @given(graphs(max_nodes=30))
    @settings(max_examples=60, deadline=None)
    def test_exact_above_the_cap_and_a_bound_within_it(self, g):
        total = 3 * stats(g).triangle_count
        assert _neighbor_edge_total(g, 0) == total
        assert _neighbor_edge_total(g, 10**9) >= total

    def test_counts_without_storing_the_index(self, monkeypatch):
        def refuse(g):
            raise AssertionError("neighbor-edge index built")

        monkeypatch.setattr(ncwl.graph, "_compact_forward", refuse)
        g = complete_graph(60)
        assert _neighbor_edge_total(g, 0) == 3 * 34220
        assert "_neighbor_edge_arrays" not in g.__dict__
