"""Exchange format: round trips and parser rejections."""

import io
import tracemalloc

import pytest
from hypothesis import given, settings

from hamdg import io as hio
from hamdg.constructions import circulant_tournament, complete_graph, random_digraph
from hamdg.core import HamiltonCycle
from hamdg.errors import FormatError

from test_core import digraphs


class TestRoundTrip:
    @given(digraphs(10))
    @settings(max_examples=80, deadline=None)
    def test_digraph_round_trip_byte_identical(self, g):
        text = hio.serialize(g)
        assert hio.parse(text) == g
        assert hio.serialize(hio.parse(text)) == text

    def test_graph_round_trip(self):
        g = complete_graph(5)
        text = hio.serialize(g, as_graph=True)
        assert text.startswith("GRAPH 1 5 10\n")
        assert hio.parse(text) == g

    def test_file_round_trip(self, tmp_path):
        g = circulant_tournament(7)
        path = str(tmp_path / "t7.dg")
        hio.dump(g, path)
        assert hio.load(path) == g

    @pytest.mark.parametrize("as_graph", [False, True])
    def test_file_object_round_trip(self, as_graph):
        g = complete_graph(5) if as_graph else circulant_tournament(7)
        f = io.StringIO()
        hio.dump(g, f, as_graph=as_graph)
        assert f.getvalue() == hio.serialize(g, as_graph=as_graph)
        f.seek(0)
        assert hio.load(f) == g


class TestRejections:
    def test_asymmetric_as_graph(self):
        with pytest.raises(FormatError):
            hio.serialize(random_digraph(5, 0.5, seed=1), as_graph=True)

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "DIGRAPH 2 3 1\n0 1\n",
            "DIGRAPH 1 3 2\n0 1\n",  # count mismatch
            "DIGRAPH 1 3 1\n0 0\n",  # self-loop
            "DIGRAPH 1 3 1\n0 3\n",  # out of range
            "DIGRAPH 1 3 2\n0 1\n0 1\n",  # duplicate
            "DIGRAPH 1 3 1\n0 x\n",
            "GRAPH 1 3 1\n2 1\n",  # u >= v
        ],
    )
    def test_bad_inputs(self, text):
        with pytest.raises(FormatError):
            hio.parse(text)


class TestRowLimit:
    """A header whose n needs more than ``_MAX_ROW_BYTES`` of packed rows
    (n * ceil(n/8) bytes a side) is refused before anything is built."""

    @pytest.mark.parametrize(
        "text",
        [
            "DIGRAPH 1 12000 1\n0 1\n",  # once peaked at 51.7 MiB
            "GRAPH 1 1000000 1\n0 1\n",
            "DIGRAPH 1 8193 0\n",
            "DIGRAPH  1 12000 1\n0 1\n",  # the line loop's layout
            "DIGRAPH 1 1000000000000 1\n0 1\n",
        ],
    )
    def test_refused_in_little_memory(self, text):
        tracemalloc.start()
        try:
            with pytest.raises(FormatError, match="parse limit"):
                hio.parse(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize("text", ["DIGRAPH 1 8192 1\n0 8191\n", "DIGRAPH  1 8192 0\n"])
    def test_largest_order_parses(self, text):
        g = hio.parse(text)
        assert g.n == 8192 and g.n * g.n // 8 == hio._MAX_ROW_BYTES
        assert g.m == text.count("\n") - 1

    def test_check_order_is_the_parse_limit(self):
        # the CLI refuses orders with it before building anything
        hio.check_order(8192)
        with pytest.raises(FormatError, match="n=8193: its rows pass the parse limit"):
            hio.check_order(8193)


class TestParts:
    def test_round_trip(self):
        # the part map that ``gen --parts`` writes, read back line by line
        parts = {"A": [0, 1], "B": [2], "hub": []}
        text = hio.serialize_parts(parts)
        assert text == "PARTS 1\nA 0 1\nB 2\nhub\n"
        lines = [ln.split() for ln in text.splitlines()[1:]]
        assert {name: [int(v) for v in vs] for name, *vs in lines} == parts

    @pytest.mark.parametrize("name", ["", "a b", "tab\t"])
    def test_bad_part_name(self, name):
        with pytest.raises(FormatError):
            hio.serialize_parts({name: [0]})


class TestCertificates:
    def test_cycle_record(self):
        h = HamiltonCycle((0, 2, 1, 3))
        line = hio.serialize_cycle(h)
        assert line == "CYCLE 1 4 0 2 1 3"
        assert hio.parse_cycle(line) == h

    @pytest.mark.parametrize(
        "line", ["CYCLE 1 3 0 1_1 2", "CYCLE 1 3 +0 1 2", "CYCLE 1 \u0663 0 1 2"]
    )
    def test_cycle_record_takes_ascii_decimals_only(self, line):
        # int() alone reads 1_1 as 11, +0 as 0 and an Arabic-Indic three as 3
        with pytest.raises(FormatError, match="bad cycle record"):
            hio.parse_cycle(line)

    @pytest.mark.parametrize(
        "line,match",
        [("CYCLE 1", "bad cycle record"), ("CYCLE 2 3 0 1 2", "bad cycle record"),
         ("PATH 1 3 0 1 2", "bad cycle record"), ("CYCLE 1 4 0 1 2", "length mismatch"),
         ("CYCLE 1 2 0 1 2", "length mismatch")],
    )
    def test_malformed_cycle_record(self, line, match):
        with pytest.raises(FormatError, match=match):
            hio.parse_cycle(line)
