"""Unit tests for the node-name grammar."""

import pytest

from repro.spice.nodes import (
    NodeName,
    format_node_name,
    format_node_names,
    is_structured_name,
    parse_node_name,
)


class TestParseNodeName:
    def test_roundtrip(self):
        name = format_node_name(1, 4, 12000, 3000)
        node = parse_node_name(name)
        assert node == NodeName(1, 4, 12000, 3000)
        assert str(node) == name

    def test_fields(self):
        node = parse_node_name("n2_m3_100_200")
        assert node.net == 2
        assert node.layer == 3
        assert node.position == (100, 200)

    def test_ground_rejected(self):
        with pytest.raises(ValueError):
            parse_node_name("0")

    @pytest.mark.parametrize(
        "bad", ["n1_m1_1", "x1_m1_1_1", "n1_1_1_1", "n1_m1_1_1_1", ""]
    )
    def test_malformed_rejected(self, bad):
        with pytest.raises(ValueError):
            parse_node_name(bad)

    def test_is_structured(self):
        assert is_structured_name("n1_m1_0_0")
        assert not is_structured_name("0")
        assert not is_structured_name("vdd")

    def test_with_layer(self):
        node = parse_node_name("n1_m1_5_6")
        up = node.with_layer(3)
        assert up.layer == 3
        assert up.position == (5, 6)
        assert up.net == 1

    def test_ordering_is_geometric(self):
        a = NodeName(1, 1, 0, 0)
        b = NodeName(1, 1, 0, 1000)
        c = NodeName(1, 2, 0, 0)
        assert a < b < c


def test_lattice_names_match_single_names():
    xs, ys = [0, 2000, -500], [1000, 0]
    names = format_node_names(2, 5, xs, ys)
    assert names.shape == (3, 2)
    assert names.tolist() == [
        [format_node_name(2, 5, x, y) for y in ys] for x in xs
    ]
    assert format_node_names(1, 1, [], [0]).shape == (0, 1)
