"""Parser/grid-builder parity: every rejection keeps its type, message and line.

The table rows were recorded against the per-line object parser this
front end replaced; the columnar parser and the array-level grid checks
must raise exactly what it raised.
"""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.synthetic import generate_design, make_real_spec
from repro.grid.netlist import PowerGrid
from repro.spice.ast import Netlist
from repro.spice.parser import SpiceParseError, parse_spice
from repro.spice.writer import netlist_to_string

from tests.test_properties import netlists

MALFORMED = [
    # (deck, line_no, message)
    ("* t\nR1 a b\n", 2, "expected 'NAME node node value', got 3 tokens"),
    ("R1 a b 1\n\nR2 b c 1 extra\n", 3,
     "expected 'NAME node node value', got 5 tokens"),
    ("R1 a b 1\nL1 a b 1e-9\n", 2,
     "unsupported element 'L1' (PG decks hold only R/I/V/C)"),
    ("R1 a b -5\n", 1, "negative resistance -5.0"),
    ("R1 a b 1\nC1 a 0 -1e-12\n", 2, "negative capacitance -1e-12"),
    ("R1 a b 1x\n", 1, "bad numeric token '1x'"),
    ("R1 a b 1\nR2 b c kmeg\n", 2, "bad numeric token 'kmeg'"),
    ("R1 a b 1\n.tran 1n 10n\n", 2, "unsupported directive '.tran'"),
    ("R1 a b 1\n.SUBCKT foo\nR2 a b\n", 2, "unsupported directive '.subckt'"),
    # the first error in file order wins, whatever its class
    ("R1 a b\nR2 a b -1\n", 1, "expected 'NAME node node value', got 3 tokens"),
    ("R1 a b -1\nR2 a b\n", 1, "negative resistance -1.0"),
    # the value is checked before the element letter
    ("X1 a b zzz\n", 1, "bad numeric token 'zzz'"),
    ("\n\n\tR1 a b\n", 3, "expected 'NAME node node value', got 3 tokens"),
    ("R1 a b 1\r\nR2 a b\r\n", 2, "expected 'NAME node node value', got 3 tokens"),
]


@pytest.mark.parametrize("deck,line_no,message", MALFORMED)
def test_malformed_deck_message_and_line(deck, line_no, message):
    with pytest.raises(SpiceParseError) as caught:
        parse_spice(deck)
    assert caught.value.line_no == line_no
    assert str(caught.value) == f"line {line_no}: {message}"


ACCEPTED = [
    # (deck, title, element count)
    ("R1 a b 1\n.end\nR2 a b\ngarbage\n", "", 1),  # text after .end ignored
    ("R1 a b 1\n.END\n.tran 1n\n", "", 1),
    ("R1 a b 1\r\nI1 a 0 2\r\n.end\r\n", "", 2),  # CRLF endings
    ("R1\ta\tb\t1\n  I1   a 0\t2  \n", "", 2),  # tabs, runs of blanks
    ("\n\n\n* late title\nR1 a b 1\n", "late title", 1),  # leading blank lines
    ("R1 a b 1\n*** stars  \n* second\n", "stars", 1),  # title from first comment
    ("* a b c\nR1 a b 1\n", "a b c", 1),  # a four-token comment is a comment
    (".op\n.ends\nr1 a b 1k\nv1 a 0 1MEG\nc1 a 0 1p\n", "", 3),
    ("", "", 0),
]


@pytest.mark.parametrize("deck,title,count", ACCEPTED)
def test_accepted_deck(deck, title, count):
    netlist = parse_spice(deck)
    assert netlist.title == title
    assert len(netlist) == count


GRID_REJECTIONS = [
    ("R1 a b 0\nV1 a 0 1\n", "resistor 'R1' is a 0-ohm short; give it a finite value "
     "> 0 or join its two nodes in the deck"),
    ("R1 a 0 1\nV1 a 0 1\n",
     "resistor 'R1' touches ground; PG resistor networks connect to ground "
     "only through sources"),
    ("R1 a a 1\nV1 a 0 1\n", "resistor 'R1' is a self-loop on 'a'"),
    ("R1 a b 1\nI1 a b 1\n", "current source 'I1' must sink to ground, got 'b'"),
    ("R1 a b 1\nV1 a b 1\n", "voltage source 'V1' must reference ground, got 'b'"),
    ("R1 a b 1\nV1 a 0 1\nV2 a 0 2\n", "node 'a' pinned to two voltages (1.0 and 2.0)"),
    ("R1 a b 1\nI1 0 0 1\n", "ground cannot be interned as a PG node"),
    # file order within a kind, resistors before sources
    ("R1 a b 1\nR2 c c 1\nR3 d e 0\nI1 a b 1\n", "resistor 'R2' is a self-loop on 'c'"),
    ("R1 0 0 0\n", "resistor 'R1' is a 0-ohm short; give it a finite value > 0 or "
     "join its two nodes in the deck"),
    ("V1 a b 1\nI1 a b 1\n", "current source 'I1' must sink to ground, got 'b'"),
]


@pytest.mark.parametrize("deck,message", GRID_REJECTIONS)
def test_grid_rejection_messages(deck, message):
    with pytest.raises(ValueError) as caught:
        PowerGrid.from_netlist(parse_spice(deck))
    assert str(caught.value) == message


def test_duplicate_pad_at_one_voltage_is_accepted():
    grid = PowerGrid.from_netlist(parse_spice("R1 a b 1\nV1 a 0 1\nV2 a 0 1\n"))
    assert [n.name for n in grid.pads()] == ["a"]


# -- value grammar (tightened on purpose; see CHANGES.md) -----------------------


@pytest.mark.parametrize(
    "token", ["infinity", "inf", "nan", "1e999", "1_0", "١٢", "1e", "--1", "", "meg"]
)
def test_value_grammar_rejects(token):
    with pytest.raises(SpiceParseError) as caught:
        parse_spice(f"* t\nR1 a b {token}\n")
    assert caught.value.line_no == 2


@pytest.mark.parametrize(
    "token,value",
    [("1", 1.0), ("+1.5", 1.5), ("-.5e1", -5.0), ("1.", 1.0), ("2E-3", 2e-3),
     ("1e3k", 1e6), ("2Meg", 2e6), ("3m", 3e-3), ("1e-400", 0.0)],
)
def test_value_grammar_accepts(token, value):
    assert parse_spice(f"I1 a 0 {token}\n").current_sources[0].current == value


def test_line_numbers_count_newlines_only():
    # \x0c and \u2028 are whitespace inside a line, not line breaks.
    with pytest.raises(SpiceParseError) as caught:
        parse_spice("* a\x0c* b \u2028* c\nR1 a b\n")
    assert str(caught.value) == (
        "line 2: expected 'NAME node node value', got 3 tokens"
    )


# -- fuzz -----------------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(st.text())
def test_any_text_parses_or_raises_parse_error(text):
    try:
        assert isinstance(parse_spice(text), Netlist)
    except SpiceParseError:
        pass


deck_like = st.lists(
    st.lists(
        st.sampled_from(
            ["R1", "i2", "V3", "c4", "*", ".end", ".op", ".x", "a", "0", "1", "-1",
             "1k", "1e999", "nan", "\t", "\r", "\x0c", "L", "n1_m1_0_0"]
        ),
        max_size=6,
    ).map(" ".join),
    max_size=8,
).map("\n".join)


@settings(max_examples=300, deadline=None)
@given(deck_like)
def test_deck_shaped_text_parses_or_raises_parse_error(text):
    try:
        assert isinstance(parse_spice(text), Netlist)
    except SpiceParseError as error:
        assert 1 <= error.line_no <= text.count("\n") + 1


@settings(max_examples=100, deadline=None)
@given(st.binary())
def test_any_bytes_parse_or_raise_parse_error(blob):
    try:
        parse_spice(blob.decode("utf-8", errors="replace"))
    except SpiceParseError:
        pass


def netlist_columns(netlist):
    return [netlist.title] + [
        column
        for kind in (
            netlist.resistors, netlist.current_sources,
            netlist.voltage_sources, netlist.capacitors,
        )
        for column in (kind.names, kind.node_a, kind.node_b, kind.values.tolist())
    ]


@settings(max_examples=50, deadline=None)
@given(netlists())
def test_write_parse_reproduces_every_column(netlist):
    reparsed = parse_spice(netlist_to_string(netlist))
    assert netlist_columns(reparsed) == netlist_columns(netlist)


# -- transport --------------------------------------------------------------------


def grid_columns(grid):
    return (
        grid.node_names, grid.wire_names,
        *grid.node_arrays(), *grid.wire_arrays(),
        grid.load_current, grid.pad_voltage,
    )


def assert_columns_equal(left, right):
    for a, b in zip(left, right, strict=True):
        if isinstance(a, np.ndarray):
            np.testing.assert_array_equal(a, b)
        else:
            assert a == b


@pytest.fixture(scope="module")
def design():
    return generate_design(make_real_spec("parity", seed=5, pixels=16))


def test_pickle_round_trip_is_column_for_column(design):
    netlist = pickle.loads(pickle.dumps(design.netlist))
    assert netlist_columns(netlist) == netlist_columns(design.netlist)
    grid = pickle.loads(pickle.dumps(design.grid))
    assert_columns_equal(grid_columns(grid), grid_columns(design.grid))
    assert grid.index_of(design.grid.node_names[-1]) == design.grid.num_nodes - 1
