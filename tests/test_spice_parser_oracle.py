"""The shipped deck ingestion against its reference, and its GC footprint.

``tests/reference_parser.py`` keeps the line-by-line tokeniser and the
name-by-name node-grammar check.  ``parse_spice`` must return the same
netlist, bitwise, or raise the same ``SpiceParseError``; ``parse_node_names``
must return the same ``(fields, structured)`` on any name column.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.synthetic import generate_design, make_fake_spec, make_real_spec
from repro.spice.nodes import parse_node_names
from repro.spice.parser import SpiceParseError, parse_spice
from repro.spice.writer import netlist_to_string

from tests import reference_parser


def netlist_state(netlist):
    """Title, the three name columns and the packed values of every kind."""
    return [netlist.title] + [
        (kind.names, kind.node_a, kind.node_b, kind.values.tobytes())
        for kind in (
            netlist.resistors, netlist.current_sources,
            netlist.voltage_sources, netlist.capacitors,
        )
    ]


def outcome(parse, text):
    try:
        return "netlist", netlist_state(parse(text))
    except SpiceParseError as error:
        return "error", str(error), error.line_no


def assert_parses_like_reference(text):
    assert outcome(parse_spice, text) == outcome(reference_parser.parse_spice, text)


def assert_names_like_reference(names):
    """Compare ``(fields, structured)``; return the structured mask."""
    got, want = parse_node_names(names), reference_parser.parse_node_names(names)
    for column, expected in zip(got, want, strict=True):
        np.testing.assert_array_equal(column, expected, strict=True)
    return got[1]


@pytest.mark.parametrize("pixels", [16, 48, 64, 96])
@pytest.mark.parametrize("maker", [make_fake_spec, make_real_spec])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_generated_decks_parse_like_reference(maker, pixels, seed):
    design = generate_design(maker("oracle", seed=seed, pixels=pixels))
    assert_parses_like_reference(netlist_to_string(design.netlist))
    # Generated names are all in the grammar: the one-scan path.
    assert assert_names_like_reference(design.grid.node_names).all()


# -- deck-shaped text ---------------------------------------------------------------

WORDS = [
    "R1", "r2", "I3", "i4", "V5", "v6", "C7", "c8", "L9", "X1",
    "*", "*title", "**", ".end", ".END", ".op", ".ends", ".tran", ".e",
    "a", "b", "0", "n1_m1_0_0", "n1_m2_-5_7",
    "1", "-1", "+.5", "1e-3", "2k", "3Meg", "4mEG", "1e999", "nan", "inf", "x",
]
#: Whitespace ``str.split`` breaks on inside a line; "\n" alone ends one.
BLANKS = [" ", "   ", "\t", "\r", "\x0c", "\x0b", "\x1c", "\x1f", "\x85",
          "\xa0", "\u2028", "\u3000", " \t "]

lines = st.lists(
    st.tuples(st.sampled_from(WORDS), st.sampled_from(BLANKS)), max_size=6
).map(lambda pairs: "".join(word + blank for word, blank in pairs))
four_token_lines = st.tuples(
    st.sampled_from(["R", "I", "V", "C", "*", ".", "r"]),
    st.sampled_from(WORDS), st.sampled_from(WORDS), st.sampled_from(WORDS),
    st.sampled_from(WORDS), st.sampled_from(BLANKS),
).map(lambda t: t[5].join((t[0] + t[1],) + t[2:5]))
decks = st.tuples(
    st.lists(st.one_of(lines, four_token_lines, st.sampled_from(["", " ", ".end"])),
             max_size=12),
    st.sampled_from(["\n", "\r\n"]),
).map(lambda deck: deck[1].join(deck[0]))


@settings(max_examples=500, deadline=None)
@given(decks)
def test_deck_shaped_text_parses_like_reference(text):
    assert_parses_like_reference(text)


@settings(max_examples=200, deadline=None)
@given(st.text())
def test_any_text_parses_like_reference(text):
    assert_parses_like_reference(text)


# -- node names ---------------------------------------------------------------------

STRUCTURED = ["n1_m1_0_0", "n2_m3_-1000_250", "n01_m1_0_0", "n1_m1_-0_5",
              "n1_m1_" + "9" * 18 + "_0"]
UNSTRUCTURED = ["0", "a", "", "n1_m1_0_0x", "n1_m1_0", "n1_m1_" + "9" * 19 + "_0",
                "n\u0661_m1_0_0", "n1_m1_0_0\nn1_m1_0_1", "n1_m1_0_0\n", "\n",
                "N1_m1_0_0", "n1_m1_+1_0"]


@pytest.mark.parametrize(
    "names",
    [[], STRUCTURED, UNSTRUCTURED, STRUCTURED + UNSTRUCTURED,
     UNSTRUCTURED[::-1] + STRUCTURED, ["n1_m1_0_0\nn1_m1_0_1"], ["\n"]],
)
def test_node_names_match_reference(names):
    assert_names_like_reference(names)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(st.sampled_from(STRUCTURED + UNSTRUCTURED), st.text(
    alphabet="nm_-0123456789\n x", max_size=14))))
def test_any_name_column_matches_reference(names):
    assert_names_like_reference(names)


@pytest.mark.parametrize("bad", UNSTRUCTURED)
@pytest.mark.parametrize("where", [0, 6000, 15000, -1])
def test_long_name_column_matches_reference(bad, where):
    """A column several scan windows long, with one name outside the
    grammar in the first, a middle or the last window."""
    names = [f"n1_m{layer}_{x}_-{x + 7}" for layer in (1, 4) for x in range(10000)]
    assert_names_like_reference(names)
    names[where] = bad
    assert_names_like_reference(names)


# -- garbage collection -------------------------------------------------------------


_GC_PROBE = """
import gc, json
from repro.data.synthetic import generate_design, make_fake_spec
from repro.grid.netlist import PowerGrid
from repro.spice.parser import parse_spice
from repro.spice.writer import netlist_to_string

design = generate_design(make_fake_spec("gc", seed=0, pixels=96))
text = netlist_to_string(design.netlist)
collections = [0, 0, 0]

def count(phase, info):
    if phase == "start":
        collections[info["generation"]] += 1

gc.set_threshold(700, 10, 10)
gc.collect()
gc.callbacks.append(count)
grid = PowerGrid.from_netlist(parse_spice(text))
gc.callbacks.remove(count)
assert grid.num_nodes == design.grid.num_nodes
print(json.dumps(collections))
"""


def test_ingestion_does_not_wake_the_gc():
    """Parsing a 96 px deck and building its grid allocates no GC-tracked
    object that outlives its step, so no collection walks the heap.

    The GC counters are process-wide, so the probe runs in a fresh
    interpreter where no other thread allocates during the parse.
    """
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run(
        [sys.executable, "-c", _GC_PROBE], capture_output=True, text=True, env=env,
        check=True,
    )
    collections = json.loads(out.stdout)
    assert collections[1] == collections[2] == 0, collections
    assert collections[0] <= 1, collections
