"""Unit tests for the SPICE parser."""

import pytest

from repro.grid.netlist import PowerGrid
from repro.spice.ast import CurrentSource, Resistor, VoltageSource
from repro.spice.parser import SpiceParseError, parse_spice, parse_value


class TestParseValue:
    def test_plain_float(self):
        assert parse_value("1.5") == 1.5

    def test_scientific(self):
        assert parse_value("2e-3") == 2e-3

    def test_kilo(self):
        assert parse_value("2k") == 2000.0

    def test_milli(self):
        assert parse_value("3m") == pytest.approx(3e-3)

    def test_micro(self):
        assert parse_value("4u") == pytest.approx(4e-6)

    def test_nano_pico_femto(self):
        assert parse_value("1n") == pytest.approx(1e-9)
        assert parse_value("1p") == pytest.approx(1e-12)
        assert parse_value("1f") == pytest.approx(1e-15)

    def test_meg_beats_milli(self):
        assert parse_value("2meg") == pytest.approx(2e6)

    def test_case_insensitive(self):
        assert parse_value("2K") == 2000.0
        assert parse_value("2MEG") == pytest.approx(2e6)

    def test_giga_tera(self):
        assert parse_value("1g") == pytest.approx(1e9)
        assert parse_value("1t") == pytest.approx(1e12)

    def test_bad_token_raises(self):
        with pytest.raises(SpiceParseError):
            parse_value("abc")

    def test_empty_raises(self):
        with pytest.raises(SpiceParseError):
            parse_value("   ")


class TestParseSpice:
    def test_elements_parsed(self):
        netlist = parse_spice(
            "R1 a b 2.0\nI1 a 0 0.1\nV1 c 0 1.0\n.end\n"
        )
        assert netlist.resistors == [Resistor("R1", "a", "b", 2.0)]
        assert netlist.current_sources == [CurrentSource("I1", "a", "0", 0.1)]
        assert netlist.voltage_sources == [VoltageSource("V1", "c", "0", 1.0)]

    def test_first_comment_is_title(self):
        netlist = parse_spice("* my design\nR1 a b 1\n")
        assert netlist.title == "my design"

    def test_later_comments_ignored(self):
        netlist = parse_spice("* t\n* another\nR1 a b 1\n")
        assert netlist.title == "t"
        assert len(netlist.resistors) == 1

    def test_blank_lines_skipped(self):
        netlist = parse_spice("\n\nR1 a b 1\n\n")
        assert len(netlist) == 1

    def test_end_stops_parsing(self):
        netlist = parse_spice("R1 a b 1\n.end\nR2 c d 1\n")
        assert len(netlist.resistors) == 1

    def test_lowercase_elements(self):
        netlist = parse_spice("r1 a b 1\ni1 a 0 1\nv1 c 0 1\n")
        assert len(netlist) == 3

    def test_capacitor_parsed(self):
        netlist = parse_spice("C1 a b 1e-12\n")
        assert len(netlist.capacitors) == 1
        assert netlist.capacitors[0].capacitance == pytest.approx(1e-12)

    def test_negative_capacitance_raises(self):
        with pytest.raises(SpiceParseError, match="negative capacitance"):
            parse_spice("C1 a b -1e-12\n")

    def test_unknown_element_raises(self):
        with pytest.raises(SpiceParseError, match="unsupported element"):
            parse_spice("L1 a b 1e-9\n")

    def test_unknown_directive_raises(self):
        with pytest.raises(SpiceParseError, match="unsupported directive"):
            parse_spice(".tran 1n 10n\n")

    def test_wrong_token_count_raises(self):
        with pytest.raises(SpiceParseError, match="tokens"):
            parse_spice("R1 a b\n")

    def test_negative_resistance_raises(self):
        with pytest.raises(SpiceParseError, match="negative"):
            parse_spice("R1 a b -5\n")

    def test_error_carries_line_number(self):
        with pytest.raises(SpiceParseError, match="line 2"):
            parse_spice("R1 a b 1\nL1 a b 1\n")

    def test_node_names_excludes_ground(self):
        grid = PowerGrid.from_netlist(parse_spice("R1 a b 1\nI1 b 0 0.1\n"))
        assert grid.node_names == ["a", "b"]

    def test_total_load_current(self):
        netlist = parse_spice("I1 a 0 0.1\nI2 b 0 0.3\n")
        assert netlist.current_sources.values.sum() == pytest.approx(0.4)

    def test_supply_voltage_single(self):
        netlist = parse_spice("V1 a 0 1.05\nV2 b 0 1.05\n")
        assert netlist.supply_voltage() == 1.05

    def test_supply_voltage_conflict_raises(self):
        netlist = parse_spice("V1 a 0 1.05\nV2 b 0 0.9\n")
        with pytest.raises(ValueError, match="multiple supply"):
            netlist.supply_voltage()

    def test_supply_voltage_missing_raises(self):
        netlist = parse_spice("R1 a b 1\n")
        with pytest.raises(ValueError, match="no voltage"):
            netlist.supply_voltage()

    def test_parse_file(self, tmp_path):
        path = tmp_path / "deck.sp"
        path.write_text("R1 a b 1\n.end\n")
        from repro.spice.parser import parse_spice_file

        assert len(parse_spice_file(path).resistors) == 1
