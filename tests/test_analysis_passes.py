"""The analysis engine's pragma path and the CLI's flag contract."""

import pytest

from repro.analysis.engine import AnalysisEngine
from repro.analysis.__main__ import main as analysis_main


class TestEngineAndCli:
    def test_pragma_suppresses_a_pass_finding(self, tmp_path):
        path = tmp_path / "src/repro/zwork/state.py"
        path.parent.mkdir(parents=True)
        path.write_text(
            "TABLE = {}\n"
            "\n"
            "\n"
            "def bump(x):\n"
            "    TABLE[x] = x + 1"
            "  # repro: allow(unlocked-global-write) — test-only\n"
            "    return TABLE[x]\n"
        )
        report = AnalysisEngine(tmp_path).run(["src"])
        assert report.ok
        assert [f.rule for f in report.suppressed] == ["unlocked-global-write"]

    def test_write_baseline_and_strict_are_mutually_exclusive(
        self, tmp_path, capsys
    ):
        with pytest.raises(SystemExit) as exc:
            analysis_main(
                [
                    "--root", str(tmp_path), "src",
                    "--write-baseline", "--strict",
                ]
            )
        assert exc.value.code == 2
        assert "mutually exclusive" in capsys.readouterr().err
