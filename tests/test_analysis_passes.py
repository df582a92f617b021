"""Seeded-violation fixtures for the metrics-contract rule, and the
analysis CLI's flag contract."""

import ast
from pathlib import Path

import pytest

from repro.analysis.engine import AnalysisEngine, ModuleSource
from repro.analysis.__main__ import main as analysis_main
from repro.analysis.rules.metrics_contract import MetricsContractRule


def _mod(path: str, source: str) -> ModuleSource:
    return ModuleSource(
        path=path,
        abspath=Path("/synthetic") / path,
        source=source,
        tree=ast.parse(source),
    )


class TestMetricsContractPass:
    def _run(self, source):
        module = _mod("src/repro/zmetrics/emit.py", source)
        return MetricsContractRule().check(module)

    def test_typod_counter_flagged_with_suggestion(self):
        findings = self._run(
            "from repro.obs import counter_add\n"
            "\n"
            "\n"
            "def record():\n"
            "    counter_add('amg_setup_cache.hit')\n"
        )
        assert len(findings) == 1
        assert "did you mean 'amg_setup_cache.hits'" in findings[0].message

    def test_registered_names_are_clean(self):
        assert (
            self._run(
                "from repro.obs import counter_add, gauge_set, span\n"
                "\n"
                "\n"
                "def record(n):\n"
                "    counter_add('amg_setup_cache.hits')\n"
                "    gauge_set('shm.segments_active', n)\n"
                "    with span('solve'):\n"
                "        pass\n"
            )
            == []
        )

    def test_conditional_emit_checks_both_branches(self):
        findings = self._run(
            "from repro.obs import counter_add\n"
            "\n"
            "\n"
            "def record(hit):\n"
            "    counter_add(\n"
            "        'amg_setup_cache.hits' if hit else 'amg_cache.missez'\n"
            "    )\n"
        )
        assert len(findings) == 1
        assert "amg_cache.missez" in findings[0].message

    def test_fstring_outside_any_family_flagged(self):
        findings = self._run(
            "from repro.obs import counter_add\n"
            "\n"
            "\n"
            "def record(reason):\n"
            "    counter_add(f'zzz.unheard_of.{reason}')\n"
        )
        assert len(findings) == 1
        assert "wildcard family" in findings[0].message

    def test_fstring_matching_family_is_clean(self):
        assert (
            self._run(
                "from repro.obs import counter_add\n"
                "\n"
                "\n"
                "def record(reason):\n"
                "    counter_add(f'batch.serial_fallbacks.{reason}')\n"
            )
            == []
        )

    def test_dynamic_name_variable_skipped(self):
        # non-literal names belong to the runtime trace validator
        assert (
            self._run(
                "from repro.obs import counter_add\n"
                "\n"
                "\n"
                "def record(name):\n"
                "    counter_add(name)\n"
            )
            == []
        )


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
