"""Lint engine: one seeded violation per rule, plus suppression paths."""

import ast
import json
from pathlib import Path

import pytest

from repro.analysis.engine import AnalysisEngine, ModuleSource
from repro.analysis.__main__ import main as analysis_main
from repro.analysis.rules.globalwrite import UnlockedGlobalWriteRule

REPO_ROOT = Path(__file__).resolve().parent.parent

ALL_RULES = {
    "runtime-assert",
    "unseeded-rng",
    "wall-clock",
    "unguarded-division",
    "unlocked-global-write",
    "dead-import",
    "import-cycle",
}


def _write(root: Path, rel: str, text: str) -> None:
    path = root / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


@pytest.fixture
def seeded_tree(tmp_path: Path) -> Path:
    """A fake repo with exactly one violation of every rule."""
    _write(
        tmp_path,
        "src/repro/features/bad.py",
        "import math\n"  # dead-import
        "import time\n"
        "import numpy as np\n"
        "\n"
        "\n"
        "def f(x):\n"
        "    assert x.size > 0\n"  # runtime-assert
        "    rng = np.random.default_rng()\n"  # unseeded-rng
        "    started = time.time()\n"  # wall-clock
        "    return x / x.sum(), rng, started\n",  # unguarded-division
    )
    _write(
        tmp_path,
        "src/repro/core/runner.py",
        "SEEN = {}\n"
        "\n"
        "\n"
        "def run(item):\n"
        "    SEEN[item] = True\n",  # unlocked-global-write
    )
    _write(
        tmp_path,
        "src/repro/a.py",
        "from repro.b import g\n\n\ndef f():\n    return g\n",  # cycle a->b
    )
    _write(
        tmp_path,
        "src/repro/b.py",
        "from repro.a import f\n\n\ndef g():\n    return f\n",  # cycle b->a
    )
    return tmp_path


def test_every_rule_fires_once_on_the_seeded_tree(seeded_tree):
    report = AnalysisEngine(seeded_tree).run(["src"])
    fired = {f.rule for f in report.findings}
    assert fired == ALL_RULES
    # exactly one finding per rule
    assert len(report.findings) == len(ALL_RULES)


def test_strict_cli_fails_on_seeded_tree(seeded_tree):
    rc = analysis_main(
        ["--root", str(seeded_tree), "src", "--strict", "--no-models"]
    )
    assert rc == 1


def test_strict_cli_passes_on_clean_tree(tmp_path):
    _write(
        tmp_path,
        "src/repro/clean.py",
        "def double(x):\n    return 2 * x\n",
    )
    rc = analysis_main(
        ["--root", str(tmp_path), "src", "--strict", "--no-models"]
    )
    assert rc == 0


def test_baseline_grandfathers_existing_findings(seeded_tree):
    engine = AnalysisEngine(seeded_tree)
    first = engine.run(["src"])
    baseline = seeded_tree / ".analysis-baseline"
    engine.write_baseline(baseline, first.findings)

    second = engine.run(["src"], baseline_path=baseline)
    assert second.ok
    assert len(second.grandfathered) == len(first.findings)
    assert second.unused_baseline == []


def test_baseline_still_fails_new_findings(seeded_tree):
    engine = AnalysisEngine(seeded_tree)
    baseline = seeded_tree / ".analysis-baseline"
    engine.write_baseline(baseline, engine.run(["src"]).findings)

    _write(
        seeded_tree,
        "src/repro/fresh.py",
        "def g(x):\n    assert x\n    return x\n",
    )
    report = engine.run(["src"], baseline_path=baseline)
    assert [f.rule for f in report.findings] == ["runtime-assert"]
    assert report.findings[0].path == "src/repro/fresh.py"


def test_stale_baseline_entries_are_reported(seeded_tree):
    engine = AnalysisEngine(seeded_tree)
    baseline = seeded_tree / ".analysis-baseline"
    baseline.write_text("runtime-assert:src/gone.py:deadbeefdeadbeef\n")
    report = engine.run(["src"], baseline_path=baseline)
    assert report.unused_baseline == [
        "runtime-assert:src/gone.py:deadbeefdeadbeef"
    ]


def test_inline_pragma_suppresses_a_rule(tmp_path):
    _write(
        tmp_path,
        "src/repro/ok.py",
        "def f(x):\n"
        "    assert x  # repro: allow(runtime-assert) — invariant, not input\n"
        "    return x\n",
    )
    report = AnalysisEngine(tmp_path).run(["src"])
    assert report.ok
    assert [f.rule for f in report.suppressed] == ["runtime-assert"]


def test_fingerprints_survive_line_moves(seeded_tree):
    engine = AnalysisEngine(seeded_tree)
    before = {
        f.fingerprint for f in engine.run(["src"]).findings
    }
    # Prepend a comment block: every lineno changes, fingerprints must not.
    target = seeded_tree / "src/repro/features/bad.py"
    target.write_text("# moved\n# down\n" + target.read_text())
    after = {f.fingerprint for f in engine.run(["src"]).findings}
    assert before == after


def test_repo_is_clean_under_strict():
    rc = analysis_main(
        ["--root", str(REPO_ROOT), "src", "tests", "--strict", "--no-models"]
    )
    assert rc == 0


def test_missing_path_is_bad_input_not_a_clean_run(tmp_path, capsys):
    (tmp_path / "src").mkdir()
    with pytest.raises(SystemExit) as exc:
        analysis_main(
            ["--root", str(tmp_path), "--strict", "--no-models", "nosuchdir"]
        )
    assert exc.value.code == 2
    assert "nosuchdir" in capsys.readouterr().err
    with pytest.raises(FileNotFoundError, match="nosuchdir"):
        AnalysisEngine(tmp_path).collect(["src", "nosuchdir"])


def test_json_report_schema(seeded_tree, capsys):
    rc = analysis_main(
        ["--root", str(seeded_tree), "src", "--no-models", "--json"]
    )
    assert rc == 0  # lenient mode reports without failing
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {
        "version", "findings", "model_errors", "grandfathered",
        "suppressed", "files_checked", "duration_seconds",
    }
    assert payload["version"] == 2
    assert payload["duration_seconds"] >= 0.0
    finding = next(
        f for f in payload["findings"] if f["rule"] == "unlocked-global-write"
    )
    assert set(finding) == {
        "rule", "path", "line", "col", "message", "fingerprint",
    }
    assert finding["path"] == "src/repro/core/runner.py"
    assert finding["fingerprint"].startswith(
        "unlocked-global-write:src/repro/core/runner.py:"
    )


# The fixture the deleted worker-context pass needed a call graph for:
# a driver ships ``work_item`` to the pool, which calls ``bump``, which
# writes a module container without a lock.  The write is now flagged
# where it stands, whoever calls it.
_STATE_RACY = (
    "TABLE = {}\n"
    "\n"
    "\n"
    "def bump(x):\n"
    "    TABLE[x] = x + 1\n"
    "    return TABLE[x]\n"
)
_STATE_LOCKED = (
    "import threading\n"
    "\n"
    "TABLE = {}\n"
    "_TABLE_LOCK = threading.Lock()\n"
    "\n"
    "\n"
    "def bump(x):\n"
    "    with _TABLE_LOCK:\n"
    "        TABLE[x] = x + 1\n"
    "        return TABLE[x]\n"
)


class TestUnlockedGlobalWrite:
    @staticmethod
    def _run(source: str):
        path = "src/repro/zwork/state.py"
        module = ModuleSource(
            path=path,
            abspath=Path("/synthetic") / path,
            source=source,
            tree=ast.parse(source),
        )
        return UnlockedGlobalWriteRule().check(module)

    def test_two_hop_fixture_flagged_without_a_call_path(self):
        findings = self._run(_STATE_RACY)
        assert len(findings) == 1  # the store; the read does not mutate
        assert findings[0].rule == "unlocked-global-write"
        assert findings[0].snippet == "TABLE[x] = x + 1"
        assert "'bump' writes module-level container 'TABLE'" in (
            findings[0].message
        )

    def test_lock_guarded_write_is_clean(self):
        assert self._run(_STATE_LOCKED) == []

    def test_function_local_container_is_clean(self):
        assert (
            self._run(
                "TABLE = {}\n"
                "\n"
                "\n"
                "def build(items):\n"
                "    TABLE = {}\n"  # shadows the module name
                "    seen = []\n"
                "    for item in items:\n"
                "        TABLE[item] = True\n"
                "        seen.append(item)\n"
                "    return TABLE, seen\n"
            )
            == []
        )

    def test_global_rebind_and_in_place_mutations_flagged(self):
        findings = sorted(
            self._run(
                "_CACHE = None\n"
                "QUEUE = []\n"
                "\n"
                "\n"
                "def reset(value):\n"
                "    global _CACHE\n"
                "    _CACHE = value\n"
                "    QUEUE.append(value)\n"
                "    del QUEUE[0]\n"
            ),
            key=lambda f: f.line,
        )
        assert [f.line for f in findings] == [7, 8, 9]
        assert "rebinds module global '_CACHE'" in findings[0].message
        assert "via .append()" in findings[1].message

    def test_module_level_statements_are_exempt(self):
        assert self._run("TABLE = {}\nTABLE['k'] = 1\n") == []
