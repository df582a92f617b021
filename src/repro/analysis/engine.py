"""AST-based lint engine with a committed-baseline workflow.

The engine walks the Python files under the configured paths, parses each
once, and hands the parse to every registered :class:`Rule`.  Rules are
project-specific invariants (see :mod:`repro.analysis.rules`): things the
test suite cannot cheaply enforce but that PRs must not regress — assert
misuse, unseeded RNG, wall-clock in deterministic paths, unguarded float
division, precision-contract breaks, unlocked writes to module state,
dead imports and import cycles.

Suppression mechanisms, in order of preference:

- an inline pragma ``# repro: allow(RULE_ID) — reason`` on the offending
  line, for violations that are locally, provably safe;
- the committed baseline file (``.analysis-baseline`` at the repo root),
  which grandfathers pre-existing findings by fingerprint so the CI
  ``lint`` job only fails on *new* violations.

Fingerprints hash the rule id, the file path and the offending source
line text (not the line number), so unrelated edits do not churn the
baseline.
"""

from __future__ import annotations

import ast
import hashlib
import re
from dataclasses import dataclass, field
from pathlib import Path

_PRAGMA = re.compile(r"#\s*repro:\s*allow\(\s*([A-Za-z0-9_,\s*-]+?)\s*\)")


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule: str
    path: str  # repo-relative, posix separators
    line: int
    col: int
    message: str
    snippet: str  # stripped source line, used for the fingerprint

    @property
    def fingerprint(self) -> str:
        digest = hashlib.sha1(
            f"{self.rule}:{self.path}:{self.snippet}".encode()
        ).hexdigest()[:16]
        return f"{self.rule}:{self.path}:{digest}"

    def format(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"


@dataclass
class ModuleSource:
    """One parsed file, shared across rules."""

    path: str  # repo-relative posix path
    abspath: Path
    source: str
    tree: ast.AST
    lines: list[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.lines:
            self.lines = self.source.splitlines()

    def line_text(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1].strip()
        return ""

    def finding(self, rule: str, node: ast.AST, message: str) -> Finding:
        lineno = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        return Finding(
            rule=rule,
            path=self.path,
            line=lineno,
            col=col,
            message=message,
            snippet=self.line_text(lineno),
        )

    def allowed_rules(self, lineno: int) -> set[str]:
        """Rule ids suppressed by a pragma on the given line."""
        match = _PRAGMA.search(self.line_text(lineno))
        if not match:
            return set()
        return {part.strip() for part in match.group(1).split(",")}


class Rule:
    """Base class for lint rules.

    Subclasses set ``rule_id``/``title`` and implement ``check`` (per
    file) and/or ``check_project`` (whole-tree rules such as import-cycle
    detection).  ``applies_to`` filters by repo-relative path.
    """

    rule_id: str = ""
    title: str = ""

    def applies_to(self, path: str) -> bool:
        return path.startswith("src/")

    def check(self, module: ModuleSource) -> list[Finding]:
        return []

    def check_project(self, modules: list[ModuleSource]) -> list[Finding]:
        return []


@dataclass
class AnalysisReport:
    """Outcome of one engine run."""

    findings: list[Finding] = field(default_factory=list)
    grandfathered: list[Finding] = field(default_factory=list)
    suppressed: list[Finding] = field(default_factory=list)
    unused_baseline: list[str] = field(default_factory=list)
    files_checked: int = 0

    @property
    def ok(self) -> bool:
        return not self.findings

    def summary_lines(self) -> list[str]:
        lines = [finding.format() for finding in self.findings]
        lines.append(
            f"analysis: {len(self.findings)} new finding(s), "
            f"{len(self.grandfathered)} grandfathered, "
            f"{len(self.suppressed)} pragma-suppressed, "
            f"{self.files_checked} file(s) checked"
        )
        for fingerprint in self.unused_baseline:
            lines.append(f"analysis: stale baseline entry: {fingerprint}")
        return lines


class AnalysisEngine:
    """Collects files, runs rules, and applies pragma/baseline filters."""

    def __init__(self, root: Path, rules: list[Rule] | None = None) -> None:
        from repro.analysis.rules import default_rules

        self.root = Path(root)
        self.rules = rules if rules is not None else default_rules()

    # -- file collection ----------------------------------------------------

    def collect(self, paths: list[str]) -> list[ModuleSource]:
        """Parse every ``*.py`` under *paths*; a missing path is an error."""
        modules: list[ModuleSource] = []
        for entry in paths:
            base = (self.root / entry).resolve()
            if base.is_file():
                candidates = [base]
            elif base.is_dir():
                candidates = sorted(base.rglob("*.py"))
            else:
                raise FileNotFoundError(f"no such file or directory: {entry}")
            for candidate in candidates:
                rel = candidate.relative_to(self.root.resolve()).as_posix()
                source = candidate.read_text()
                try:
                    tree = ast.parse(source, filename=str(candidate))
                except SyntaxError as exc:
                    raise ValueError(f"cannot parse {rel}: {exc}") from exc
                modules.append(
                    ModuleSource(
                        path=rel, abspath=candidate, source=source, tree=tree
                    )
                )
        return modules

    # -- baseline -----------------------------------------------------------

    def load_baseline(self, path: Path | None) -> set[str]:
        if path is None or not path.exists():
            return set()
        entries: set[str] = set()
        for raw in path.read_text().splitlines():
            line = raw.split("#", 1)[0].strip()
            if line:
                entries.add(line)
        return entries

    def write_baseline(self, path: Path, findings: list[Finding]) -> None:
        lines = [
            "# repro.analysis baseline — grandfathered findings.",
            "# Regenerate with: python -m repro.analysis --write-baseline",
        ]
        for finding in sorted(findings, key=lambda f: f.fingerprint):
            lines.append(f"{finding.fingerprint}  # {finding.format()}")
        path.write_text("\n".join(lines) + "\n")

    # -- run ----------------------------------------------------------------

    def run(
        self,
        paths: list[str],
        baseline_path: Path | None = None,
    ) -> AnalysisReport:
        modules = self.collect(paths)
        report = AnalysisReport(files_checked=len(modules))
        raw: list[Finding] = []
        for rule in self.rules:
            scoped = [m for m in modules if rule.applies_to(m.path)]
            for module in scoped:
                raw.extend(rule.check(module))
            raw.extend(rule.check_project(scoped))

        baseline = self.load_baseline(baseline_path)
        seen_fingerprints: set[str] = set()
        by_path = {m.path: m for m in modules}
        for finding in sorted(raw, key=lambda f: (f.path, f.line, f.rule)):
            module = by_path.get(finding.path)
            allowed = (
                module.allowed_rules(finding.line) if module else set()
            )
            if finding.rule in allowed or "*" in allowed:
                report.suppressed.append(finding)
            elif finding.fingerprint in baseline:
                seen_fingerprints.add(finding.fingerprint)
                report.grandfathered.append(finding)
            else:
                report.findings.append(finding)
        report.unused_baseline = sorted(baseline - seen_fingerprints)
        return report
