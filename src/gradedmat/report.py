"""Uniform pass/fail reporting for the verification suites."""
from __future__ import annotations

from typing import Iterable, List, NamedTuple, Optional


class CheckResult(NamedTuple):
    name: str
    passed: bool
    counterexample: Optional[str] = None
    note: Optional[str] = None

    def to_dict(self) -> dict:
        out = {"name": self.name, "passed": self.passed}
        if self.counterexample is not None:
            out["counterexample"] = self.counterexample
        if self.note is not None:
            out["note"] = self.note
        return out


class VerificationReport:
    """A titled list of checks, filled in by ``add`` and ``check``."""

    def __init__(self, title: str):
        self.title = title
        self.checks: List[CheckResult] = []

    def add(self, name: str, passed: bool, counterexample: str | None = None,
            note: str | None = None) -> CheckResult:
        res = CheckResult(name, bool(passed), counterexample, note)
        self.checks.append(res)
        return res

    def check(self, name: str, cases: Iterable[Optional[str]],
              note: str | None = None) -> CheckResult:
        """Add ``name``, failing with the first counterexample in ``cases``.

        ``cases`` yields None for each case that holds; it is read no further
        than the first counterexample.
        """
        bad = next((c for c in cases if c is not None), None)
        return self.add(name, bad is None, bad, note)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> List[CheckResult]:
        return [c for c in self.checks if not c.passed]

    def summary(self) -> str:
        lines = [f"{self.title}: {'PASS' if self.passed else 'FAIL'}"]
        for c in self.checks:
            status = "pass" if c.passed else "FAIL"
            line = f"  [{status}] {c.name}"
            if c.note:
                line += f" ({c.note})"
            if not c.passed and c.counterexample:
                line += f"  counterexample: {c.counterexample}"
            lines.append(line)
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "title": self.title,
            "passed": self.passed,
            "checks": [c.to_dict() for c in self.checks],
        }
