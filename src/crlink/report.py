"""Check reports shared by the verification suites and the CLI."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, List

PASS = "pass"
FAIL = "fail"
INFO = "info"

_STATUSES = (PASS, FAIL, INFO)


@dataclass
class Check:
    name: str
    status: str
    witness: Any = None

    def to_jsonable(self) -> dict:
        out = {"name": self.name, "status": self.status}
        if self.witness is not None:
            out["witness"] = _jsonable(self.witness)
        return out


@dataclass
class Report:
    suite: str
    checks: List[Check] = field(default_factory=list)

    def add(self, name: str, ok: bool, witness: Any = None) -> Check:
        check = Check(name, PASS if ok else FAIL, witness)
        self.checks.append(check)
        return check

    def info(self, name: str, witness: Any = None) -> Check:
        check = Check(name, INFO, witness)
        self.checks.append(check)
        return check

    @property
    def failed(self) -> List[Check]:
        return [c for c in self.checks if c.status == FAIL]

    @property
    def exit_status(self) -> int:
        return 0 if not self.failed else 1

    def sorted_checks(self) -> List[Check]:
        return sorted(self.checks, key=lambda c: c.name)

    def to_jsonable(self) -> dict:
        return {
            "suite": self.suite,
            "checks": [c.to_jsonable() for c in self.sorted_checks()],
            "counts": {
                s: sum(1 for c in self.checks if c.status == s) for s in _STATUSES
            },
            "exit_status": self.exit_status,
        }

    def render(self) -> str:
        lines = [f"== {self.suite} =="]
        for c in self.sorted_checks():
            mark = {PASS: "ok", FAIL: "FAIL", INFO: "--"}[c.status]
            line = f"  [{mark:>4}] {c.name}"
            if c.witness is not None and c.status != PASS:
                line += f": {_render_witness(c.witness)}"
            lines.append(line)
        counts = self.to_jsonable()["counts"]
        lines.append(
            f"  {counts['pass']} pass, {counts['fail']} fail, {counts['info']} info"
        )
        return "\n".join(lines)


def _jsonable(x):
    from .scalars import CycloNumber

    if isinstance(x, CycloNumber):
        return {"exact": str(x), "coeffs": x.to_json_coeffs(), "approx": _cx(x.to_complex())}
    if isinstance(x, complex):
        return _cx(x)
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, (str, int, float, bool)) or x is None:
        return x
    return str(x)


def _cx(z: complex):
    return {"re": z.real, "im": z.imag}


def _render_witness(w) -> str:
    j = _jsonable(w)
    return json.dumps(j) if not isinstance(j, str) else j


def validate_report_json(data: dict) -> List[str]:
    """Structural schema check for a serialized report; returns problems."""
    problems = []
    if not isinstance(data, dict):
        return ["report must be an object"]
    if not isinstance(data.get("suite"), str):
        problems.append("missing/invalid 'suite'")
    checks = data.get("checks")
    if not isinstance(checks, list):
        problems.append("missing/invalid 'checks'")
        checks = []
    for k, c in enumerate(checks):
        if not isinstance(c, dict):
            problems.append(f"check {k} not an object")
            continue
        if not isinstance(c.get("name"), str):
            problems.append(f"check {k} missing 'name'")
        if c.get("status") not in _STATUSES:
            problems.append(f"check {k} bad status {c.get('status')!r}")
    if not isinstance(data.get("exit_status"), int):
        problems.append("missing/invalid 'exit_status'")
    counts = data.get("counts")
    if not isinstance(counts, dict) or set(counts) != set(_STATUSES):
        problems.append("missing/invalid 'counts'")
    else:
        fails = sum(1 for c in checks if isinstance(c, dict) and c.get("status") == FAIL)
        if (data.get("exit_status") == 0) != (fails == 0):
            problems.append("exit_status contradicts fail count")
    return problems
