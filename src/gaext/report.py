"""Deterministic check reports and the verdicts they are built from.

A verdict is ``True`` or ``Member`` (a proof), ``False`` or ``NotMember``
(a disproof), or ``Undecided`` (no verdict within the recorded bounds).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

PASS = "pass"
FAIL = "fail"
INDETERMINATE_STATUS = "indeterminate"


@dataclass(frozen=True)
class Undecided:
    """No verdict within the bounds: a search or a truncation ran out."""

    reason: str
    bounds: tuple = ()  # ((name, value), ...)

    def __bool__(self):
        raise ValueError("undecided result used as a boolean")

    def __repr__(self):
        if not self.bounds:
            return self.reason
        return f"{self.reason}({', '.join(f'{k}={v}' for k, v in self.bounds)})"


@dataclass(frozen=True)
class Member:
    """Positive certificate: the input equals the stated combination."""

    certificate: object
    text: str

    def __str__(self):
        return self.text


@dataclass(frozen=True)
class NotMember:
    """Disproof: a term that no member can contain, with its exponents."""

    witness: str
    exponents: tuple = ()

    def __str__(self):
        return self.witness


def status_of(verdict) -> str:
    """The report status of a verdict; anything else is a TypeError."""
    if verdict is True or isinstance(verdict, Member):
        return PASS
    if verdict is False or isinstance(verdict, NotMember):
        return FAIL
    if isinstance(verdict, Undecided):
        return INDETERMINATE_STATUS
    raise TypeError(f"not a verdict: {verdict!r}")


@dataclass(frozen=True)
class Check:
    """One verified statement: identifier, outcome, parameters, witness text."""

    check_id: str
    status: str
    params: tuple = ()
    witness: str = ""

    def line(self) -> str:
        params = ",".join(f"{k}={v}" for k, v in self.params)
        return "\t".join((self.check_id, self.status, params, self.witness))


@dataclass
class Report:
    """An ordered bundle of checks from one suite run."""

    suite: str
    params: tuple = ()
    checks: list = field(default_factory=list)

    def add(self, check_id: str, verdict, params=(), witness: str = "") -> Check:
        """Record a verdict; a verdict object's text is the default witness."""
        status = status_of(verdict)
        if not witness and not isinstance(verdict, bool):
            witness = str(verdict)
        check = Check(check_id, status, tuple(params), witness)
        self.checks.append(check)
        return check

    def extend(self, other: "Report"):
        self.checks.extend(other.checks)

    @property
    def overall(self) -> str:
        statuses = {c.status for c in self.checks}
        if FAIL in statuses:
            return FAIL
        if INDETERMINATE_STATUS in statuses:
            return INDETERMINATE_STATUS
        return PASS

    def text(self) -> str:
        params = ",".join(f"{k}={v}" for k, v in self.params)
        lines = [f"suite\t{self.suite}\t{params}\toverall={self.overall}"]
        lines.extend(c.line() for c in self.checks)
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        payload = {
            "suite": self.suite,
            "params": {k: v for k, v in self.params},
            "overall": self.overall,
            "checks": [
                {"id": c.check_id, "status": c.status,
                 "params": {k: v for k, v in c.params}, "witness": c.witness}
                for c in self.checks
            ],
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"
