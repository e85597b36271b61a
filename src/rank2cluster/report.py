"""Structured results for verification sweeps, and the one way to give up.

A CheckReport is a flat list of labeled items, each pass, fail, or
inconclusive.  Failure means a property was computed and found false;
inconclusive means the computation could not be carried out (a module
failed its rigidity test, a size or budget guard stopped it) and asserts
nothing.

A computation that gives up raises a subclass of `Inconclusive`.  The
verification drivers report it as an INCONCLUSIVE item and the CLI exits
3 on it; neither ever reports it as a failure.
"""

from __future__ import annotations

from dataclasses import dataclass, field


class Inconclusive(RuntimeError):
    """The computation could not be carried out; it asserts nothing."""


class BudgetExceeded(Inconclusive):
    """A size guard refused a computation before it started."""

PASS = "pass"
FAIL = "fail"
INCONCLUSIVE = "inconclusive"

_STATUSES = (PASS, FAIL, INCONCLUSIVE)


@dataclass(frozen=True)
class CheckItem:
    label: str
    status: str
    detail: str = ""

    def __post_init__(self):
        if self.status not in _STATUSES:
            raise ValueError(f"status must be one of {_STATUSES}, got {self.status!r}")


@dataclass
class CheckReport:
    description: str
    items: list[CheckItem] = field(default_factory=list)

    def add(self, label: str, status: str, detail: str = "") -> None:
        self.items.append(CheckItem(label, status, detail))

    def extend(self, other: "CheckReport") -> None:
        self.items.extend(other.items)

    @property
    def passed(self) -> int:
        return sum(1 for it in self.items if it.status == PASS)

    @property
    def failed(self) -> int:
        return sum(1 for it in self.items if it.status == FAIL)

    @property
    def inconclusive(self) -> int:
        return sum(1 for it in self.items if it.status == INCONCLUSIVE)

    @property
    def all_passed(self) -> bool:
        return self.failed == 0 and self.inconclusive == 0

    def exit_code(self) -> int:
        """0 all pass, 1 any failure, 3 inconclusive only."""
        if self.failed:
            return 1
        if self.inconclusive:
            return 3
        return 0

    def to_dict(self) -> dict:
        return {
            "description": self.description,
            "passed": self.passed,
            "failed": self.failed,
            "inconclusive": self.inconclusive,
            "items": [
                {"label": it.label, "status": it.status, "detail": it.detail}
                for it in self.items
            ],
        }

    def summary(self) -> str:
        lines = [
            f"{self.description}: {self.passed} passed, "
            f"{self.failed} failed, {self.inconclusive} inconclusive"
        ]
        for it in self.items:
            line = f"  {it.label}: {it.status.upper()}"
            if it.detail:
                line += f" ({it.detail})"
            lines.append(line)
        return "\n".join(lines)
