"""Oracle-call accounting.

A :class:`QueryLedger` counts how many times each named oracle is applied in an
algorithm's control flow.  One application in the control flow is one query, no
matter how many basis states it serves in superposition; this is the convention
under which the asymptotic claims (total step-1 cost ~ m^{3/2}, Grover and
minimum search ~ sqrt(m), ...) are checked empirically.

Counters are positive integers keyed by dotted names such as ``"step1.o_x"``
(a zero charge records nothing); prefix sums let callers aggregate per
pipeline stage.
"""

from __future__ import annotations

from typing import Mapping


class QueryLedger:
    """Monotone per-oracle query counters."""

    def __init__(self) -> None:
        self.counts: dict[str, int] = {}

    def charge(self, name: str, n: int = 1) -> None:
        if n < 0:
            raise ValueError("ledger charges must be nonnegative")
        if n:
            self.counts[name] = self.counts.get(name, 0) + int(n)

    def charge_many(self, costs: Mapping[str, int], factor: int = 1) -> None:
        """Charge every counter in ``costs`` scaled by ``factor``."""
        for name, n in costs.items():
            self.charge(name, n * factor)

    def get(self, name: str) -> int:
        return self.counts.get(name, 0)

    def total(self, prefix: str = "") -> int:
        """Sum of all counters whose name starts with ``prefix``."""
        return sum(v for k, v in self.counts.items() if k.startswith(prefix))

    def as_dict(self) -> dict[str, int]:
        return dict(sorted(self.counts.items()))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"QueryLedger({self.as_dict()})"
