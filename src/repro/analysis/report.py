"""Verification findings: violation records and the aggregate report.

Every check in :mod:`repro.analysis.verifier` and
:mod:`repro.analysis.invariants` reports through these types, so one
diagnostic format covers table-local conflicts, traversal anomalies and the
MIC-specific invariants.  A :class:`Violation` always names the switch and
renders the offending rule(s) — "entry #id on p0e1" beats an object id when
a proof fails.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

__all__ = [
    "Severity",
    "Violation",
    "VerificationReport",
    "VerificationError",
]


class Severity:
    """Two-level severity scale: errors fail verification, warnings don't."""

    ERROR = "error"
    WARNING = "warning"


#: catalogue of violation kinds (see docs/verification.md for the semantics)
KINDS = (
    "shadowed-rule",        # higher-priority entry fully covers a lower one
    "overlap",              # same-priority intersecting matches, divergent actions
    "duplicate-rule",       # literally identical match+priority installed twice
    "duplicate-match-key",  # two owners share one ⟨src,dst,mpls,sport,dport⟩ key
    "dangling-group",       # rule references a group that is not installed
    "dangling-port",        # rule outputs to a port with no link behind it
    "loop",                 # forwarding loop (rewrite-aware traversal)
    "traversal-truncated",  # an origin's loop traversal ran out of budget (warning)
    "blackhole",            # m-flow packet hits a table miss / silent drop
    "rewrite-chain",        # installed rewrites diverge from the planned m-addresses
    "misdelivery",          # m-flow delivered to the wrong host
    "plaintext-leak",       # real endpoint address visible outside its segment
    "maga-class",           # label not in the rewriting MN's space / flow's class
    "decoy-delivered",      # a decoy replica reaches a real host
    "decoy-to-receiver",    # … and that host is the real receiver (or its pod)
    "decoy-unterminated",   # decoy replica dies by table miss, not an explicit drop
    "registry-mismatch",    # installed MIC rule unknown to the CollisionRegistry
    "code-endpoint-leak",   # source-level taint: endpoint identity reaches a sink
)


@dataclass(frozen=True)
class Violation:
    """One broken invariant, tied to a switch and a rendered rule."""

    kind: str
    message: str
    severity: str = Severity.ERROR
    switch: Optional[str] = None
    rule: Optional[str] = None  # FlowEntry/GroupEntry rendering, if applicable
    channel_id: Optional[int] = None
    flow_id: Optional[int] = None

    def format(self) -> str:
        """One diagnostic line: ``error[kind] @switch: message (rule)``."""
        where = f" @{self.switch}" if self.switch else ""
        flow = ""
        if self.channel_id is not None or self.flow_id is not None:
            ch = f"ch{self.channel_id}" if self.channel_id is not None else "?"
            fl = f"flow{self.flow_id}" if self.flow_id is not None else "?"
            flow = f" [{ch}/{fl}]"
        rule = f"\n    rule: {self.rule}" if self.rule else ""
        return f"{self.severity}[{self.kind}]{where}{flow}: {self.message}{rule}"


@dataclass
class VerificationReport:
    """Aggregate outcome of one verifier run."""

    violations: list[Violation] = field(default_factory=list)
    checked_rules: int = 0
    checked_groups: int = 0
    checked_flows: int = 0
    checked_switches: int = 0

    def add(self, violation: Violation) -> None:
        """Record one finding."""
        self.violations.append(violation)

    def extend(self, violations: Iterable[Violation]) -> None:
        """Record several findings."""
        self.violations.extend(violations)

    @property
    def errors(self) -> list[Violation]:
        """Findings at error severity."""
        return [v for v in self.violations if v.severity == Severity.ERROR]

    @property
    def warnings(self) -> list[Violation]:
        """Findings at warning severity."""
        return [v for v in self.violations if v.severity == Severity.WARNING]

    @property
    def ok(self) -> bool:
        """True when verification found nothing at all."""
        return not self.violations

    def by_kind(self, kind: str) -> list[Violation]:
        """Findings of one kind."""
        return [v for v in self.violations if v.kind == kind]

    def summary(self) -> str:
        """One-line outcome for logs and CLIs."""
        scope = (
            f"{self.checked_rules} rules, {self.checked_groups} groups, "
            f"{self.checked_flows} m-flows on {self.checked_switches} switches"
        )
        if self.ok:
            return f"OK: verified {scope}; no violations"
        return (
            f"FAIL: {len(self.errors)} error(s), {len(self.warnings)} "
            f"warning(s) over {scope}"
        )

    def format(self) -> str:
        """Full multi-line report."""
        lines = [self.summary()]
        lines.extend(v.format() for v in self.violations)
        return "\n".join(lines)

    def raise_if_failed(self) -> None:
        """Raise :class:`VerificationError` when any error was found."""
        if self.errors:
            raise VerificationError(self)


class VerificationError(RuntimeError):
    """Static verification found at least one error-severity violation."""

    def __init__(self, report: VerificationReport):
        super().__init__(report.format())
        self.report = report
