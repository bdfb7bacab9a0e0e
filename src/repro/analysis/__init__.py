"""Static analysis for the MIC reproduction.

Two pillars:

* a **data-plane verifier** (:func:`verify_network`) proving installed
  flow/group tables sound — no shadowing, loops, blackholes, m-address
  collisions, rewrite-chain divergence, plaintext leaks or stray decoys —
  before any packet is simulated;
* a **determinism lint** (:mod:`repro.analysis.lint`) catching wall-clock
  reads, global RNG draws and unordered-set iteration in simulation code.

The package re-exports the verifier only: ``mic.verify()`` imports it
mid-run, so importing the package must not also compile the lint and the
docs check.  Import those from their modules (``repro.analysis.lint``,
``repro.analysis.docs_check``).

CLI: ``python -m repro.analysis verify-network`` / ``python -m
repro.analysis lint``; see :doc:`docs/verification.md`.
"""

from .report import (
    Severity,
    VerificationError,
    VerificationReport,
    Violation,
)
from .symbolic import ANY, SymbolicHeader
from .verifier import (
    match_key,
    port_neighbor_map,
    verify_forwarding,
    verify_match_keys,
    verify_network,
    verify_tables,
)

__all__ = [
    "ANY",
    "Severity",
    "SymbolicHeader",
    "VerificationError",
    "VerificationReport",
    "Violation",
    "match_key",
    "port_neighbor_map",
    "verify_forwarding",
    "verify_match_keys",
    "verify_network",
    "verify_tables",
]
