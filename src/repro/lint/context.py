"""Conflict accessors shared by lint rules and the lint cross-check.

Every rule pass receives one :class:`~repro.core.report.RunReport`: its
lazily computed artifacts (offset reconstruction, per-file access
tables, the visibility index, the happens-before vector clocks,
per-semantics conflict sets) are built once and shared by all rules, so
a full lint run costs roughly one analysis pipeline regardless of how
many rules run.

Rules read **uncapped** conflict sets (``report.conflicts(s,
max_per_file=None)``): the linter's contract is *zero false negatives*
against the Table 4 replay pipeline, so it must never drop a pair that
the capped report path might still surface.
"""

from __future__ import annotations

from repro.core.conflicts import Conflict, ConflictScope


def conflict_pair_ids(conflict: Conflict) -> tuple[int, int]:
    """The (writer rid, second rid) key used in diagnostics and crossval."""
    return (conflict.first.rid, conflict.second.rid)


def group_label(conflict: Conflict) -> str:
    """The Table 4 cell a conflict belongs to, e.g. ``WAW-D``."""
    return conflict.label


def is_cross_process(conflict: Conflict) -> bool:
    return conflict.scope is ConflictScope.DIFFERENT
