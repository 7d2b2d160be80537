"""Metamorphic law: a stronger consistency model never adds conflicts.

Checked on every registered configuration (4 ranks, seed 7), on the
uncapped conflict sets:

* along the POSIX chain ``STRONG > COMMIT > SESSION > EVENTUAL`` the
  stronger model's conflicts, keyed by ``(path, rids, kind)``, are a
  subset of the weaker model's;
* against ``OBJECT``, only cross-process conflicts are comparable: the
  ``(path, rank pair)`` set of ``SESSION`` and of ``COMMIT`` is a subset
  of ``OBJECT``'s.  Same-process session conflicts have no object
  counterpart, because the OBJECT detector coalesces each rank's
  accesses into whole-object sessions.
"""

import pytest

from repro.apps.registry import all_variants
from repro.core.report import analyze
from repro.core.semantics import Semantics

NRANKS = 4
SEED = 7
CHAIN = (Semantics.STRONG, Semantics.COMMIT, Semantics.SESSION,
         Semantics.EVENTUAL)


@pytest.fixture(scope="module", params=all_variants(),
                ids=lambda v: v.label)
def conflict_sets(request):
    report = analyze(request.param.run(nranks=NRANKS, seed=SEED))
    return {s: report.conflicts(s, max_per_file=None) for s in Semantics}


def _pairs(conflicts):
    return {(c.path, c.first.rid, c.second.rid, c.kind) for c in conflicts}


def _cross_process(conflicts):
    return {(c.path, frozenset((c.first.rank, c.second.rank)))
            for c in conflicts if c.first.rank != c.second.rank}


def test_posix_chain_is_monotone(conflict_sets):
    for stronger, weaker in zip(CHAIN, CHAIN[1:]):
        assert _pairs(conflict_sets[stronger]) <= \
            _pairs(conflict_sets[weaker]), (stronger, weaker)


@pytest.mark.parametrize("model", [Semantics.SESSION, Semantics.COMMIT],
                         ids=lambda s: s.name.lower())
def test_cross_process_conflicts_are_object_conflicts(conflict_sets, model):
    assert _cross_process(conflict_sets[model]) <= \
        _cross_process(conflict_sets[Semantics.OBJECT])
