"""Endpoints of the analysis service: the existing pipeline as queries.

Every compute endpoint the batch CLI shares (``cell``, ``chaos``,
``staticcheck``) builds its cell with the **same key builder** the
batch path uses (:mod:`repro.study.parallel`: ``study_cell``,
``chaos_variant``, ``staticcheck_cell``), so the server is a
read-through front end over ``.repro-cache/``: a cell computed by
``python -m repro.study all`` is a warm hit for the service, and vice
versa.  Key derivation goes through
:func:`repro.study.cache.cache_key` — the injectivity the cache's
hypothesis tests pin is exactly the coalescing correctness the server
relies on (identical keys ⇒ identical payloads).

An endpoint contributes:

* ``prepare(params)`` — validate and normalize the raw parameter
  document (raising :class:`~repro.serve.protocol.BadRequest` with a
  caller-facing message) into a :class:`Prepared` work item;
* a top-level, picklable worker function the server runs in its
  :class:`~concurrent.futures.ProcessPoolExecutor`.

Inline endpoints (``healthz``, ``fingerprint``, ``metrics``) are
answered on the event loop by the server itself — they are reads of
server state, never queued, cached, or pooled.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.apps.registry import APPLICATIONS, RunVariant
from repro.serve.protocol import BadRequest
from repro.study.cache import cache_key
from repro.study.parallel import (
    CellSpec,
    chaos_plans,
    chaos_variant,
    chaos_variant_task,
    staticcheck_cell,
    staticcheck_task,
    study_cell,
    study_cell_task,
    variant_fields,
)

#: ceiling on ranks per service request — the analyses are O(nranks)
#: traces; a query service refuses campaign-sized asks outright
MAX_NRANKS = 64


@dataclass(frozen=True)
class Prepared:
    """One validated, schedulable unit of server work."""

    #: cache kind (shared with the batch CLI where the work is shared)
    kind: str
    #: cache key fields; with ``kind`` they fully determine the payload
    key_fields: dict
    #: top-level picklable worker, called as ``worker(task)`` in a pool
    worker: Callable[[tuple], dict]
    task: tuple

    @property
    def key(self) -> str:
        return cache_key(self.kind, **self.key_fields)

    @classmethod
    def batch(cls, kind: str, worker: Callable[[tuple], dict],
              spec: CellSpec) -> "Prepared":
        """Work the batch CLI also does, keyed by its cell builder."""
        return cls(kind=kind, key_fields=spec.key_fields, worker=worker,
                   task=spec.task)


@dataclass(frozen=True)
class Endpoint:
    """One service endpoint: name, doc line, and request preparation."""

    name: str
    summary: str
    prepare: Callable[[dict], Prepared] | None = None
    #: answered by the server on the event loop (no queue/cache/pool)
    inline: bool = False
    #: parameter names accepted by ``prepare`` (for error messages)
    param_names: tuple[str, ...] = field(default=())


# -- parameter validation ------------------------------------------------------


def _check_unknown(params: dict, allowed: tuple[str, ...]) -> None:
    unknown = sorted(set(params) - set(allowed))
    if unknown:
        raise BadRequest(
            f"unknown parameter(s) {', '.join(map(repr, unknown))}; "
            f"accepted: {', '.join(allowed)}")


def _int_param(params: dict, name: str, default: int, lo: int,
               hi: int) -> int:
    value = params.get(name, default)
    if not isinstance(value, int) or isinstance(value, bool):
        raise BadRequest(f"{name!r} must be an integer")
    if not lo <= value <= hi:
        raise BadRequest(f"{name!r} must be in [{lo}, {hi}], "
                         f"got {value}")
    return value


def _name_list(params: dict, name: str) -> list[str] | None:
    """Optional list-of-names parameter.

    Accepts a JSON list of non-empty strings or a comma-separated
    string (the form ``--param {name}=a,b`` produces), so the CLI and
    programmatic clients key identically.
    """
    value = params.get(name)
    if value is None:
        return None
    if isinstance(value, str):
        value = [part.strip() for part in value.split(",")]
    if not isinstance(value, list) \
            or not value \
            or not all(isinstance(v, str) and v for v in value):
        raise BadRequest(
            f"{name!r} must be a list of names or a comma-separated "
            f"string")
    return value


def resolve_one_variant(selector: Any) -> RunVariant:
    """``NAME``, ``NAME/LIB`` or a full variant label -> one variant.

    A selector matching several variants is a :class:`BadRequest`
    naming the candidates — a query answers for exactly one
    configuration.
    """
    if not isinstance(selector, str) or not selector:
        raise BadRequest("'app' must be a non-empty string like "
                         "'FLASH/HDF5' or a variant label")
    everything = [v for spec in APPLICATIONS for v in spec.variants]
    by_label = [v for v in everything
                if v.label.lower() == selector.lower()]
    if by_label:
        return by_label[0]
    name, _, lib = selector.partition("/")
    specs = [s for s in APPLICATIONS
             if s.name.lower() == name.lower()]
    if not specs:
        known = ", ".join(sorted(s.name for s in APPLICATIONS))
        raise BadRequest(f"unknown application {name!r}; known: {known}")
    matched = [v for v in specs[0].variants
               if not lib or v.io_library.lower() == lib.lower()]
    if not matched:
        raise BadRequest(
            f"no variant of {specs[0].name} uses {lib!r}")
    if len(matched) > 1:
        labels = ", ".join(repr(v.label) for v in matched)
        raise BadRequest(
            f"{selector!r} is ambiguous ({labels}); pass a full "
            f"variant label")
    return matched[0]


# -- compute endpoints ---------------------------------------------------------


_CELL_PARAMS = ("app", "nranks", "seed")


def prepare_cell(params: dict) -> Prepared:
    """Study cell: the per-configuration conflict/semantics summary.

    Keyed identically to ``study all`` cells, so the service and the
    batch matrix share one content-addressed store.
    """
    _check_unknown(params, _CELL_PARAMS)
    variant = resolve_one_variant(params.get("app"))
    nranks = _int_param(params, "nranks", 8, 1, MAX_NRANKS)
    seed = _int_param(params, "seed", 7, 0, 2**31 - 1)
    return Prepared.batch("study-cell", study_cell_task,
                          study_cell(variant, nranks, seed))


_LINT_PARAMS = ("app", "nranks", "seed", "rules")


def lint_task(task: tuple) -> dict:
    """(variant, nranks, seed, rules|None) -> lint report document."""
    from repro.errors import LintError
    from repro.lint import lint_variant
    from repro.lint.reporters import report_to_dict

    variant, nranks, seed, rules = task
    try:
        report = lint_variant(variant, nranks=nranks, seed=seed,
                              rules=list(rules) if rules else None)
    except LintError as exc:
        # unknown rule names surface as a bad request, not a crash;
        # the server maps ValueError subclasses to bad_request
        raise BadRequest(str(exc)) from exc
    doc = report_to_dict(report)
    doc["errors"] = len(report.errors)
    return doc


def prepare_lint(params: dict) -> Prepared:
    _check_unknown(params, _LINT_PARAMS)
    variant = resolve_one_variant(params.get("app"))
    nranks = _int_param(params, "nranks", 8, 1, MAX_NRANKS)
    seed = _int_param(params, "seed", 7, 0, 2**31 - 1)
    rules = _name_list(params, "rules")
    if rules is not None:
        rules = sorted(set(rules))
    return Prepared(
        kind="lint-cell",
        key_fields={**variant_fields(variant), "nranks": nranks,
                    "seed": seed, "rules": rules},
        worker=lint_task, task=(variant, nranks, seed,
                                tuple(rules) if rules else None))


_ADVISE_PARAMS = ("app", "nranks", "seed", "semantics")
_ADVISE_SEMANTICS = ("session", "commit")


def advise_task(task: tuple) -> dict:
    """(variant, nranks, seed, semantics) -> repair-advice document."""
    from repro.core.advisor import suggest_fixes
    from repro.core.report import analyze
    from repro.core.semantics import Semantics

    variant, nranks, seed, semantics_name = task
    trace = variant.run(nranks=nranks, seed=seed)
    report = analyze(trace)
    conflicts = report.conflicts(Semantics[semantics_name.upper()])
    fixes = suggest_fixes(conflicts)
    return {
        "label": variant.label,
        "nranks": nranks,
        "seed": seed,
        "semantics": semantics_name,
        "conflicts": len(conflicts),
        "fixes": [{
            "kind": str(f.kind),
            "path": f.path,
            "writer_rank": f.writer_rank,
            "reader_rank": f.reader_rank,
            "after_func": f.after_func,
            "after_time": f.after_time,
            "library_side": f.library_side,
            "conflicts_resolved": f.conflicts_resolved,
            "summary": f.summary,
        } for f in fixes],
    }


def prepare_advise(params: dict) -> Prepared:
    _check_unknown(params, _ADVISE_PARAMS)
    variant = resolve_one_variant(params.get("app"))
    nranks = _int_param(params, "nranks", 8, 1, MAX_NRANKS)
    seed = _int_param(params, "seed", 7, 0, 2**31 - 1)
    semantics = params.get("semantics", "session")
    if semantics not in _ADVISE_SEMANTICS:
        raise BadRequest(f"'semantics' must be one of "
                         f"{', '.join(_ADVISE_SEMANTICS)}")
    return Prepared(
        kind="advise-cell",
        key_fields={**variant_fields(variant), "nranks": nranks,
                    "seed": seed, "semantics": semantics},
        worker=advise_task, task=(variant, nranks, seed, semantics))


_CHAOS_PARAMS = ("app", "nranks", "seed", "plans")


def prepare_chaos(params: dict) -> Prepared:
    """Chaos variant: the fault-matrix audit for one configuration.

    Keyed identically to ``study chaos`` cells (plans, semantics and
    stripe size included), sharing the batch CLI's cache entries.
    """
    _check_unknown(params, _CHAOS_PARAMS)
    variant = resolve_one_variant(params.get("app"))
    nranks = _int_param(params, "nranks", 4, 1, MAX_NRANKS)
    seed = _int_param(params, "seed", 7, 0, 2**31 - 1)
    try:
        plans = chaos_plans(seed, _name_list(params, "plans"))
    except ValueError as exc:
        raise BadRequest(str(exc)) from exc
    return Prepared.batch("chaos-variant", chaos_variant_task,
                          chaos_variant(variant, nranks, seed, plans))


_STATICCHECK_PARAMS = ("app", "nranks", "seed")


def prepare_staticcheck(params: dict) -> Prepared:
    """Static conflict prediction vs the dynamic detector.

    Keyed identically to ``study staticcheck`` cells, so the service
    and the batch soundness matrix share one content-addressed store.
    """
    _check_unknown(params, _STATICCHECK_PARAMS)
    variant = resolve_one_variant(params.get("app"))
    nranks = _int_param(params, "nranks", 8, 1, MAX_NRANKS)
    seed = _int_param(params, "seed", 7, 0, 2**31 - 1)
    return Prepared.batch("staticcheck-cell", staticcheck_task,
                          staticcheck_cell(variant, nranks, seed))


# -- registry ------------------------------------------------------------------

ENDPOINTS: dict[str, Endpoint] = {
    ep.name: ep for ep in (
        Endpoint("cell",
                 "conflict/semantics summary for one configuration",
                 prepare=prepare_cell, param_names=_CELL_PARAMS),
        Endpoint("lint",
                 "static consistency-semantics lint of one "
                 "configuration",
                 prepare=prepare_lint, param_names=_LINT_PARAMS),
        Endpoint("advise",
                 "conflict-repair insertion points for one "
                 "configuration",
                 prepare=prepare_advise, param_names=_ADVISE_PARAMS),
        Endpoint("chaos",
                 "fault-matrix crash-recovery audit for one "
                 "configuration",
                 prepare=prepare_chaos, param_names=_CHAOS_PARAMS),
        Endpoint("staticcheck",
                 "static conflict prediction cross-validated against "
                 "the dynamic detector",
                 prepare=prepare_staticcheck,
                 param_names=_STATICCHECK_PARAMS),
        Endpoint("healthz", "liveness + admission-queue state",
                 inline=True),
        Endpoint("fingerprint",
                 "code fingerprint scoping every cache key",
                 inline=True),
        Endpoint("metrics", "live server.* metrics snapshot",
                 inline=True),
    )
}


def endpoint_catalog() -> list[dict]:
    """JSON-able endpoint listing (what ``healthz`` advertises)."""
    return [{"name": ep.name, "summary": ep.summary,
             "inline": ep.inline, "params": list(ep.param_names)}
            for ep in ENDPOINTS.values()]


def request_key(endpoint: str, params: dict) -> str:
    """Cache/coalescing key for one raw ``(endpoint, params)`` pair.

    Raises :class:`BadRequest` exactly when the server would reject
    the request; for accepted requests the key is
    ``study.cache.cache_key`` over the endpoint's normalized fields,
    so two requests share a key iff they denote the same analysis.
    """
    ep = ENDPOINTS.get(endpoint)
    if ep is None or ep.prepare is None:
        raise BadRequest(f"endpoint {endpoint!r} has no cacheable key")
    return ep.prepare(params).key


__all__ = [
    "ENDPOINTS",
    "Endpoint",
    "MAX_NRANKS",
    "Prepared",
    "advise_task",
    "endpoint_catalog",
    "lint_task",
    "prepare_advise",
    "prepare_cell",
    "prepare_chaos",
    "prepare_lint",
    "prepare_staticcheck",
    "request_key",
    "resolve_one_variant",
]
