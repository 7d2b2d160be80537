"""Lint-rule base class and discovery registry.

Mirrors :mod:`repro.apps.registry`: rules are independent classes that
register themselves under a stable id + name, and callers ask the
registry for "all rules" or a named subset.  Adding a rule is::

    @register_rule
    class MyRule(LintRule):
        id = "L042"
        name = "my-rule"
        summary = "one line shown by --list-rules"

        def check(self, report):
            yield self.diagnostic(Severity.WARNING, "...", path="/f")

Rules are stateless; :meth:`LintRule.check` receives a
:class:`~repro.core.report.RunReport` holding the trace and every
shared (lazily computed) analysis artifact.
"""

from __future__ import annotations

import abc
from typing import Any, Iterable

from repro.core.report import RunReport
from repro.errors import LintError
from repro.lint.diagnostics import Diagnostic, Severity


class LintRule(abc.ABC):
    """One static-analysis pass over a trace."""

    #: stable identifier, ``L0xx`` — never reused, never renumbered
    id: str = ""
    #: kebab-case name used by ``--rules`` and reports
    name: str = ""
    #: one-line description for ``--list-rules`` and docs
    summary: str = ""

    @abc.abstractmethod
    def check(self, report: RunReport) -> Iterable[Diagnostic]:
        """Yield diagnostics for one trace."""

    def diagnostic(self, severity: Severity, message: str,
                   **kw: Any) -> Diagnostic:
        """Build a diagnostic pre-filled with this rule's identity."""
        return Diagnostic(rule=self.name, rule_id=self.id,
                          severity=severity, message=message, **kw)

    def __repr__(self) -> str:
        return f"<LintRule {self.id} {self.name}>"


_REGISTRY: dict[str, type[LintRule]] = {}


def register_rule(cls: type[LintRule]) -> type[LintRule]:
    """Class decorator: add a rule to the registry (keyed by id + name)."""
    if not cls.id or not cls.name:
        raise LintError(f"rule {cls.__name__} lacks an id or name")
    for key in (cls.id, cls.name):
        existing = _REGISTRY.get(key)
        if existing is not None and existing is not cls:
            raise LintError(
                f"duplicate lint rule key {key!r}: "
                f"{existing.__name__} vs {cls.__name__}")
    _REGISTRY[cls.id] = cls
    _REGISTRY[cls.name] = cls
    return cls


def _ensure_builtin_rules_loaded() -> None:
    # the import registers the built-in rule classes as a side effect
    import repro.lint.rules  # noqa: F401


def all_rules() -> list[LintRule]:
    """One instance of every registered rule, ordered by id."""
    _ensure_builtin_rules_loaded()
    classes = {cls for cls in _REGISTRY.values()}
    return [cls() for cls in sorted(classes, key=lambda c: c.id)]


def get_rule(key: str) -> LintRule:
    """Look up one rule by id (``L001``) or name (``commit-hazard``)."""
    _ensure_builtin_rules_loaded()
    try:
        return _REGISTRY[key]()
    except KeyError:
        known = ", ".join(sorted(
            {cls.name for cls in _REGISTRY.values()}))
        raise LintError(f"unknown lint rule {key!r}; known: {known}")


def resolve_rules(keys: Iterable[str] | None = None) -> list[LintRule]:
    """``None`` -> every rule; otherwise the named subset, in id order."""
    if keys is None:
        return all_rules()
    rules = [get_rule(k) for k in keys]
    seen: dict[str, LintRule] = {}
    for rule in rules:
        seen.setdefault(rule.id, rule)
    return [seen[i] for i in sorted(seen)]
