#!/usr/bin/env python
"""Generate docs/api.md from the package's docstrings.

Walks every ``repro`` module, collecting the module docstring's first
paragraph and the signature + first docstring line of each public class
and function.  Run after API changes (a tier-1 test fails while the
committed file is stale):

    PYTHONPATH=src python tools/gen_api_docs.py
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil
import sys
from pathlib import Path

import repro

OUT = Path(__file__).resolve().parent.parent / "docs" / "api.md"


def first_paragraph(doc: str | None) -> str:
    if not doc:
        return "(undocumented)"
    return " ".join(doc.strip().split("\n\n")[0].split())


def first_line(doc: str | None) -> str:
    if not doc:
        return "(undocumented)"
    return doc.strip().splitlines()[0].strip()


def describe_module(name: str) -> list[str]:
    mod = importlib.import_module(name)
    lines = [f"## `{name}`", "", first_paragraph(mod.__doc__), ""]
    members = []
    for attr, obj in sorted(vars(mod).items()):
        if attr.startswith("_"):
            continue
        if getattr(obj, "__module__", None) != name:
            continue  # re-exports documented at their home module
        if inspect.isclass(obj):
            members.append(f"- **class `{attr}`** — "
                           f"{first_line(obj.__doc__)}")
        elif inspect.isfunction(obj):
            try:
                sig = str(inspect.signature(obj))
            except (TypeError, ValueError):
                sig = "(...)"
            if len(sig) > 60:
                sig = "(...)"
            members.append(f"- `{attr}{sig}` — "
                           f"{first_line(obj.__doc__)}")
    if members:
        lines.extend(members)
        lines.append("")
    return lines


def render() -> str:
    """The whole of docs/api.md, as the current package documents it."""
    names = ["repro"]
    for info in pkgutil.walk_packages(repro.__path__,
                                      prefix="repro."):
        if info.name.endswith("__main__"):
            continue  # importing __main__ would execute the CLI
        names.append(info.name)
    lines = [
        "# API reference",
        "",
        "Generated by `python tools/gen_api_docs.py` — regenerate "
        "after API changes.",
        "",
    ]
    for name in sorted(set(names)):
        lines.extend(describe_module(name))
    return "\n".join(lines).rstrip() + "\n"


def main() -> int:
    text = render()
    OUT.write_text(text)
    print(f"wrote {OUT} ({text.count(chr(10))} lines)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
