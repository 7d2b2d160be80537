"""docs/api.md must be exactly what tools/gen_api_docs.py renders."""

import importlib.util
import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[2]
_SPEC = importlib.util.spec_from_file_location(
    "gen_api_docs", _ROOT / "tools" / "gen_api_docs.py")
gen_api_docs = importlib.util.module_from_spec(_SPEC)
sys.modules.setdefault("gen_api_docs", gen_api_docs)
_SPEC.loader.exec_module(gen_api_docs)


def test_committed_api_reference_is_current():
    committed = (_ROOT / "docs" / "api.md").read_text()
    assert committed == gen_api_docs.render(), (
        "docs/api.md is stale; regenerate it with "
        "`PYTHONPATH=src python tools/gen_api_docs.py`")
