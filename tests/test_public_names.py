"""The package's exported names and the functions the benchmark times exist."""
import importlib
import importlib.util
from pathlib import Path

import nsfemdg

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_all_names_resolve():
    missing = [name for name in nsfemdg.__all__ if not hasattr(nsfemdg, name)]
    assert missing == []


def test_benchmark_targets_exist():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [f"{mod}.{fn}" for mod, fn in spans.TARGETS
               if not callable(getattr(importlib.import_module(f"nsfemdg.{mod}"), fn, None))]
    assert missing == []
