"""Every function the benchmark's tracer wraps must exist where bench/tracing.py
looks for it, so that a rename in src/ fails here rather than in a traced
benchmark run (python3 bench/run.py --trace 1)."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _targets():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


@pytest.mark.parametrize("target", _targets(), ids=lambda t: f"{t[1]}.{t[2]}")
def test_trace_target_resolves(target):
    _layer, modname, attr, _short, _mode = target
    module = importlib.import_module(f"linpole.{modname}")
    if "." in attr:
        cls_name, meth = attr.split(".")
        # the tracer replaces the entry in the class's own __dict__
        assert meth in vars(getattr(module, cls_name)), attr
    else:
        assert callable(getattr(module, attr)), attr
