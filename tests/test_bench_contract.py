"""The benchmark's tracer wraps congaps functions by name and reads their
arguments by parameter name; a rename on either side would make traced
runs fail or count nothing. This checks that contract against
perfbench/tracing.py as it stands, without importing anything else from
the benchmark."""

import importlib
import importlib.util
import inspect
import os
from pathlib import Path
from unittest import mock

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("congaps_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def resolve(module: str, qualname: str):
    owner = importlib.import_module(f"congaps.{module}")
    for part in qualname.split("."):
        owner = getattr(owner, part)
    return owner


TRACED = load_tracing().TRACED


@pytest.mark.parametrize("entry", TRACED, ids=[f"{m}.{q}" for m, q, *_ in TRACED])
def test_traced_function_resolves(entry):
    module, qualname, *_ = entry
    assert callable(resolve(module, qualname))


@pytest.mark.parametrize(
    "entry", [e for e in TRACED if e[4]], ids=[f"{m}.{q}" for m, q, *_, c in TRACED if c]
)
def test_counter_reads_only_real_parameters(entry, monkeypatch):
    module, qualname, *_, counter = entry
    params = inspect.signature(resolve(module, qualname)).parameters
    # a counter reading a parameter the function lacks raises KeyError here
    bound = {name: mock.MagicMock() for name in params}
    monkeypatch.setattr(os.path, "getsize", lambda path: 0)
    assert isinstance(counter(bound, mock.MagicMock()), dict)
