"""The benchmark's tracer wraps congaps functions by name and reads their
arguments by parameter name, and its workloads run congaps with fixed
argv; a rename on either side would make traced runs fail or count
nothing, and a dropped flag would fail every run of a workload. This
checks both contracts against perfbench/tracing.py and
perfbench/workloads.py as they stand."""

import importlib
import importlib.util
import inspect
import os
import sys
from pathlib import Path
from unittest import mock

import pytest

from congaps import census, cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_bench(name):
    """perfbench/<name>.py loaded by path, with perfbench/ on sys.path while
    it runs for its own sibling imports (workloads imports checks), and
    registered in sys.modules, where dataclasses look up its annotations."""
    spec = importlib.util.spec_from_file_location(
        f"congaps_bench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    sys.path.insert(0, str(PERFBENCH))
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(PERFBENCH))
    return module


def resolve(module: str, qualname: str):
    owner = importlib.import_module(f"congaps.{module}")
    for part in qualname.split("."):
        owner = getattr(owner, part)
    return owner


TRACING = load_bench("tracing")
TRACED = TRACING.TRACED


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


def test_pair_counters_read_a_census_without_pairs(windows5):
    # the census builds only the sample pairs; a traced run counts them
    res = census.find_congruent_pairs(10**5, 3, 2, 2.0, windows5)
    assert TRACING._pairs_seen({}, res) == {
        "census.pairs_found": 1710, "census.pairs_materialised": 100}
    (to_dict_counter,) = [e[4] for e in TRACED if e[:2] == ("census", "CensusResult.to_dict")]
    assert to_dict_counter({}, res.to_dict()) == {"census.pairs_emitted": 100}


WORKLOADS = load_bench("workloads")


@pytest.mark.parametrize("name", sorted(WORKLOADS.WORKLOADS))
@pytest.mark.parametrize("seed", range(1, 11))
def test_workload_argv_parses(name, seed):
    parser = cli.build_parser()
    for op in WORKLOADS.build(name, seed).ops:
        parser.parse_args(list(op.argv))  # exits with 2 on an unknown flag
