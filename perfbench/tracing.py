"""Traced congaps invocations and the per-layer metrics taken from them.

Run as a script, this is one traced invocation in a fresh interpreter:

    PYTHONPATH=src python perfbench/tracing.py SPANS.json constants --q 7

It imports congaps.cli (timing the import), replaces every module binding
of each function in TRACED with a wrapper that records a span, calls
congaps.cli.main(argv) and writes the spans to SPANS.json on exit. The
program itself is not changed and counts nothing: every count below comes
from the arguments and return values seen at a wrapper.

Imported, it turns span files into per-layer metrics (per_layer_metrics).
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import resource
import sys
import time


def _rss_kib() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _pairs_seen(b, r):
    return {"census.pairs_found": r.pair_count,
            "census.pairs_materialised": len(r.pairs or ())}


# (module, function, self-time metric, call-count metric, counts taken
# from the bound arguments b and the return value r). A function with no
# metric of its own is still a span, so its time is not charged to its caller.
TRACED = (
    ("cli", "main", "cli.main_self_s", None, None),
    ("primes", "sieve_primes", "primes.sieve_s", "primes.sieve_calls",
     lambda b, r: {"primes.primes_sieved": int(r.primes.size), "limit": b["limit"]}),
    ("primes", "PrimeTable.residue_class", "primes.residue_class_s", None, None),
    ("primes", "build_spf", "primes.build_spf_s", None, None),
    ("primes", "load_cache", "primes.cache_load_s", None,
     lambda b, r: {"primes.cache_bytes_read": os.path.getsize(b["path"])}),
    ("primes", "save_cache", "primes.cache_save_s", None,
     lambda b, r: {"primes.cache_bytes_written": os.path.getsize(r)}),
    ("characters", "build_character_table", "characters.table_s",
     "characters.tables_built",
     lambda b, r: {"characters.characters_built": len(r.characters)}),
    ("constants", "l_one", "constants.l_one_s", "constants.l_one_calls", None),
    ("constants", "theta_at_one", "constants.theta_s", "constants.theta_calls", None),
    ("constants", "c_of_q", "constants.c_of_q_s", "constants.c_of_q_calls", None),
    ("constants", "constants_bundle", "constants.bundle_s", "constants.bundle_calls", None),
    ("asymptotics", "mertens_ap_product", "asymptotics.mertens_product_s", None, None),
    ("asymptotics", "lemma33_prediction", "asymptotics.lemma33_prediction_s", None, None),
    ("asymptotics", "count_restricted", "asymptotics.count_restricted_s", None,
     lambda b, r: {"asymptotics.restricted_members": r}),
    ("shiu", "build_construction", "shiu.construction_s", None, None),
    ("shiu", "compute_S_T", "shiu.s_t_split_s", None,
     lambda b, r: {"shiu.residues_scanned": b["c"].H}),
    ("census", "find_congruent_pairs", "census.find_pairs_s", None, _pairs_seen),
    ("census", "CensusResult.to_dict", None, None,
     lambda b, r: {"census.pairs_emitted": len(r["sample_pairs"])}),
    ("contour", "perron_check", "contour.perron_s", "contour.perron_calls", None),
    ("contour", "hankel_main", "contour.hankel_s", None, None),
    ("contour", "residue_circle", "contour.residue_circle_s", None, None),
    ("suite", "run_suite", "suite.run_suite_self_s", None,
     lambda b, r: {"suite.checks_run": len(r)}),
)

RSS_LAYERS = ("primes", "characters", "census")  # layers with an rss_growth_mb metric

# Every per-layer metric with its unit, in BENCHMARK.json order.
PER_LAYER = {
    "cli.import_s": "s", "cli.main_self_s": "s",
    "primes.sieve_s": "s", "primes.sieve_calls": "count",
    "primes.primes_sieved": "count", "primes.residue_class_s": "s",
    "primes.build_spf_s": "s", "primes.cache_load_s": "s",
    "primes.cache_bytes_read": "B", "primes.cache_save_s": "s",
    "primes.cache_bytes_written": "B", "primes.rss_growth_mb": "MB",
    "characters.table_s": "s", "characters.tables_built": "count",
    "characters.characters_built": "count", "characters.rss_growth_mb": "MB",
    "constants.l_one_s": "s", "constants.l_one_calls": "count",
    "constants.theta_s": "s", "constants.theta_calls": "count",
    "constants.c_of_q_s": "s", "constants.c_of_q_calls": "count",
    "constants.bundle_s": "s", "constants.bundle_calls": "count",
    "asymptotics.mertens_product_s": "s", "asymptotics.lemma33_prediction_s": "s",
    "asymptotics.count_restricted_s": "s", "asymptotics.restricted_members": "count",
    "shiu.construction_s": "s", "shiu.s_t_split_s": "s", "shiu.residues_scanned": "count",
    "census.find_pairs_s": "s", "census.pairs_found": "count",
    "census.pairs_materialised": "count", "census.pairs_emitted": "count",
    "census.pairs_emitted_per_materialised": "ratio", "census.rss_growth_mb": "MB",
    "contour.perron_s": "s", "contour.perron_calls": "count",
    "contour.hankel_s": "s", "contour.residue_circle_s": "s",
    "suite.run_suite_self_s": "s", "suite.checks_run": "count",
}


# --- child side ---------------------------------------------------------


class Recorder:
    """Spans of one invocation, kept in memory: [function index, start,
    end, parent span index or -1, ru_maxrss at start and end (KiB), counts]."""

    def __init__(self):
        self.spans: list = []
        self._open: list[int] = []

    def wrap(self, index: int, fn, counter):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = len(self.spans)
            self.spans.append(None)
            parent = self._open[-1] if self._open else -1
            self._open.append(span)
            rss0, start = _rss_kib(), time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._open.pop()
                self.spans[span] = [index, start, end, parent, rss0, _rss_kib(), {}]
            if counter:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                self.spans[span][6] = counter(bound.arguments, result)
            return result

        return traced


def install(recorder: Recorder) -> None:
    """Swap every binding of each TRACED function, in every congaps
    module, for its wrapper."""
    modules = [m for name, m in sys.modules.items()
               if m is not None and (name == "congaps" or name.startswith("congaps."))]
    for index, (module, qualname, _, _, counter) in enumerate(TRACED):
        owner = sys.modules[f"congaps.{module}"]
        *cls, name = qualname.split(".")
        if cls:  # a method: its class is its one binding
            klass = getattr(owner, cls[0])
            setattr(klass, name, recorder.wrap(index, getattr(klass, name), counter))
            continue
        original = getattr(owner, name)
        wrapper = recorder.wrap(index, original, counter)
        for m in modules:
            for attr, value in list(vars(m).items()):
                if value is original:
                    setattr(m, attr, wrapper)


def _child(spans_path: str, argv: list[str]) -> int:
    start = time.perf_counter()
    import congaps.cli

    import_s = time.perf_counter() - start
    recorder = Recorder()
    install(recorder)
    try:
        return congaps.cli.main(argv)
    finally:
        with open(spans_path, "w") as fh:
            json.dump({"import_s": import_s, "spans": recorder.spans}, fh)


# --- parent side --------------------------------------------------------


def per_layer_metrics(invocations: list[dict]) -> dict[str, float]:
    """Sum each per-layer metric over the span files of one workload round.

    A time metric is the self time of the function's spans: a span's
    duration less the time its child spans cover.
    """
    totals = {name: 0 if unit in ("count", "B") else 0.0 for name, unit in PER_LAYER.items()}
    for inv in invocations:
        totals["cli.import_s"] += inv["import_s"]
        spans = inv["spans"]
        child_time = [0.0] * len(spans)
        for fn, start, end, parent, *_ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        for k, (fn, start, end, parent, rss0, rss1, counts) in enumerate(spans):
            module, _, time_metric, calls_metric, _ = TRACED[fn]
            if time_metric:
                totals[time_metric] += end - start - child_time[k]
            if calls_metric:
                totals[calls_metric] += 1
            for key, value in counts.items():
                if key in totals:
                    totals[key] += value
            if module in RSS_LAYERS and not _inside_layer(spans, parent, module):
                totals[f"{module}.rss_growth_mb"] += (rss1 - rss0) / 1024.0
    materialised = totals["census.pairs_materialised"]
    totals["census.pairs_emitted_per_materialised"] = (
        totals["census.pairs_emitted"] / materialised if materialised else 0.0)
    return totals


def _inside_layer(spans: list, parent: int, module: str) -> bool:
    while parent >= 0:
        if TRACED[spans[parent][0]][0] == module:
            return True
        parent = spans[parent][3]
    return False


def sieved_tables(invocations: list[dict]) -> list[tuple[int, int]]:
    """(limit, number of primes) of every table sieve_primes returned."""
    return [(s[6]["limit"], s[6]["primes.primes_sieved"])
            for inv in invocations for s in inv["spans"]
            if TRACED[s[0]][1] == "sieve_primes" and s[6]]


if __name__ == "__main__":
    sys.exit(_child(sys.argv[1], sys.argv[2:]))
