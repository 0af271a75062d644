#!/usr/bin/env python3
"""The dirlang benchmark: one workload, one seed, one closed-loop client.

    python3 perfbench/run.py --workload nfa_dag --seed 1 --seconds 20 --trace 0

Run from the repository root.  It imports the package from ``src/``, draws
the workload's queries from the seed, and answers them one after another in
this single thread until ``--seconds`` seconds of query time are spent, each
from input text to formatted answer.  Every answer is then checked against
the references in ``reference.py``.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json;
with ``--trace 1`` the queries run with the public functions of the
package's layer modules wrapped (see ``tracing.py``), the metrics are the
per-layer ones, and the spans go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import itertools
import json
import math
import os
import resource
import statistics
import sys
import time
import types
import warnings

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

import queries  # noqa: E402  (siblings of this script)
import reference  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# Set-up (import and warm-up) runs this often; setup_s is the median.
SETUP_REPEATS = 5
# Warm-up queries come from a fixed seed, so set-up does not vary with --seed.
WARMUP_SEED = 0
WARMUP_QUERIES = 2
# The measured query time is cut into this many equal windows; throughput
# and median latency are medians over the windows, so one slow spell of a
# shared machine moves them less.
WINDOWS = 5


class BenchError(Exception):
    """The benchmark cannot run here (no package, unknown metric)."""


def load_library() -> types.SimpleNamespace:
    """Import (or import afresh) the package from ``src/`` of this checkout."""
    if not os.path.isfile(os.path.join(SRC, "dirlang", "__init__.py")):
        raise BenchError(f"no dirlang package under {SRC}")
    if sys.path[0] != SRC:
        sys.path.insert(0, SRC)
    for name in [m for m in sys.modules if m == "dirlang" or m.startswith("dirlang.")]:
        del sys.modules[name]
    mods = {name: importlib.import_module(f"dirlang.{name}")
            for name in tracing.LAYERS + ("oracle", "errors")}
    for mod in mods.values():
        if not os.path.abspath(mod.__file__).startswith(SRC + os.sep):
            raise BenchError(f"{mod.__name__} imported from {mod.__file__}, "
                             f"not from {SRC}")
    return types.SimpleNamespace(**mods)


def setup_once(workload: str):
    start = time.perf_counter()
    lib = load_library()
    warmup = workloads.GENERATORS[workload](WARMUP_SEED)
    for q in itertools.islice(warmup, WARMUP_QUERIES):
        timed_query(lib, q)
    return time.perf_counter() - start, lib


class Sample:
    __slots__ = ("query", "seconds", "answer", "error", "pruned", "window")

    def __init__(self, query, seconds, answer, error, pruned):
        self.query, self.seconds, self.answer = query, seconds, answer
        self.error, self.pruned = error, pruned
        self.window = 0


def timed_query(lib, q, tracer=None, query_id: int = 0) -> Sample:
    """Answer one query; an exception is recorded, never raised.  The
    per-query RuntimeWarning of ``automata.validate`` is counted, not
    printed."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        span = tracer.begin_query(query_id) if tracer else None
        start = time.perf_counter()
        try:
            answer, error = queries.run_query(lib, q), None
        except Exception as exc:  # recorded with its type; the run goes on
            answer, error = None, exc
        seconds = time.perf_counter() - start
        if tracer:
            tracer.end_query(span)
    pruned = sum(1 for w in caught if issubclass(w.category, RuntimeWarning)
                 and "unreachable" in str(w.message))
    return Sample(q, seconds, answer, error, pruned)


def measure(lib, stream, seconds: float, tracer=None) -> list:
    """Closed loop: answer queries from the stream until ``seconds`` of
    query time are spent.  Drawing the next input is not timed, nor is the
    collection of the previous query's garbage, so every query starts from
    the same heap, as it would in a fresh CLI process."""
    samples = []
    spent = 0.0
    while spent < seconds:
        q = next(stream)
        gc.collect()
        s = timed_query(lib, q, tracer, len(samples))
        s.window = min(WINDOWS - 1, int(spent * WINDOWS / seconds))
        spent += s.seconds
        samples.append(s)
    return samples


def check_samples(lib, samples) -> list:
    """Check each answer against the references; a query seen before must
    print the same lines.  Returns one problem string per wrong answer."""
    wrong = []
    first: dict = {}
    for s in samples:
        if s.answer is None:
            continue
        q = s.query
        key = (q.kind, q.texts, q.expand_cap)
        if key in first:
            if s.answer.lines != first[key]:
                wrong.append(f"query {q.qid} ({q.label}): output changed on repeat")
            continue
        first[key] = s.answer.lines
        try:
            problems = reference.check(lib, q, s.answer)
        except Exception as exc:  # a reference that cannot confirm the answer
            problems = [f"reference check raised {type(exc).__name__}: {exc}"]
        if problems:
            wrong.append(f"query {q.qid} ({q.label}): " + "; ".join(problems))
    return wrong


def percentile(values, share: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


# ------------------------------------------------------------------ metrics


def end_to_end(name: str, samples, setup_s: float, peak_rss_kb: int) -> float:
    windows = [[s.seconds for s in samples if s.window == w] for w in range(WINDOWS)]
    windows = [w for w in windows if w]
    if name == "throughput_qps":  # one client: queries per second of query time
        return statistics.median(len(w) / sum(w) for w in windows)
    if name == "latency_p50_ms":
        return 1000 * statistics.median(statistics.median(w) for w in windows)
    if name == "latency_p90_ms":
        return 1000 * percentile([s.seconds for s in samples], 0.9)
    if name == "setup_s":
        return setup_s
    if name == "peak_rss_mb":
        return peak_rss_kb / 1024
    raise BenchError(f"no end-to-end metric named {name!r}")


def is_compressed(q, answer, default_cap: int) -> bool:
    """Did a directed-CFG query take the compressed inclusion route?"""
    verdict = answer.result
    if verdict.candidate is None:
        return False
    cap = default_cap if q.expand_cap is None else q.expand_cap
    return reference.slp_length(verdict.candidate) > cap


class LayerStats:
    """Per-layer numbers from one traced run.  ``untraced`` holds the time
    of a prefix of the samples answered again without tracing; ``routes``
    the untraced times of ``workloads.route_pairs``."""

    def __init__(self, tracer, samples, untraced, probes, routes, expand_cap):
        self.queries = max(1, len(samples))
        self.expand_cap = expand_cap
        self.self_s: dict = {}
        self.total_s: dict = {}
        self.calls: dict = {}
        self.query_s = 0.0
        for span, own in zip(tracer.spans, tracing.self_times(tracer.spans)):
            name = tracer.names[span[0]]
            if name == "query":
                self.query_s += span[2] - span[1]
                continue
            self.self_s[name] = self.self_s.get(name, 0.0) + own
            self.total_s[name] = self.total_s.get(name, 0.0) + span[2] - span[1]
            self.calls[name] = self.calls.get(name, 0) + 1
        self.sizes = tracer.sizes
        self.samples = samples
        self.untraced = untraced
        self.probes = probes
        self.routes = routes

    def size_total(self, fn: str, what: str) -> int:
        return self.sizes.get((fn, what), (0, 0))[0]

    def value(self, name: str) -> float:
        head, _, tail = name.rpartition(".")
        answered = [s for s in self.samples if s.answer is not None]
        if name == "trace.overhead_ratio":
            replayed = self.samples[:len(self.untraced)]
            return sum(s.seconds for s in replayed) / sum(self.untraced)
        if tail == "share":
            own = sum(t for fn, t in self.self_s.items() if fn.startswith(head + "."))
            return own / self.query_s
        if name == "decision.maximal_ideals.kept_ratio":
            tried = self.size_total("automata.enumerate_path_ideals", "out_reps")
            kept = self.size_total("decision.maximal_ideals", "out_reps")
            return kept / tried if tried else 0.0
        if name == "decision.route_compressed_ratio":
            cfg = [s for s in answered if s.query.kind == "cfg_directed"]
            hits = sum(is_compressed(s.query, s.answer, self.expand_cap) for s in cfg)
            return hits / len(cfg) if cfg else 0.0
        if name == "decision.compressed_over_expanded":
            if not self.routes:
                return 0.0
            return (sum(c for _, c in self.routes) / sum(e for e, _ in self.routes))
        if name == "decision.witness_ratio":
            negative = [s.answer.result for s in answered
                        if s.query.kind.endswith("directed")
                        and not s.answer.result.directed]
            with_witness = sum(v.witness is not None for v in negative)
            return with_witness / len(negative) if negative else 0.0
        if name == "automata.validate.pruned_warnings":
            return sum(s.pruned for s in self.samples) / self.queries
        if name == "decision.cap_probe_failures":
            return sum(1 for p in self.probes if p.error is not None)
        if name == "decision.cap_probe_s":
            return (statistics.mean(p.seconds for p in self.probes)
                    if self.probes else 0.0)
        if tail == "self_s":
            return self.self_s.get(head, 0.0) / self.queries
        if tail == "total_s":  # span time including the children
            return self.total_s.get(head, 0.0) / self.queries
        if tail == "calls":
            return self.calls.get(head, 0) / self.queries
        if tail.startswith("out_"):  # mean output size per call
            total, count = self.sizes.get((head, tail), (0, 0))
            return total / count if count else 0.0
        raise BenchError(f"no per-layer metric named {name!r}")

    def report(self) -> None:
        print("top self time per query:")
        for fn, own in sorted(self.self_s.items(), key=lambda kv: -kv[1])[:10]:
            print(f"  {fn:40s} {1000 * own / self.queries:9.3f} ms "
                  f"{own / self.query_s:6.1%} {self.calls[fn] / self.queries:9.1f} calls")
        for p in self.probes:
            print(f"cap probe {p.query.label}: "
                  f"{type(p.error).__name__ if p.error else 'answered'} "
                  f"after {p.seconds:.3f} s")


def read_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


# --------------------------------------------------------------------- main


def traced_run(lib, workload: str, seed: int, seconds: float, spec: dict):
    tracer = tracing.Tracer()
    tracer.install(lib)
    t0 = time.perf_counter()
    try:
        samples = measure(lib, workloads.GENERATORS[workload](seed), seconds, tracer)
    finally:
        tracer.remove()
    gc.collect()
    gc.freeze()  # keep the collector off the spans while timing the replay
    # the first quarter of the traced query time, again without tracing
    replayed, spent = [], 0.0
    for s in samples:
        if spent >= seconds / 4:
            break
        gc.collect()
        replayed.append(timed_query(lib, s.query))
        spent += s.seconds
    untraced = [r.seconds for r in replayed]
    probes, routes = [], []
    if workload == "cfg_doubling":
        probes = [timed_query(lib, q) for q in workloads.cap_probes()]
        routes = [tuple(statistics.median(timed_query(lib, q).seconds
                                          for _ in range(3)) for q in pair)
                  for pair in workloads.route_pairs()]
    stats = LayerStats(tracer, samples, untraced, probes, routes,
                       lib.decision.CFG_EXPAND_CAP)
    metrics = {m["name"]: {"value": stats.value(m["name"]), "unit": m["unit"]}
               for m in spec["per_layer"]}
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    span_file = os.path.join(out_dir, f"spans-{workload}-{seed}.tsv.gz")
    tracer.write(span_file, t0)
    print(f"spans: {len(tracer.spans)} written to {os.path.relpath(span_file, ROOT)}")
    stats.report()
    # to be checked too: a replayed answer must print the traced one's lines
    return samples, metrics, replayed + [p for p in probes if p.error is None]


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    spec = read_spec()
    setups = [setup_once(workload) for _ in range(SETUP_REPEATS)]
    setup_s = statistics.median(t for t, _ in setups)
    lib = setups[-1][1]
    del setups
    # The modules are the benchmark's state, not a query's: keep the
    # collector from walking them during the timed queries.
    gc.collect()
    gc.freeze()

    if trace:
        samples, metrics, extra = traced_run(lib, workload, seed, seconds, spec)
    else:
        samples = measure(lib, workloads.GENERATORS[workload](seed), seconds)
        peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {m["name"]: {"value": end_to_end(m["name"], samples, setup_s,
                                                   peak_rss_kb),
                               "unit": m["unit"]}
                   for m in spec["end_to_end"]}
        extra = []
    check_start = time.perf_counter()
    wrong = check_samples(lib, samples + extra)

    failures: dict = {}
    for s in samples:
        if s.error is not None:
            kind = type(s.error).__name__
            failures[kind] = failures.get(kind, 0) + 1
    print(f"workload {workload} seed {seed}: {len(samples)} queries in "
          f"{sum(s.seconds for s in samples):.2f} s of query time, one "
          f"closed-loop client; {len(samples) // 10} samples above p90")
    print("failures by type: " + (json.dumps(failures) if failures else "none"))
    print(f"pruned-state warnings: {sum(s.pruned for s in samples)}")
    print(f"wrong answers: {len(wrong)} (checks took "
          f"{time.perf_counter() - check_start:.1f} s)")
    for line in wrong[:20]:
        print("  " + line)
    return {"correct": not wrong, "attempted": len(samples),
            "failed": sum(failures.values()), "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
