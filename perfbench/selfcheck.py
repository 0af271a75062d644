#!/usr/bin/env python3
"""Self-checks of the benchmark itself (not of dirlang).

    python3 perfbench/selfcheck.py

Checks that BENCHMARK.json is well formed, that the generators are
deterministic per seed, that span self-time arithmetic is right, that the
reference checks reject wrong answers, and that a short run prints exactly
the metric names BENCHMARK.json lists.  Exits non-zero on the first failure.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import re
import subprocess
import sys
import warnings

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

import reference  # noqa: E402  (siblings of this script)
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}$")


class CheckFailed(Exception):
    pass


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def check_spec() -> None:
    spec = run.read_spec()
    expect(set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}, "BENCHMARK.json keys")
    expect(sorted(w["name"] for w in spec["workloads"])
           == sorted(workloads.GENERATORS), "workloads match the generators")
    names = [m["name"] for group in ("workloads", "end_to_end", "per_layer")
             for m in spec[group]]
    expect(len(names) == len(set(names)), "every name is used once")
    expect(all(NAME.match(n) for n in names), "names are well formed")
    for m in spec["end_to_end"] + spec["per_layer"]:
        expect(UNIT.match(m["unit"]) is not None, f"unit of {m['name']}")
        expect(m["better"] in ("higher", "lower"), f"better of {m['name']}")
    for m in spec["end_to_end"]:
        expect(set(m) == {"name", "unit", "better", "bound"}, f"keys of {m['name']}")
        expect(0 < m["bound"] <= 0.25, f"bound of {m['name']}")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    expect(bool(setup) and setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"]),
           "setup_s has the largest bound")


def take(generate, seed: int, count: int = 40) -> list:
    return list(itertools.islice(generate(seed), count))


def check_generators() -> None:
    for name, generate in workloads.GENERATORS.items():
        first, again = take(generate, 7), take(generate, 7)
        expect([q.texts for q in first] == [q.texts for q in again]
               and [q.expect for q in first] == [q.expect for q in again],
               f"{name} is deterministic per seed")
        other = take(generate, 8)
        expect([q.texts for q in first] != [q.texts for q in other],
               f"{name} depends on the seed")
        expect(len({q.qid for q in first}) == 40, f"{name} query ids are distinct")


def check_self_times() -> None:
    # parent 0..10 with children 1..3 and 2..5 (overlapping) and 7..8; the
    # first child has a grandchild 1.5..2.5.
    spans = [(0, 0.0, 10.0, -1, 0), (1, 1.0, 3.0, 0, 0), (1, 2.0, 5.0, 0, 0),
             (1, 7.0, 8.0, 0, 0), (2, 1.5, 2.5, 1, 0)]
    got = tracing.self_times(spans)
    want = [10 - 4 - 1, 2 - 1, 3, 1, 1]
    expect(all(abs(g - w) < 1e-12 for g, w in zip(got, want)),
           f"self times {got}, expected {want}")


def check_inclusion_against_oracle(lib) -> None:
    """The greedy atom embedding agrees with the oracle's membership test
    on a long word of the smaller ideal."""
    rng = random.Random(5)
    letters = ("a", "b", "c")

    def rep():
        return tuple(("?", rng.choice(letters)) if rng.random() < 0.5 else
                     ("*", tuple(sorted(rng.sample(letters, rng.randint(1, 3)))))
                     for _ in range(rng.randint(0, 5)))

    for _ in range(2000):
        sub, sup = rep(), rep()
        word = reference.char_word(sub, len(sup) + 1)
        oracle = lib.oracle.ideal_member_dp(word, reference.lib_rep(lib, sup))
        expect(reference.rep_included(sub, sup) == oracle,
               f"inclusion of {sub} in {sup}")


def check_references_reject(lib) -> None:
    """A right answer passes; a spoiled copy of it is caught."""
    pools = {name: take(generate, 3, 16) for name, generate in workloads.GENERATORS.items()}
    spoiled_any = dict.fromkeys(pools, False)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for name, pool in pools.items():
            for q in pool:
                answer = run.queries.run_query(lib, q)
                expect(reference.check(lib, q, answer) == [],
                       f"{name} query {q.qid} ({q.label}) passes")
                for bad in spoil(lib, answer.result):
                    answer.result = bad
                    expect(reference.check(lib, q, answer) != [],
                           f"{name} query {q.qid} ({q.label}): a spoiled "
                           "answer is caught")
                    spoiled_any[name] = True
    expect(all(spoiled_any.values()), "every workload had answers to spoil")


def spoil(lib, result) -> list:
    """Wrong variants of a right answer."""
    if isinstance(result, int):
        return [result + 1]
    if isinstance(result, list):
        return [result[:-1]] if result else []
    if hasattr(result, "probabilistic"):  # an SlpEqual
        return [type(result)(not result.equal, False)]
    verdict = result
    bad = [type(verdict)(not verdict.directed, verdict.candidate, verdict.witness)]
    if verdict.witness:
        # the empty word lies in every ideal, so it is never a witness
        bad.append(type(verdict)(verdict.directed, verdict.candidate, ()))
    return bad


def check_printed_names() -> None:
    spec = run.read_spec()
    for trace, group in ((0, "end_to_end"), (1, "per_layer")):
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             "nfa_decompose", "--seed", "1", "--seconds", "1", "--trace",
             str(trace)], capture_output=True, text=True, cwd=ROOT, timeout=180)
        expect(out.returncode == 0, f"run exits 0 with --trace {trace}")
        result = json.loads(out.stdout.strip().splitlines()[-1])
        expect(set(result) == {"correct", "attempted", "failed", "metrics"},
               "result keys")
        expect(list(result["metrics"]) == [m["name"] for m in spec[group]],
               f"--trace {trace} prints the {group} metrics of BENCHMARK.json")
        expect(all(result["metrics"][m["name"]]["unit"] == m["unit"]
                   for m in spec[group]), "units match")


def main() -> int:
    lib = run.load_library()
    checks = [("BENCHMARK.json", check_spec),
              ("generators", check_generators),
              ("span self times", check_self_times),
              ("inclusion vs oracle", lambda: check_inclusion_against_oracle(lib)),
              ("references reject wrong answers", lambda: check_references_reject(lib)),
              ("printed metric names", check_printed_names)]
    for name, fn in checks:
        try:
            fn()
        except CheckFailed as exc:
            print(f"FAIL {name}: {exc}")
            return 1
        print(f"ok   {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
