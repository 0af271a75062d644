"""Command-line front end: one query per invocation, deterministic output.

Exit codes: 0 the query was answered (yes, where boolean), 1 answered "no"
(not directed / not included / not equal), 2 usage or parse error, 3 a
resource cap was exceeded, 4 an internal error (a bug, reported on one
stderr line without a traceback).  ``--json`` emits a single record with
fixed fields; ``millis`` is the only field that varies between identical
runs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from dirlang import automata, decision, grammars, ideals, oracle, slp
from dirlang.errors import ResourceCapExceeded

CAP_STATES_DEFAULT = 10_000_000
# atoms; a candidate value at most this long is printed as a plain rep
REP_PRINT_MAX = 100


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _load_nfa(path: str) -> automata.Nfa:
    return automata.validate(automata.parse_nfa(_read(path)))


def _load_cfg(path: str) -> grammars.Cfg:
    return grammars.parse_cfg(_read(path))


def _load_ideal(arg: str):
    """An ideal argument: a file (SLP text if it has a start line, else a
    rep) or an inline rep such as '{a,b}* c? {a,b}*'."""
    if os.path.exists(arg):
        text = _read(arg)
        if any(line.strip().startswith("start:") for line in text.splitlines()):
            program = slp.parse_slp(text)
            plain = [t for t in program.terminals
                     if not isinstance(t, (ideals.Single, ideals.AlphabetStar))]
            if plain:
                raise ValueError(
                    f"the ideal program must be over atoms; {plain[0]!r} is a letter")
            return program
        return ideals.parse_rep(text)
    return ideals.parse_rep(arg)


def _candidate_text(candidate) -> str | None:
    """Candidate rendered as rep text when small, SLP text otherwise."""
    if candidate is None:
        return None
    if isinstance(candidate, tuple):
        return ideals.format_rep(candidate)
    if slp.val_length(candidate) <= REP_PRINT_MAX:
        return ideals.format_rep(tuple(slp.iter_val(candidate)))
    return slp.format_slp(candidate)


def _guard_states(n: int, cap: int) -> None:
    if n > cap:
        raise ResourceCapExceeded(f"construction needs {n} states, over the cap {cap}")


def _run_directed(args) -> tuple:
    if args.kind == "nfa":
        a = _load_nfa(args.file)
        verdict = decision.nfa_directed(a, want_witness=not args.no_witness)
    else:
        g = _load_cfg(args.file)
        verdict = decision.cfg_directed(g, want_witness=not args.no_witness,
                                        expand_cap=args.cap_expand)
    lines = ["directed" + (" (empty language)" if verdict.empty else "")
             if verdict.directed else "not directed"]
    cand = _candidate_text(verdict.candidate)
    if cand is not None:
        lines.append(f"candidate: {cand}")
    if verdict.witness is not None:
        lines.append(f"witness: {ideals.format_word(verdict.witness)}")
    record = {"directed": verdict.directed, "candidate": cand,
              "witness": None if verdict.witness is None
              else ideals.format_word(verdict.witness)}
    return lines, record, 0 if verdict.directed else 1


def _run_candidate(args) -> tuple:
    if args.kind == "nfa":
        candidate = decision.nfa_candidate_ideal(_load_nfa(args.file))
    else:
        g = _load_cfg(args.file)
        if decision._cfg_is_empty(g):
            raise ValueError("the grammar derives nothing; no candidate ideal")
        candidate = decision.cfg_candidate_ideal(g)
    text = _candidate_text(candidate)
    return [text], {"directed": None, "candidate": text, "witness": None}, 0


def _run_include(args) -> tuple:
    ideal = _load_ideal(args.ideal)
    if args.kind == "nfa":
        a = _load_nfa(args.file)
        rep = tuple(slp.expand(ideal, cap=args.cap_expand)) \
            if not isinstance(ideal, tuple) else ideal
        _guard_states(a.n_states * (len(rep) + 2), args.cap_states)
        inc = decision.nfa_included_in_ideal(a, rep,
                                             want_witness=not args.no_witness)
    else:
        g = _load_cfg(args.file)
        compressed = ideal if not isinstance(ideal, tuple) else slp.slp_of_word(ideal)
        inc = decision.cfg_included_in_ideal(g, compressed,
                                             want_witness=not args.no_witness,
                                             expand_cap=args.cap_expand)
    lines = ["included" if inc.included else "not included"]
    if inc.witness is not None:
        lines.append(f"witness: {ideals.format_word(inc.witness)}")
    record = {"directed": inc.included, "candidate": None,
              "witness": None if inc.witness is None
              else ideals.format_word(inc.witness)}
    return lines, record, 0 if inc.included else 1


def _run_dce(args) -> tuple:
    if args.kind == "nfa":
        equal = decision.dce_directed_nfa(_load_nfa(args.file), _load_nfa(args.file2),
                                          assume_directed=args.assume_directed)
        probabilistic = False
    else:
        got = decision.dce_directed_cfg(_load_cfg(args.file), _load_cfg(args.file2),
                                        assume_directed=args.assume_directed)
        equal, probabilistic = got.equal, got.probabilistic
    text = "equal" if equal else "not equal"
    if probabilistic:
        text += " (probabilistic)"
    record = {"directed": equal, "candidate": None, "witness": None,
              "probabilistic": probabilistic}
    return [text], record, 0 if equal else 1


def _run_count(args) -> tuple:
    count = decision.count_maximal_ideals(_load_nfa(args.file), cap=args.cap_enum)
    return [str(count)], {"directed": None, "candidate": count, "witness": None}, 0


def _run_decompose(args) -> tuple:
    reps = decision.maximal_ideals(_load_nfa(args.file), cap=args.cap_enum)
    lines = [ideals.format_rep(r) for r in reps]
    return lines, {"directed": None, "candidate": lines, "witness": None}, 0


def _run_complement(args) -> tuple:
    b = slp.parse_slp(_read(args.file))
    comp = slp.complement_ideal(b, b.terminals)
    text = _candidate_text(comp)
    return [text], {"directed": None, "candidate": text, "witness": None}, 0


def _run_reduce(args) -> tuple:
    rep = ideals.reduce_rep(ideals.parse_rep(" ".join(args.rep)))
    text = ideals.format_rep(rep)
    return [text], {"directed": None, "candidate": text, "witness": None}, 0


def _run_transform(args) -> tuple:
    a = _load_nfa(args.file)
    if args.transform == "pad-eps":
        out = automata.pad_epsilon(a)
    else:
        _guard_states(a.n_states * (len(a.transitions) + 1), args.cap_states)
        out = automata.determinize_preserving(automata.pad_epsilon(a)
                                              if any(x is None for (_, x, _)
                                                     in a.transitions) else a)
    text = automata.format_nfa(out)
    return [text.rstrip("\n")], {"directed": None, "candidate": text,
                                 "witness": None}, 0


def _run_oracle(args) -> tuple:
    a = _load_nfa(args.file)
    if args.oracle == "directed":
        got = oracle.directed_bruteforce(a, cap=args.cap_enum)
        return (["directed" if got else "not directed"],
                {"directed": got, "candidate": None, "witness": None},
                0 if got else 1)
    if args.oracle == "decompose":
        lines = [ideals.format_rep(r)
                 for r in oracle.decompose_bruteforce(a, cap=args.cap_enum)]
        return lines, {"directed": None, "candidate": lines, "witness": None}, 0
    words = sorted(oracle.dcl_words(a, args.bound),
                   key=lambda w: (len(w), w))
    lines = [ideals.format_word(w) for w in words]
    return lines, {"directed": None, "candidate": lines, "witness": None}, 0


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dirlang",
        description="directedness, ideal decompositions, and downward-closure "
                    "equivalence for regular and context-free languages")
    parser.add_argument("--json", action="store_true",
                        help="emit one machine-readable record")
    parser.add_argument("--no-witness", action="store_true",
                        help="skip witness search on negative verdicts")
    parser.add_argument("--assume-directed", action="store_true",
                        help="dce: trust that both inputs are directed")
    parser.add_argument("--cap-states", type=int, default=CAP_STATES_DEFAULT,
                        metavar="N", help="largest construction, in states "
                        f"(default {CAP_STATES_DEFAULT})")
    parser.add_argument("--cap-expand", type=int, default=decision.CFG_EXPAND_CAP,
                        metavar="N", help="largest compressed value expanded "
                        f"(default {decision.CFG_EXPAND_CAP})")
    parser.add_argument("--cap-enum", type=int,
                        default=automata.ENUMERATE_DEFAULT_CAP,
                        metavar="N", help="most enumerated paths "
                        f"(default {automata.ENUMERATE_DEFAULT_CAP})")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("directed", help="is the language directed?")
    p.add_argument("kind", choices=["nfa", "cfg"])
    p.add_argument("file")
    p.set_defaults(run=_run_directed)

    p = sub.add_parser("candidate", help="maximum-weight ideal of the closure")
    p.add_argument("kind", choices=["nfa", "cfg"])
    p.add_argument("file")
    p.set_defaults(run=_run_candidate)

    p = sub.add_parser("include", help="is the language inside an ideal?")
    p.add_argument("kind", choices=["nfa", "cfg"])
    p.add_argument("file")
    p.add_argument("--ideal", required=True, metavar="FILE_OR_REP",
                   help="ideal as a rep/SLP file or an inline rep")
    p.set_defaults(run=_run_include)

    p = sub.add_parser("dce", help="downward-closure equivalence (directed inputs)")
    p.add_argument("kind", choices=["nfa", "cfg"])
    p.add_argument("file")
    p.add_argument("file2")
    p.set_defaults(run=_run_dce)

    p = sub.add_parser("count-ideals", help="number of maximal ideals of the closure")
    p.add_argument("kind", choices=["nfa"])
    p.add_argument("file")
    p.set_defaults(run=_run_count)

    p = sub.add_parser("decompose", help="maximal ideals of the closure")
    p.add_argument("kind", choices=["nfa"])
    p.add_argument("file")
    p.set_defaults(run=_run_decompose)

    p = sub.add_parser("complement-ideal",
                       help="ideal missing exactly the program's value")
    p.add_argument("kind", choices=["slp"])
    p.add_argument("file")
    p.set_defaults(run=_run_complement)

    p = sub.add_parser("reduce", help="reduce an ideal representation")
    p.add_argument("rep", nargs="+", metavar="REP",
                   help="atoms such as '{a,b}*' 'c?', or 'eps'")
    p.set_defaults(run=_run_reduce)

    p = sub.add_parser("transform", help="directedness-preserving rewrites")
    p.add_argument("transform", choices=["pad-eps", "determinize"])
    p.add_argument("kind", choices=["nfa"])
    p.add_argument("file")
    p.set_defaults(run=_run_transform)

    p = sub.add_parser("oracle", help="independent brute-force reference answers")
    p.add_argument("oracle", choices=["directed", "decompose", "dcl"])
    p.add_argument("kind", choices=["nfa"])
    p.add_argument("file")
    p.add_argument("--bound", type=int, default=oracle.DCL_WORDS_DEFAULT_BOUND,
                   metavar="N", help="dcl: longest word listed "
                   f"(default {oracle.DCL_WORDS_DEFAULT_BOUND})")
    p.set_defaults(run=_run_oracle)
    return parser


def _input_of(args) -> str:
    if args.command == "reduce":
        return " ".join(args.rep)
    parts = [args.file]
    if getattr(args, "file2", None):
        parts.append(args.file2)
    if getattr(args, "ideal", None):
        parts.append(args.ideal)
    return " ".join(parts)


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    started = time.monotonic()
    try:
        lines, record, code = args.run(args)
    except ResourceCapExceeded as exc:
        print(f"resource cap exceeded: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a bug; never let it read as exit 1, "no"
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4
    if args.json:
        out = {"kind": args.command, "input": _input_of(args),
               "directed": record.get("directed"),
               "candidate": record.get("candidate"),
               "witness": record.get("witness"),
               "probabilistic": record.get("probabilistic", False),
               "millis": int((time.monotonic() - started) * 1000)}
        print(json.dumps(out))
    else:
        for line in lines:
            print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())
