"""One query from input text to formatted answer, through the same public
calls the ``dirlang`` CLI makes: ``parse_*`` -> ``decision.*`` -> ``format_*``.

``lib`` is the namespace returned by ``run.load_library``; it holds the
package modules by name, so a traced run sees the wrapped attributes.
"""

from __future__ import annotations

from dataclasses import dataclass

# A candidate value at most this long prints as a plain rep, as in the CLI.
REP_PRINT_MAX = 100


@dataclass
class Answer:
    lines: list  # the CLI's output lines
    result: object  # Verdict, list of reps, count or SlpEqual, for checking


def candidate_text(lib, candidate):
    if candidate is None:
        return None
    if isinstance(candidate, tuple):
        return lib.ideals.format_rep(candidate)
    if lib.slp.val_length(candidate) <= REP_PRINT_MAX:
        return lib.ideals.format_rep(tuple(lib.slp.iter_val(candidate)))
    return lib.slp.format_slp(candidate)


def verdict_lines(lib, verdict) -> list:
    lines = ["directed" + (" (empty language)" if verdict.empty else "")
             if verdict.directed else "not directed"]
    cand = candidate_text(lib, verdict.candidate)
    if cand is not None:
        lines.append(f"candidate: {cand}")
    if verdict.witness is not None:
        lines.append(f"witness: {lib.ideals.format_word(verdict.witness)}")
    return lines


def load_nfa(lib, text: str):
    return lib.automata.validate(lib.automata.parse_nfa(text))


def run_query(lib, q) -> Answer:
    if q.kind == "nfa_directed":
        verdict = lib.decision.nfa_directed(load_nfa(lib, q.texts[0]))
        return Answer(verdict_lines(lib, verdict), verdict)
    if q.kind == "nfa_decompose":
        reps = lib.decision.maximal_ideals(load_nfa(lib, q.texts[0]))
        return Answer([lib.ideals.format_rep(r) for r in reps], reps)
    if q.kind == "nfa_count":
        count = lib.decision.count_maximal_ideals(load_nfa(lib, q.texts[0]))
        return Answer([str(count)], count)
    if q.kind == "cfg_directed":
        g = lib.grammars.parse_cfg(q.texts[0])
        cap = lib.decision.CFG_EXPAND_CAP if q.expand_cap is None else q.expand_cap
        verdict = lib.decision.cfg_directed(g, expand_cap=cap)
        return Answer(verdict_lines(lib, verdict), verdict)
    if q.kind == "cfg_dce":
        g1, g2 = (lib.grammars.parse_cfg(t) for t in q.texts)
        got = lib.decision.dce_directed_cfg(g1, g2)
        text = "equal" if got.equal else "not equal"
        if got.probabilistic:
            text += " (probabilistic)"
        return Answer([text], got)
    raise ValueError(f"unknown query kind {q.kind!r}")
