"""Spans around the package's public functions, recorded from outside.

``Tracer.install`` replaces module attributes with timing wrappers in this
process only; ``Tracer.remove`` puts the originals back.  Every call of a
wrapped function is one span: name, start, end, parent span and query id.
Spans stay in memory and are written out once, at exit.

What a wrapper cannot see:

- a name bound with ``from module import name`` in another module, such as
  ``ideals.reduce_rep`` inside ``automata`` or ``ideals.strict_includes``
  inside ``decision``: those calls skip the wrapper, so their time lands in
  the caller's self time (``automata.enumerate_path_ideals``,
  ``decision.maximal_ideals``);
- methods (``Nfa.successors``, ``Cfg.by_head``, ``EmbeddingDfa.step``) and
  nested functions (the cursor search inside
  ``decision._cfg_inclusion_compressed``): their time lands in the calling
  function;
- generator functions (``slp.iter_val``): a wrapper would time only the
  creation of the generator, so they stay unwrapped and their time lands in
  whichever function consumes them;
- the helpers in ``LEAVES``, called once per symbol, atom or pair of
  reps; wrapping them would multiply the tracing cost, so their time lands
  in their callers.  In particular the pairwise inclusion tests of the
  maximality filter (``ideals.ideal_includes`` and what it calls) land in
  ``decision.maximal_ideals``, so ``ideals.share`` counts parsing and
  printing of reps only.

Calls inside one module through its own global names (``slp.char_at``
calling ``val_lengths``) do go through the wrapper, because the wrapper
replaces the module global itself.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import time

# Package modules traced as layers; ``oracle`` and ``cli`` are not layers.
LAYERS = ("ideals", "automata", "transducers", "maxweight", "grammars",
          "slp", "decision")

# Per-symbol and per-pair helpers left unwrapped (see the module docstring).
LEAVES = frozenset({
    "ideals.check_letter", "ideals.make_alphabet", "ideals.star",
    "ideals.atom_letters", "ideals.rep_letters", "ideals.atom_contains",
    "ideals.absorbs", "ideals.atom_weight", "ideals.format_atom",
    "ideals.parse_atom", "ideals.reduce_rep", "ideals.is_reduced",
    "ideals.ideal_member", "ideals.characteristic_word",
    "ideals.ideal_includes", "ideals.strict_includes", "ideals.embedding",
    "ideals.weight",
    "automata.label_key", "automata.sym_key",
    "grammars.check_name", "grammars.sym_text", "grammars.fresh_name",
    "maxweight.label_weight",
})


def output_size(out):
    """(size name, value) for a layer's return value, or None."""
    if hasattr(out, "n_states"):
        return ("out_states", out.n_states)
    if hasattr(out, "merged_away"):  # a normalized ideal automaton
        return ("out_states", out.m)
    if hasattr(out, "productions"):
        return ("out_productions", len(out.productions))
    if isinstance(out, list):
        return ("out_reps", len(out))
    if isinstance(out, tuple) and out and type(out[0]).__name__ in (
            "Single", "AlphabetStar"):
        return ("out_atoms", len(out))
    return None


class Tracer:
    def __init__(self):
        self.names: list = ["query"]  # span name table; spans hold an index
        self.spans: list = []  # (name index, start, end, parent, query)
        self.sizes: dict = {}  # (name, size name) -> [total, count]
        self.stack: list = []
        self.query = -1
        self._installed: list = []

    def _wrap(self, name: str, fn):
        tracer = self
        index = len(self.names)
        self.names.append(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer.stack
            parent = stack[-1] if stack else -1
            span = len(tracer.spans)
            tracer.spans.append(None)
            stack.append(span)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans[span] = (index, start, end, parent, tracer.query)
            size = output_size(out)
            if size is not None:
                acc = tracer.sizes.setdefault((name, size[0]), [0, 0])
                acc[0] += size[1]
                acc[1] += 1
            return out

        return wrapper

    def install(self, lib) -> None:
        """Wrap every public function each layer module defines."""
        for layer in LAYERS:
            module = getattr(lib, layer)
            for attr, fn in list(vars(module).items()):
                name = f"{layer}.{attr}"
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__
                        or inspect.isgeneratorfunction(fn) or name in LEAVES):
                    continue
                self._installed.append((module, attr, fn))
                setattr(module, attr, self._wrap(name, fn))

    def remove(self) -> None:
        for module, attr, fn in self._installed:
            setattr(module, attr, fn)
        self._installed.clear()

    def begin_query(self, query_id: int):
        """Open the root span of one query; returns its span index."""
        self.query = query_id
        span = len(self.spans)
        self.spans.append(None)
        self.stack.append(span)
        self._query_start = time.perf_counter()
        return span

    def end_query(self, span: int) -> None:
        end = time.perf_counter()
        self.stack.pop()
        self.spans[span] = (0, self._query_start, end, -1, self.query)

    def write(self, path: str, t0: float) -> None:
        """One span per line: name, start, end (seconds from t0), parent
        span index (-1 for none), query id; gzip-compressed."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("name\tstart\tend\tparent\tquery\n")
            for (index, start, end, parent, query) in self.spans:
                fh.write(f"{self.names[index]}\t{start - t0:.7f}\t"
                         f"{end - t0:.7f}\t{parent}\t{query}\n")


def self_times(spans: list) -> list:
    """Self time of every span: its duration minus the part of its interval
    that its child spans cover (overlapping children count once)."""
    children: dict = {}
    for i, (_, start, end, parent, _) in enumerate(spans):
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for (s, e) in sorted(children.get(i, ())):
            s, e = max(s, reach), min(e, end)
            if e > s:
                covered += e - s
                reach = e
        out.append((end - start) - covered)
    return out
