"""Span tracing of library layers, installed from outside the package.

Each public function is wrapped at the module attribute its caller looks up,
for example ``braidforms.gathering.gather_strand``, which ``normal_form``
finds in its module globals.  A span records its name, start, end, parent
span and operation id.  Spans stay in memory in flat arrays and are written
out once, at the end of the run.  Self time is a span's duration minus the
durations of its child spans.
"""

from __future__ import annotations

import json
import time
from array import array
from collections import Counter

from braidforms.errors import StepBudgetExceeded


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("l")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("l")
        self.op = array("l")
        self._stack: list[list[int]] = []  # [span index, child ns]
        self.op_id = -1
        self.calls: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.counts: Counter = Counter()
        self._patched: list[tuple[object, str, object]] = []

    def open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1][0] if self._stack else -1)
        self.op.append(self.op_id)
        self.end.append(0)
        self._stack.append([idx, 0])
        self.start.append(time.perf_counter_ns())
        return idx

    def close(self, idx: int) -> int:
        """End the innermost span; returns its self time in ns."""
        end = time.perf_counter_ns()
        top, child_ns = self._stack.pop()
        if top != idx:
            raise RuntimeError("spans closed out of order")
        self.end[idx] = end
        duration = end - self.start[idx]
        if self._stack:
            self._stack[-1][1] += duration
        name = self.names[self.name[idx]]
        self.calls[name] += 1
        self.self_ns[name] += duration - child_ns
        return duration - child_ns

    def wrap(self, fn, name, note=None):
        """``name`` is a string or a function of the call's arguments;
        ``note(tracer, name, args, kwargs, outcome, self_ns)`` adds counts."""
        tracer = self

        def wrapper(*args, **kwargs):
            span = name(args, kwargs) if callable(name) else name
            idx = tracer.open(span)
            outcome = None
            try:
                outcome = fn(*args, **kwargs)
                return outcome
            except BaseException as exc:
                outcome = exc
                raise
            finally:
                self_ns = tracer.close(idx)
                if note is not None:
                    note(tracer, span, args, kwargs, outcome, self_ns)

        return wrapper

    def wrap_generator(self, fn, name):
        """Each resumption of the generator is one span; yields count as steps."""
        tracer = self

        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            while True:
                idx = tracer.open(name)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    tracer.close(idx)
                tracer.counts[name + ".steps"] += 1
                yield item

        return wrapper

    def patch(self, module, attr: str, name, note=None, generator=False):
        original = getattr(module, attr)
        self._patched.append((module, attr, original))
        wrapped = self.wrap_generator(original, name) if generator else self.wrap(original, name, note)
        setattr(module, attr, wrapped)

    def restore(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def run_op(self, op_id: int, kind: str, fn):
        """Call ``fn`` inside an operation span, tagging child spans with its id."""
        self.op_id = op_id
        idx = self.open("op." + kind)
        try:
            return fn()
        finally:
            self.close(idx)
            self.op_id = -1

    def dump(self, path) -> None:
        rows = [
            [self.name[i], self.start[i], self.end[i], self.parent[i], self.op[i]]
            for i in range(len(self.start))
        ]
        with open(path, "w", encoding="utf-8") as fh:
            columns = ["name", "start_ns", "end_ns", "parent", "op"]
            json.dump({"names": self.names, "columns": columns, "spans": rows}, fh)


def _note_gather(tracer, span, args, kwargs, outcome, self_ns):
    w, k = args[0], args[1]
    c = tracer.counts
    c[span + ".letters_in"] += len(w.letters)
    c[span + (f".k{k}" if k <= 8 else ".k9_up") + ".self_ns"] += self_ns
    if not isinstance(outcome, BaseException):
        block = outcome[1]
        c[span + ".block_letters_out"] += len(block.letters)
        c[span + ".nonempty"] += bool(block.letters)


def _residue_name(args, kwargs):
    strategy = args[1] if len(args) > 1 else kwargs.get("strategy")
    return "rewriting.residue." + (strategy.kind if strategy is not None else "leftmost")


def _note_residue(tracer, span, args, kwargs, outcome, self_ns):
    if isinstance(outcome, StepBudgetExceeded):
        tracer.counts[span + ".budget_trips"] += 1


def _note_sites(tracer, span, args, kwargs, outcome, self_ns):
    if not isinstance(outcome, BaseException):
        tracer.counts[span + ".sites_found"] += len(outcome)


def _note_svg(tracer, span, args, kwargs, outcome, self_ns):
    if isinstance(outcome, str):
        tracer.counts[span + ".bytes_out"] += len(outcome.encode())


def install_layers(tracer: Tracer, with_cli: bool) -> None:
    """Wrap every library layer the timed operations reach."""
    from braidforms import artin, cli, crossings, gathering, randbraid, rewriting

    # cli binds its own names at import, so it is imported above, before any
    # patch, and those names are wrapped separately below
    tracer.patch(gathering, "normal_form", "gathering.normal_form")
    tracer.patch(gathering, "gather_strand", "gathering.gather_strand", _note_gather)
    tracer.patch(gathering, "free_reduce", "words.free_reduce")
    tracer.patch(randbraid, "random_braid", "randbraid.random_braid")
    tracer.patch(randbraid, "allowed_moves", "randbraid.allowed_moves")
    tracer.patch(rewriting, "residue", _residue_name, _note_residue)
    tracer.patch(rewriting, "applicable_sites", "rewriting.applicable_sites", _note_sites)
    tracer.patch(rewriting, "validate", "crossings.validate")
    tracer.patch(crossings, "validate", "crossings.validate")
    tracer.patch(crossings, "word_to_crossings", "crossings.word_to_crossings")
    tracer.patch(crossings, "crossings_to_word", "crossings.crossings_to_word")
    tracer.patch(artin, "normalize_a", "artin.normalize_a")
    tracer.patch(artin, "equal_a", "artin.equal_a")
    tracer.patch(artin, "gather_steps_a", "artin.gather_steps_a", generator=True)
    if with_cli:
        tracer.patch(cli, "normal_form", "gathering.normal_form")
        tracer.patch(cli, "residue", _residue_name, _note_residue)
        tracer.patch(cli, "word_to_crossings", "crossings.word_to_crossings")
        tracer.patch(cli, "crossings_to_word", "crossings.crossings_to_word")
        tracer.patch(cli, "random_braid", "randbraid.random_braid")
        tracer.patch(cli, "render_svg", "diagram.render_svg", _note_svg)


def install_oracle(tracer: Tracer) -> None:
    """Wrap the oracle, which runs only in generation and verification."""
    from braidforms import oracle

    tracer.patch(oracle, "burau", "oracle.burau")
    tracer.patch(oracle, "mutate", "oracle.mutate")
