"""Per-layer tracing for the benchmark's traced episodes.

Spans are recorded from outside the program: the public functions of each
credence module are replaced, in every loaded credence module and class
that refers to them, by wrappers that time the call.  A span's self time
is its duration minus the time covered by its child spans.  Spans stay in
memory; the run writes them once at the end.  ``Patches.restore`` puts
the original functions back, so untraced episodes run unmodified code.

Functions that only need counting (no self time) get counting wrappers
without a span, so their time stays in the enclosing span.  Private
helpers are wrapped only to count what passes through them
(``_resolve_against_pool`` for pool sizes, ``_PreparedCases.predictions``
for grid-cell evaluations); when a later version drops them, those
counters read 0 and the run lists them as unpatched.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import defaultdict

_clock = time.perf_counter


def _references(target):
    """Every (owner, attribute) in loaded credence modules and classes that
    holds ``target``, so call sites that imported it by name see the wrapper."""
    found = set()
    for module_name, module in list(sys.modules.items()):
        if module is None or not (module_name == "credence" or module_name.startswith("credence.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is target:
                found.add((module, attr))
            elif isinstance(value, type) and value.__module__.startswith("credence"):
                for class_attr, class_value in list(vars(value).items()):
                    if class_value is target:
                        found.add((value, class_attr))
    return found


class Patches:
    """Replaces functions everywhere they are referenced and undoes it."""

    def __init__(self):
        self._undo = []
        self.missing = []

    def wrap(self, owner, attr, make_wrapper) -> None:
        target = vars(owner).get(attr)
        if target is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        wrapper = make_wrapper(target)
        for ref_owner, ref_attr in _references(target) | {(owner, attr)}:
            self._undo.append((ref_owner, ref_attr, vars(ref_owner)[ref_attr]))
            setattr(ref_owner, ref_attr, wrapper)

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs.get(name)


class Tracer:
    """Span stack, per-span-name call counts and self times, and counters."""

    def __init__(self, keep_spans: bool):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counters = defaultdict(float)
        self.spans = [] if keep_spans else None
        self._stack = []  # [child seconds, span id] per open span
        self._next_id = 0
        self._embedded = set()
        self._stores = {}
        self._seed_trace_start = 0

    def span(self, name, fn, before=None, after=None):
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][1] if stack else -1
            frame = [0.0, span_id]
            stack.append(frame)
            start = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = _clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][0] += duration
                self.calls[name] += 1
                self.self_s[name] += duration - frame[0]
                if self.spans is not None:
                    self.spans.append((span_id, parent, name, start, end, duration - frame[0]))
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def count(self, name, fn, before=None, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            if before is not None:
                before(args, kwargs)
            result = fn(*args, **kwargs)
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    # -- hooks that record counts at the layer boundaries -------------------

    def _fold(self, args, kwargs):
        records = _arg(args, kwargs, 0, "active_records")
        if hasattr(records, "__len__"):
            self.counters["core.recompute.records_folded"] += len(records)

    def _embed(self, args, kwargs):
        claim = _arg(args, kwargs, 0, "claim")
        if claim in self._embedded:
            self.counters["judgement.embed.repeats"] += 1
        self._embedded.add(claim)

    def _resolved(self, args, kwargs, outcome):
        if not getattr(outcome, "kept_new", True) or getattr(outcome, "superseded", None) is not None:
            self.counters["judgement.resolve.archiving"] += 1

    def _pool(self, args, kwargs):
        self.counters["judgement.resolve.pool_total"] += len(_arg(args, kwargs, 1, "pool"))

    def _scan(self, args, kwargs):
        self.counters["memory.active_scan.records_scanned"] += len(args[0].records)

    def _insert(self, args, kwargs):
        self._stores[id(args[0])] = args[0]

    def _parsed(self, args, kwargs, result):
        self.counters["extraction.parse.claims_out"] += len(result)

    def _written(self, args, kwargs, result):
        self.counters["engine.trace_write.bytes"] += os.path.getsize(_arg(args, kwargs, 0, "path"))

    def _verifying(self, args, kwargs):
        self.counters["engine.verify.events"] += len(_arg(args, kwargs, 0, "events"))

    def _grid_cells(self, args, kwargs, result):
        self.counters["replay.grid_cell_evals"] += len(result)

    def _seeding(self, args, kwargs):
        agent = _arg(args, kwargs, 0, "agent")
        self._seed_trace_start = len(agent.trace)

    def _seeded(self, args, kwargs, agent):
        target = _arg(args, kwargs, 3, "target")
        unreachable = any(
            event.kind == "warning" and "unreachable" in event.payload.get("message", "")
            for event in agent.trace[self._seed_trace_start :]
        )
        if not unreachable:
            error = abs(agent.belief.stance - target)
            key = "simulation.seed_target_error_max"
            self.counters[key] = max(self.counters[key], error)

    def install(self) -> Patches:
        from credence import cli, config, core, engine, extraction, judgement, memory, replay, simulation

        patches = Patches()
        span, count = self.span, self.count
        plan = [
            (core, "compute_log_odds", lambda f: span("core.recompute", f, before=self._fold)),
            (core, "update_incremental", lambda f: count("core.incremental", f)),
            (judgement, "embed_claim", lambda f: span("judgement.embed", f, before=self._embed)),
            (judgement, "resolve_conflict", lambda f: span("judgement.resolve", f, after=self._resolved)),
            (judgement, "resolve_self_conflict", lambda f: span("judgement.resolve", f, after=self._resolved)),
            (judgement, "_resolve_against_pool", lambda f: count("judgement.resolve_pool", f, before=self._pool)),
            (judgement, "score_strength", lambda f: count("judgement.score", f)),
            (memory.MemoryStore, "active_records", lambda f: span("memory.active_scan", f, before=self._scan)),
            (memory, "retrieve", lambda f: span("memory.retrieve", f)),
            (memory.MemoryStore, "insert", lambda f: count("memory.insert", f, before=self._insert)),
            (extraction, "parse_scripted_message", lambda f: span("extraction.parse", f, after=self._parsed)),
            (engine, "process_message", lambda f: span("engine.process_message", f)),
            (engine, "compose_response", lambda f: span("engine.compose", f)),
            (engine, "write_trace", lambda f: span("engine.trace_write", f, after=self._written)),
            (engine, "read_trace", lambda f: span("engine.trace_read", f)),
            (engine, "verify_trace", lambda f: span("engine.verify", f, before=self._verifying)),
            (simulation, "seed_agent", lambda f: span("simulation.seed_agent", f, before=self._seeding, after=self._seeded)),
            (replay, "accepted_records", lambda f: span("replay.accepted_records", f)),
            (replay, "calibrate", lambda f: span("replay.calibrate", f)),
            (replay, "build_replay_report", lambda f: span("replay.report", f)),
            (cli, "main", lambda f: span("cli.command", f)),
            (config, "load_config", lambda f: span("config.load", f)),
        ]
        prepared = getattr(replay, "_PreparedCases", None)
        if prepared is not None:
            plan.append((prepared, "predictions", lambda f: count("replay.grid_cells", f, after=self._grid_cells)))
        else:
            patches.missing.append("replay._PreparedCases.predictions")
        for owner, attr, make in plan:
            patches.wrap(owner, attr, make)
        return patches

    def metrics(self) -> dict:
        """Per-layer figures of this traced episode, by metric name."""
        calls, self_s, counters = self.calls, self.self_s, self.counters
        records = [r for store in self._stores.values() for r in store.records]
        resolves = calls["judgement.resolve"]
        embeds = calls["judgement.embed"]
        pools = calls["judgement.resolve_pool"]
        figures = {
            "core.recompute.records_folded": counters["core.recompute.records_folded"],
            "core.incremental.calls": calls["core.incremental"],
            "judgement.embed.repeat_share": counters["judgement.embed.repeats"] / embeds if embeds else 0.0,
            "judgement.resolve.pool_mean": counters["judgement.resolve.pool_total"] / pools if pools else 0.0,
            "judgement.resolve.archive_share": counters["judgement.resolve.archiving"] / resolves if resolves else 0.0,
            "judgement.score.calls": calls["judgement.score"],
            "memory.active_scan.records_scanned": counters["memory.active_scan.records_scanned"],
            "memory.insert.calls": calls["memory.insert"],
            "memory.archived_share_final": (
                sum(1 for r in records if not r.active) / len(records) if records else 0.0
            ),
            "extraction.parse.claims_out": counters["extraction.parse.claims_out"],
            "engine.trace_write.bytes": counters["engine.trace_write.bytes"],
            "engine.verify.events": counters["engine.verify.events"],
            "simulation.seed_target_error_max": counters["simulation.seed_target_error_max"],
            "replay.grid_cell_evals": counters["replay.grid_cell_evals"],
        }
        for span_name in (
            "core.recompute", "judgement.embed", "judgement.resolve", "memory.active_scan",
            "memory.retrieve", "extraction.parse", "simulation.seed_agent",
            "replay.accepted_records", "replay.calibrate",
        ):
            figures[f"{span_name}.calls"] = calls[span_name]
        for span_name in (
            "core.recompute", "judgement.embed", "judgement.resolve", "memory.active_scan",
            "memory.retrieve", "extraction.parse", "engine.process_message", "engine.compose",
            "engine.trace_write", "engine.trace_read", "engine.verify", "simulation.seed_agent",
            "replay.accepted_records", "replay.calibrate", "replay.report", "cli.command", "config.load",
        ):
            figures[f"{span_name}.self_s"] = self_s[span_name]
        return figures
