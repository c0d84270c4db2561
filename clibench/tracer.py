"""Spans around the program's public functions, recorded from outside.

``Tracer.install`` replaces every public module-level function of the
measured modules, in every module namespace that refers to it, by a
wrapper that times the call.  Each thread keeps its own span stack, since
``sweep`` runs its work on a pool thread.  A span that opens on an empty
stack in another thread is charged to the span the main thread has open at
that moment, the one that caused it; so ``cmd_sweep`` waiting on its pool
is not counted as its own time.

A span's self time is its duration minus the time its child spans cover.
Calls into unwrapped code (private helpers, methods of value classes such
as ``Word`` and ``Permutation``) count toward the calling span.  Spans are
aggregated per thread as they close, into call counts and self times per
function, and merged when tracing stops.
"""

from __future__ import annotations

import inspect
import threading
import time
from collections import defaultdict

# moebius is left out: it is a small floating-point module that no
# workload calls.
MODULES = ("origami", "freegroup", "subgroup", "hss", "linalg", "homology", "cli")

# One step of one letter, called once per letter of every word walked;
# a span around it would cost more than the step, so its time counts
# toward act_word.
UNWRAPPED = {"origami.act_letter"}


class _ThreadRecord:
    def __init__(self):
        self.stack = []
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.maxima = defaultdict(int)


class Tracer:
    def __init__(self, package):
        self._package = package
        self._local = threading.local()
        self._records = []
        self._lock = threading.Lock()
        self._main_ident = threading.get_ident()
        self._main_stack = self._record().stack
        self._patched = []  # (namespace dict, name, original)
        self._hooks = {
            "hss.find_hss_detailed": self._hss_counts,
            "freegroup.lift_matrix": self._lift_counts,
        }

    def _record(self) -> _ThreadRecord:
        rec = getattr(self._local, "rec", None)
        if rec is None:
            rec = self._local.rec = _ThreadRecord()
            with self._lock:
                self._records.append(rec)
        return rec

    @staticmethod
    def _hss_counts(rec, result):
        rec.counts["hss.rounds"] += len(result.histories)
        for history in result.histories:
            for ev in history.events:
                rec.counts["hss.merge_events" if ev[0] == "merge"
                           else "hss.cancel_events"] += 1

    @staticmethod
    def _lift_counts(rec, phi):
        n = max(len(phi.image_x), len(phi.image_y))
        rec.maxima["freegroup.max_word_len"] = max(
            rec.maxima["freegroup.max_word_len"], n)

    def _wrap(self, name, fn):
        tracer = self
        main_ident = self._main_ident
        hook = self._hooks.get(name)
        clock = time.perf_counter

        def span(*args, **kwargs):
            rec = tracer._record()
            stack = rec.stack
            if stack:
                cause = stack[-1]
            elif threading.get_ident() != main_ident and tracer._main_stack:
                cause = tracer._main_stack[-1]
            else:
                cause = None
            frame = [0.0]  # time covered by child spans
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                rec.calls[name] += 1
                rec.self_s[name] += dur - frame[0]
                if cause is not None:
                    cause[0] += dur
            if hook is not None:
                h0 = clock()
                hook(rec, result)
                if cause is not None:  # keep the hook out of the caller's self time
                    cause[0] += clock() - h0
            return result

        span.__wrapped__ = fn
        span.__name__ = fn.__name__
        return span

    def install(self) -> None:
        modules = [getattr(self._package, m) for m in MODULES]
        wrappers = {}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[1]
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__
                        and f"{short}.{attr}" not in UNWRAPPED):
                    wrappers[obj] = self._wrap(f"{short}.{attr}", obj)
        for mod in modules:
            ns = vars(mod)
            for attr, obj in list(ns.items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patched.append((ns, attr, obj))
                    ns[attr] = wrappers[obj]

    def uninstall(self) -> None:
        for ns, attr, obj in reversed(self._patched):
            ns[attr] = obj
        self._patched.clear()

    def totals(self) -> tuple[dict, dict, dict]:
        """Calls and self seconds per function, and the counters."""
        calls, self_s, counts = defaultdict(int), defaultdict(float), defaultdict(int)
        with self._lock:
            records = list(self._records)
        for rec in records:
            for k, v in rec.calls.items():
                calls[k] += v
            for k, v in rec.self_s.items():
                self_s[k] += v
            for k, v in rec.counts.items():
                counts[k] += v
            for k, v in rec.maxima.items():
                counts[k] = max(counts[k], v)
        return calls, self_s, counts
