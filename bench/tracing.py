"""The traced pass: spans and counters recorded from the benchmark's own files.

Two kinds of wrapper are installed on the public entry points of the layers
and removed again afterwards; ``qsr`` itself is not edited.

* Span wrappers (``install_spans``) on ``qsr.search.a_closure``,
  ``qsr.search.brute_force_solve`` and ``ConstraintNetwork.copy``/``to_full``.
  The runner adds spans around its own calls into the other layers.  A span
  holds its name, start, end, parent and a few counters read off the result.
* Call counters (``install_counters``) on ``CalculusSpec.compose_masks`` and
  ``converse_mask``.  A composition takes about 100 ns, so a clock read per
  call would time the wrapper, not the call.  The counters therefore keep the
  argument stream, and ``replay_ns`` times it later without wrappers.

Spans are kept in memory and written out when the run ends.
"""

from __future__ import annotations

import json
import statistics
import time
from array import array

# how many arguments of each calculus and operation are kept for the replay
REPLAY_CAP = 200_000
# calculi up to this many base relations use the dense composition table;
# the ``.dense``/``.large`` split of both operations follows it
DENSE_LIMIT = 8


def branch_of(calc) -> str:
    """Which closure branch a calculus takes: the large path, or the fast or safe dense ones."""
    if len(calc.symbols) > DENSE_LIMIT:
        return "large"
    if calc.flags.ra7_holds is not True:
        return "nonconv"
    if calc.flags.ra9_holds is not True:
        return "nondist"
    return "fast"


class Tracer:
    """Spans in memory: ``[name, start_ns, end_ns, parent_index, attrs]``."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent, None])
        self._stack.append(idx)
        return idx

    def end(self, idx: int, attrs=None) -> None:
        span = self.spans[idx]
        span[2] = time.perf_counter_ns()
        span[4] = attrs
        self._stack.pop()

    def self_ns(self) -> list[int]:
        """Each span's duration minus the durations of its direct children."""
        own = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                own[s[3]] -= s[2] - s[1]
        return own

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for idx, (name, start, end, parent, attrs) in enumerate(self.spans):
                fh.write(json.dumps([idx, name, parent, start, end, attrs]) + "\n")


class _Patches:
    def __init__(self) -> None:
        self._undo: list[tuple] = []

    def patch(self, owner, name: str, wrapper) -> None:
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, wrapper)

    def restore(self) -> None:
        for owner, name, orig in reversed(self._undo):
            setattr(owner, name, orig)
        self._undo.clear()


def install_spans(qsr, tracer: Tracer) -> _Patches:
    patches = _Patches()
    orig_closure = qsr.search.a_closure
    orig_brute = qsr.search.brute_force_solve
    net_cls = qsr.ConstraintNetwork
    orig_copy, orig_to_full = net_cls.copy, net_cls.to_full

    def a_closure(net, *args, **kwargs):
        idx = tracer.begin("closure")
        attrs = None
        try:
            out = orig_closure(net, *args, **kwargs)
            attrs = (branch_of(net.calculus), len(net.var_names), out.queue_pops,
                     out.revisions, out.closed)
            return out
        finally:
            tracer.end(idx, attrs)

    def brute_force_solve(net, model, *args, **kwargs):
        idx = tracer.begin("models.brute_force")
        attrs = None
        try:
            out = orig_brute(net, model, *args, **kwargs)
            # without a solution every valuation was tried
            if out is None:
                attrs = len(model.universe) ** len(net.var_names)
            return out
        finally:
            tracer.end(idx, attrs)

    def timed(name, orig):
        def method(self):
            idx = tracer.begin(name)
            try:
                return orig(self)
            finally:
                tracer.end(idx)
        return method

    for owner in (qsr.search, qsr):
        patches.patch(owner, "a_closure", a_closure)
        patches.patch(owner, "brute_force_solve", brute_force_solve)
    patches.patch(net_cls, "copy", timed("network.copy", orig_copy))
    patches.patch(net_cls, "to_full", timed("network.to_full", orig_to_full))
    return patches


class CallLog:
    """Calls of one operation on one calculus, with the first REPLAY_CAP arguments."""

    __slots__ = ("calc", "calls", "args")

    def __init__(self, calc, arity: int) -> None:
        self.calc = calc  # keeps the calculus alive, so its id stays unique
        self.calls = 0
        self.args = tuple(array("Q") for _ in range(arity))


def install_counters(qsr, compose_logs: dict, converse_logs: dict) -> _Patches:
    patches = _Patches()
    cls = qsr.CalculusSpec
    orig_compose, orig_converse = cls.compose_masks, cls.converse_mask

    def log_of(logs, calc, arity):
        log = logs.get(id(calc))
        if log is None:
            log = logs[id(calc)] = CallLog(calc, arity)
        return log

    def compose_masks(self, a, b):
        log = log_of(compose_logs, self, 2)
        log.calls += 1
        if log.calls <= REPLAY_CAP:
            log.args[0].append(a)
            log.args[1].append(b)
        return orig_compose(self, a, b)

    def converse_mask(self, mask):
        log = log_of(converse_logs, self, 1)
        log.calls += 1
        if log.calls <= REPLAY_CAP:
            log.args[0].append(mask)
        return orig_converse(self, mask)

    patches.patch(cls, "compose_masks", compose_masks)
    patches.patch(cls, "converse_mask", converse_mask)
    return patches


def replay_ns(logs: dict, op: str, fresh, reps: int = 3) -> dict[str, float]:
    """ns per call of ``op`` on each path, replaying the recorded arguments.

    A large calculus is replayed on a freshly loaded copy (``fresh(name)``),
    so its composition cache starts as cold as it did in the recorded pass.
    The cost of the bare replay loop is subtracted.
    """
    out = {}
    for path in ("dense", "large"):
        chosen = [log for log in logs.values()
                  if (len(log.calc.symbols) <= DENSE_LIMIT) == (path == "dense") and log.args[0]]
        calls = sum(len(log.args[0]) for log in chosen)
        if not calls:
            out[path] = 0.0
            continue
        samples = []
        for _ in range(reps):
            total = 0
            for log in chosen:
                calc = log.calc if path == "dense" else fresh(log.calc.name)
                fn = getattr(calc, op)
                total += _time_loop(fn, log.args) - _time_loop(None, log.args)
            samples.append(total / calls)
        out[path] = statistics.median(samples)
    return out


def _time_loop(fn, args) -> int:
    if len(args) == 2:
        a, b = args
        t0 = time.perf_counter_ns()
        if fn is None:
            for x, y in zip(a, b):
                pass
        else:
            for x, y in zip(a, b):
                fn(x, y)
        return time.perf_counter_ns() - t0
    (a,) = args
    t0 = time.perf_counter_ns()
    if fn is None:
        for x in a:
            pass
    else:
        for x in a:
            fn(x)
    return time.perf_counter_ns() - t0


BRANCHES = ("fast", "large", "nonconv", "nondist")


def layer_metrics(tracer: Tracer, compose_logs: dict, converse_logs: dict) -> dict[str, tuple]:
    """Per-layer metrics of the span pass and the counter pass, as name -> (value, unit)."""
    spans = tracer.spans
    own = tracer.self_ns()
    m: dict[str, tuple] = {}

    def dense(log):
        return len(log.calc.symbols) <= DENSE_LIMIT

    m["core.compose_calls"] = (sum(log.calls for log in compose_logs.values()), "count")
    m["core.converse_calls"] = (sum(log.calls for log in converse_logs.values()), "count")
    m["core.compose_calls.large"] = (
        sum(log.calls for log in compose_logs.values() if not dense(log)), "count")

    # closure, overall and per branch
    per = {b: [0, 0, 0, 0, 0, 0] for b in ("all",) + BRANCHES}  # calls, self, pops, revs, attempts, closed
    in_decide_ns = 0
    in_completeness_ns = 0
    for idx, s in enumerate(spans):
        if s[0] != "closure" or s[4] is None:
            continue
        branch, n, pops, revisions, closed = s[4]
        for key in ("all", branch):
            row = per[key]
            row[0] += 1
            row[1] += own[idx]
            row[2] += pops
            row[3] += revisions
            row[4] += pops * 2 * max(n - 2, 0)
            row[5] += closed
        parent = spans[s[3]][0] if s[3] >= 0 else ""
        if parent == "search.decide":
            in_decide_ns += s[2] - s[1]
        elif parent == "models.completeness":
            in_completeness_ns += s[2] - s[1]
    calls, self_ns, pops, revs, attempts, closed = per["all"]
    m["closure.calls"] = (calls, "count")
    m["closure.self_ms"] = (self_ns / 1e6, "ms")
    m["closure.queue_pops"] = (pops, "count")
    m["closure.revisions"] = (revs, "count")
    m["closure.revise_attempts"] = (attempts, "count")
    m["closure.useful_ratio"] = (revs / attempts if attempts else 0.0, "ratio")
    m["closure.revise_attempts_per_s"] = (attempts / (self_ns / 1e9) if self_ns else 0.0, "1/s")
    m["closure.closed_share"] = (closed / calls if calls else 0.0, "share")
    for b in BRANCHES:
        _, self_ns, pops, revs, attempts, _ = per[b]
        m[f"closure.self_ms.{b}"] = (self_ns / 1e6, "ms")
        m[f"closure.queue_pops.{b}"] = (pops, "count")
        m[f"closure.revisions.{b}"] = (revs, "count")
        m[f"closure.useful_ratio.{b}"] = (revs / attempts if attempts else 0.0, "ratio")

    def total(name, attr_sum=False):
        idxs = [i for i, s in enumerate(spans) if s[0] == name]
        dur = sum(spans[i][2] - spans[i][1] for i in idxs)
        self_ns = sum(own[i] for i in idxs)
        attrs = sum(spans[i][4] or 0 for i in idxs) if attr_sum else 0
        return len(idxs), dur, self_ns, attrs

    _, decide_ns, decide_self, nodes = total("search.decide", attr_sum=True)
    m["search.nodes"] = (nodes, "count")
    m["search.nodes_per_s"] = (nodes / (decide_ns / 1e9) if decide_ns else 0.0, "1/s")
    m["search.self_ms"] = (decide_self / 1e6, "ms")
    m["search.closure_share"] = (in_decide_ns / decide_ns if decide_ns else 0.0, "share")
    m["search.closure_ms_per_node"] = (in_decide_ns / 1e6 / nodes if nodes else 0.0, "ms")

    copies, copy_ns, _, _ = total("network.copy")
    to_full, _, _, _ = total("network.to_full")
    m["network.copy_calls"] = (copies, "count")
    m["network.to_full_calls"] = (to_full, "count")
    m["network.copy_ms"] = (copy_ns / 1e6, "ms")

    _, grade_ns, _, _ = total("models.grade")
    _, _, _, valuations = total("models.brute_force", attr_sum=True)
    _, compl_ns, _, networks = total("models.completeness", attr_sum=True)
    m["models.grade_ms"] = (grade_ns / 1e6, "ms")
    # only calls that tried every valuation have an exact count
    exhaustive_ns = sum(s[2] - s[1] for s in spans if s[0] == "models.brute_force" and s[4])
    m["models.valuations_per_s"] = (valuations / (exhaustive_ns / 1e9) if exhaustive_ns else 0.0, "1/s")
    m["models.completeness_networks_per_s"] = (networks / (compl_ns / 1e9) if compl_ns else 0.0, "1/s")
    m["models.completeness_closure_share"] = (in_completeness_ns / compl_ns if compl_ns else 0.0, "share")
    return m
