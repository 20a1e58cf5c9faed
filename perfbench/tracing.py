"""Per-layer tracing of the gbs package from outside its source.

``Tracer.install()`` replaces the functions and methods of every gbs module
with timing wrappers, in every gbs module namespace that holds a reference
to them (``from x import f`` copies included); ``uninstall()`` puts the
originals back.  Nothing under ``src/`` is edited.

Every wrapped call is aggregated into a ``Stat`` (calls, busy time, self
time, and calls per direct caller) on a frame stack, so each layer's self
time is its busy time minus the time of the wrapped calls it made.  Coarse
calls, listed in ``SPANNED``, also get one span each (name, start, end,
parent span, job id); hot calls such as the kernel and
``GroupElement.__mul__`` only get counters.

Not wrapped, so their time lands on the calling function: private helpers
(except ``opsim._power_iteration``), properties, and dunder methods other
than the arithmetic ones.
"""

from __future__ import annotations

import inspect
import json
import sys
import time

# Layer name -> defining modules.  _wordcore_py is the pure kernel behind
# the wordcore selector, so both count as the wordcore layer.
LAYERS = {
    "wordcore": ("gbs.wordcore", "gbs._wordcore_py"),
    "words": ("gbs.words",),
    "graphs": ("gbs.graphs",),
    "indices": ("gbs.indices",),
    "tree": ("gbs.tree",),
    "pingpong": ("gbs.pingpong",),
    "opsim": ("gbs.opsim",),
    "cli": ("gbs.cli",),
}
HARNESS = "harness"

_PRIVATE_WRAPPED = {"_power_iteration"}
_DUNDERS_WRAPPED = {"__mul__", "__rmul__", "__add__", "__sub__", "__pow__"}

# Coarse calls that get a span each, by stat key.
SPANNED = frozenset({
    "pingpong.verify_pingpong",
    "pingpong.build_ce2",
    "pingpong.build_theorem_data",
    "words.closed_words",
    "opsim.enumerate_ball",
    "opsim.operator_of",
    "opsim.average_conjugates",
    "opsim._power_iteration",
    "graphs.parse_graph",
    "indices.vertex_index",
    "indices.check_theorem",
    "tree.ball",
    "tree.moved_vertex",
})


class Stat:
    """Aggregate of every call to one function."""

    __slots__ = ("key", "layer", "calls", "busy", "self_time", "callers",
                 "extra")

    def __init__(self, key, layer):
        self.key = key
        self.layer = layer
        self.calls = 0
        self.busy = 0.0
        self.self_time = 0.0
        self.callers = {}
        self.extra = {}

    def add(self, name, value):
        self.extra[name] = self.extra.get(name, 0) + value


def _observe_verify(stat, args, result):
    stat.add("pairs", result.pairs_checked)


def _observe_ball(stat, args, result):
    stat.add("elements", len(result))


def _observe_operator(stat, args, result):
    x, ball = args[0], args[1]
    stat.add("nnz", result.matrix.nnz)
    stat.add("slots", len(x.terms) * len(ball))


def _observe_power(stat, args, result):
    # Each power-iteration step does one product with M and one with M^T.
    stat.add("matvecs", 2 * result[1])


def _observe_tree_ball(stat, args, result):
    stat.add("vertices", len(result.vertices))


_OBSERVERS = {
    "pingpong.verify_pingpong": _observe_verify,
    "opsim.enumerate_ball": _observe_ball,
    "opsim.operator_of": _observe_operator,
    "opsim._power_iteration": _observe_power,
    "tree.ball": _observe_tree_ball,
}


class Tracer:
    """Installs timing wrappers into the loaded gbs modules."""

    def __init__(self):
        self.stats = {}
        self.spans = []             # (id, name, start, end, parent, job, busy)
        self._stack = []            # frames: [child_time, stat]
        self._span_stack = [None]
        self._job_id = None
        self._patches = []          # (owner, name, original)
        self._harness = Stat(f"{HARNESS}.job", HARNESS)
        self.stats[self._harness.key] = self._harness

    # -- installation ---------------------------------------------------------

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrapped = {}
        for layer, modnames in LAYERS.items():
            for modname in modnames:
                mod = sys.modules[modname]
                for name, obj in vars(mod).items():
                    if (inspect.isfunction(obj) and obj.__module__ == modname
                            and self._wanted(name)):
                        wrapped[id(obj)] = self._wrap(obj, layer, name)
                    elif (inspect.isclass(obj) and obj.__module__ == modname
                          and not issubclass(obj, BaseException)):
                        self._install_class(obj, layer)
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "gbs"
                                   or modname.startswith("gbs.")):
                continue
            for name, obj in list(vars(mod).items()):
                w = wrapped.get(id(obj))
                if w is not None:
                    self._patches.append((mod, name, obj))
                    setattr(mod, name, w)

    def uninstall(self):
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches = []

    @staticmethod
    def _wanted(name):
        if name.startswith("__"):
            return name in _DUNDERS_WRAPPED
        return not name.startswith("_") or name in _PRIVATE_WRAPPED

    def _install_class(self, cls, layer):
        for name, attr in list(vars(cls).items()):
            if not self._wanted(name):
                continue
            key_name = f"{cls.__name__}.{name}"
            if isinstance(attr, (staticmethod, classmethod)):
                repl = type(attr)(self._wrap(attr.__func__, layer, key_name))
            elif inspect.isfunction(attr):
                repl = self._wrap(attr, layer, key_name)
            else:
                continue
            self._patches.append((cls, name, attr))
            setattr(cls, name, repl)

    def _stat(self, layer, name):
        key = f"{layer}.{name}"
        stat = self.stats.get(key)
        if stat is None:
            stat = self.stats[key] = Stat(key, layer)
        return stat

    # -- wrappers -------------------------------------------------------------

    def _wrap(self, fn, layer, name):
        stat = self._stat(layer, name)
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(fn, stat)
        stack = self._stack
        clock = time.perf_counter
        observe = _OBSERVERS.get(stat.key)
        spanned = stat.key in SPANNED

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            frame = [0.0, stat]
            stack.append(frame)
            if spanned:
                span = self._open_span(stat.key)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                dt = t1 - t0
                stack.pop()
                parent[0] += dt
                stat.calls += 1
                stat.busy += dt
                stat.self_time += dt - frame[0]
                callers = stat.callers
                caller = parent[1].key
                callers[caller] = callers.get(caller, 0) + 1
                if spanned:
                    self._close_span(span, t0, t1)
            if observe is not None:
                observe(stat, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_generator(self, fn, stat):
        """Time only the slices spent inside the generator; the consumer's
        work between items belongs to the consumer."""
        stack = self._stack
        clock = time.perf_counter
        spanned = stat.key in SPANNED

        def wrapper(*args, **kwargs):
            parent_key = stack[-1][1].key
            stat.calls += 1
            stat.callers[parent_key] = stat.callers.get(parent_key, 0) + 1
            parent_span = self._span_stack[-1]
            it = fn(*args, **kwargs)
            first = last = None
            busy = 0.0
            try:
                while True:
                    parent = stack[-1]
                    frame = [0.0, stat]
                    stack.append(frame)
                    t0 = clock()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        t1 = clock()
                        dt = t1 - t0
                        stack.pop()
                        parent[0] += dt
                        stat.busy += dt
                        stat.self_time += dt - frame[0]
                        busy += dt
                        first = t0 if first is None else first
                        last = t1
                    stat.add("yielded", 1)
                    yield item
            finally:
                if spanned and first is not None:
                    self.spans.append((len(self.spans), stat.key, first, last,
                                       parent_span, self._job_id, busy))

        wrapper.__wrapped__ = fn
        return wrapper

    def _open_span(self, name):
        sid = len(self.spans)
        self.spans.append(None)
        parent = self._span_stack[-1]
        self._span_stack.append(sid)
        return (sid, name, parent)

    def _close_span(self, span, t0, t1):
        sid, name, parent = span
        self._span_stack.pop()
        self.spans[sid] = (sid, name, t0, t1, parent, self._job_id, None)

    # -- jobs -----------------------------------------------------------------

    def run_job(self, job_id, kind, fn):
        """Run one job as the root frame and root span; returns fn()."""
        self._job_id = job_id
        frame = [0.0, self._harness]
        self._stack.append(frame)
        span = self._open_span(f"job.{kind}")
        t0 = time.perf_counter()
        try:
            return fn()
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            dt = t1 - t0
            self._harness.calls += 1
            self._harness.busy += dt
            self._harness.self_time += dt - frame[0]
            self._close_span(span, t0, t1)
            self._job_id = None

    # -- output ---------------------------------------------------------------

    def layer_self_times(self):
        out = {layer: 0.0 for layer in (*LAYERS, HARNESS)}
        for stat in self.stats.values():
            out[stat.layer] += stat.self_time
        return out

    def span_self_times(self):
        """Self time of every closed span: duration minus the part its child
        spans cover (children of one span never overlap)."""
        def busy(s):
            # Generator spans carry their in-generator time; the rest of
            # their interval belongs to the consumer.
            return s[6] if s[6] is not None else s[3] - s[2]

        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s is not None and s[4] is not None:
                child[s[4]] += busy(s)
        return [None if s is None else busy(s) - child[s[0]]
                for s in self.spans]

    def write(self, path):
        selfs = self.span_self_times()
        doc = {
            "spans": [
                {"id": s[0], "name": s[1], "start": s[2], "end": s[3],
                 "parent": s[4], "job": s[5], "self_s": selfs[s[0]]}
                for s in self.spans if s is not None
            ],
            "stats": {
                k: {"layer": s.layer, "calls": s.calls, "busy_s": s.busy,
                    "self_s": s.self_time, "callers": s.callers, **s.extra}
                for k, s in sorted(self.stats.items()) if s.calls
            },
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc, separators=(",", ":")))
