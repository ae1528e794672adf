"""Call tracing from outside the program.

``install`` wraps the public functions, constructors and methods of
each layer module of the package and rebinds every module-level name
that refers to a wrapped function, including names imported into other
modules (``partitions`` imports ``verify_membership`` from ``sofic``,
``sofic`` imports ``b_compose`` from ``groupoid``).  Generators are
timed per ``next()`` call.  ``fractions.Fraction`` constructions are
counted, not timed: their time stays in the caller's self time.
``uninstall`` puts every original back.

Each wrapped call adds to its name's call count, total time and self
time (duration minus the time of wrapped calls made inside it).  Calls
outside the L0 layers (``pperm``, ``rng``, ``groupoid``) are also kept
as spans: id, parent span id, name, start, end and job id.
"""

from __future__ import annotations

import fractions
import functools
import inspect
import os
import sys
import time

LAYERS = ("cli", "sofic", "pperm", "rng", "groupoid", "wordball",
          "partitions", "crossed", "scaling")
# called millions of times on the hot paths: counted and timed, no spans
AGGREGATE_ONLY = ("pperm", "rng", "groupoid")
# PartialPermutation has classmethod constructors too; ".init" names the
# validating __init__ they all run
INIT_NAMES = {"pperm.PartialPermutation": "pperm.PartialPermutation.init"}
FRACTION = "fractions.Fraction"


class Stat:
    __slots__ = ("calls", "total_s", "self_s")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0


class Tracer:
    """Call counts, self times and spans, kept in memory."""

    def __init__(self, clock=time.perf_counter, max_spans: int = 200_000):
        self.clock = clock
        self.max_spans = max_spans
        self.stats: dict[str, Stat] = {}
        self.spans: list[tuple] = []
        self.dropped_spans = 0
        self.job = None
        self.active = True
        self._stack: list[list] = []
        self._next_id = 0
        # hooks: name -> (enter() -> token, leave(token, result))
        self.hooks: dict[str, tuple] = {}

    def stat(self, name: str) -> Stat:
        if name not in self.stats:
            self.stats[name] = Stat()
        return self.stats[name]

    def enter(self, record: bool) -> list:
        """Open a frame: [start, time in wrapped callees, the span id that
        callees take as parent (its own id when recorded), parent span id]."""
        stack = self._stack
        parent = stack[-1][2] if stack else None
        own = None
        if record:
            self._next_id += 1
            own = self._next_id
        frame = [0.0, 0.0, own if record else parent, parent if record else None]
        stack.append(frame)
        frame[0] = self.clock()
        return frame

    def leave(self, frame: list, stat: Stat, name: str, record: bool):
        end = self.clock()
        stack = self._stack
        stack.pop()
        duration = end - frame[0]
        stat.calls += 1
        stat.total_s += duration
        stat.self_s += duration - frame[1]
        if stack:
            stack[-1][1] += duration
        if record:
            if len(self.spans) < self.max_spans:
                self.spans.append((frame[2], frame[3], name, frame[0], end, self.job))
            else:
                self.dropped_spans += 1

    def wrap(self, name: str, fn, record: bool):
        stat = self.stat(name)
        tracer = self
        hook = self.hooks.get(name)

        if inspect.isgeneratorfunction(fn):
            def wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                try:
                    while True:
                        if not tracer.active:
                            yield from it
                            return
                        frame = tracer.enter(record)
                        try:
                            item = next(it)
                        except StopIteration:
                            return
                        finally:
                            tracer.leave(frame, stat, name, record)
                        yield item
                finally:
                    it.close()
        else:
            def wrapper(*args, **kwargs):
                if not tracer.active:
                    return fn(*args, **kwargs)
                token = hook[0]() if hook else None
                frame = tracer.enter(record)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer.leave(frame, stat, name, record)
                if hook:
                    hook[1](token, result)
                return result

        return functools.update_wrapper(wrapper, fn)


def _targets(package: str):
    """(layer, owner, attribute, name, function) for everything traced."""
    for layer in LAYERS:
        mod = sys.modules[f"{package}.{layer}"]
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                yield layer, mod, attr, f"{layer}.{attr}", obj
            elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                for mattr, member in list(vars(obj).items()):
                    if not inspect.isfunction(member):
                        continue
                    if mattr == "__init__":
                        name = f"{layer}.{attr}"
                        yield layer, obj, mattr, INIT_NAMES.get(name, name), member
                    elif not mattr.startswith("_"):
                        yield layer, obj, mattr, f"{layer}.{attr}.{mattr}", member


class Installation:
    """Wrappers installed into a loaded package; ``uninstall`` restores it."""

    def __init__(self, tracer: Tracer, package: str = "soficdim"):
        self.tracer = tracer
        self.restore: list[tuple] = []
        wrapped = {}
        for layer, owner, attr, name, fn in _targets(package):
            wrapper = tracer.wrap(name, fn, record=layer not in AGGREGATE_ONLY)
            if inspect.isclass(owner):
                self._set(owner, attr, wrapper)
            else:
                wrapped[id(fn)] = (fn, wrapper)
        # rebind each name where it is looked up: the defining module and
        # every module that imported the function by name
        modules = [m for n, m in list(sys.modules.items())
                   if n == package or n.startswith(package + ".")]
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                entry = wrapped.get(id(obj))
                if entry is not None and entry[0] is obj:
                    self._set(mod, attr, entry[1])
        self._count_fractions(tracer.stat(FRACTION))
        os.register_at_fork(after_in_child=self._deactivate)

    def _set(self, owner, attr, value):
        self.restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _count_fractions(self, stat: Stat):
        original = vars(fractions.Fraction)["__new__"].__func__
        tracer = self.tracer

        def counted(cls, *args, **kwargs):
            if tracer.active:
                stat.calls += 1
            return original(cls, *args, **kwargs)

        self._set(fractions.Fraction, "__new__", staticmethod(counted))

    def _deactivate(self):
        # worker processes forked from a traced run keep the wrappers but
        # record nothing: their memory is not read back
        self.tracer.active = False

    def uninstall(self):
        self.tracer.active = False
        while self.restore:
            owner, attr, value = self.restore.pop()
            setattr(owner, attr, value)
