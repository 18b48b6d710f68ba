"""In-memory span tracer that wraps a package's public functions from outside.

A span is ``[name, start, end, parent, op, error]``: ``parent`` is the index
of the enclosing span (``None`` at the top), ``op`` the id of the op that was
running, ``error`` whether an exception escaped.  Spans stay in memory until
the run ends.  A layer's self time is its span's duration minus the time its
child spans cover; calls run in one thread, so children never overlap.
"""

import functools
import inspect
import time
from collections import Counter, defaultdict


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = None
        self.enabled = True
        self.counts = defaultdict(Counter)  # op -> counter name -> value
        self._undo = []

    def count(self, key, value=1):
        self.counts[self.op][key] += value

    def inside(self, name):
        """True when a span called ``name`` encloses the current call."""
        return any(self.spans[i][0] == name for i in self.stack)

    def wrap(self, name, fn, hook=None):
        """Return ``fn`` recording one span per call.

        ``hook(tracer, *args, **kwargs)`` runs before the call and may return
        a callable that runs after a call that returned normally.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            after = hook(tracer, *args, **kwargs) if hook else None
            span = [name, 0.0, 0.0, tracer.stack[-1] if tracer.stack else None,
                    tracer.op, False]
            tracer.stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[5] = True
                raise
            finally:
                span[2] = time.perf_counter()
                tracer.stack.pop()
            if after:
                after()
            return result

        return traced

    def patch(self, owner, attr, value):
        """Set ``owner.attr`` until :meth:`restore`."""
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def instrument(self, modules, methods=(), hooks=None):
        """Wrap every public function defined in ``modules`` at every name
        binding in ``modules``, plus the listed ``(class, method)`` pairs.

        A function is named ``<module>.<function>`` after the module that
        defines it, whichever module calls it; a method is named
        ``<module>.<Class>.<method>``.
        """
        hooks = hooks or {}
        short = {m.__name__: m.__name__.rsplit(".", 1)[-1] for m in modules}
        wrapped = {}
        for m in modules:
            for attr, obj in list(vars(m).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ not in short):
                    continue
                if id(obj) not in wrapped:
                    name = f"{short[obj.__module__]}.{obj.__name__}"
                    wrapped[id(obj)] = self.wrap(name, obj, hooks.get(name))
                self.patch(m, attr, wrapped[id(obj)])
        for cls, attr in methods:
            name = f"{short[cls.__module__]}.{cls.__name__}.{attr}"
            self.patch(cls, attr, self.wrap(name, cls.__dict__[attr], hooks.get(name)))

    def restore(self):
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    def op_span(self, op):
        """Open the root span of one op; close it with :meth:`end_op`."""
        self.op = op
        self.stack.append(len(self.spans))
        self.spans.append(["op", time.perf_counter(), 0.0, None, op, False])

    def end_op(self, error=False):
        span = self.spans[self.stack.pop()]
        span[2] = time.perf_counter()
        span[5] = error
        self.op = None

    def summary(self, ops):
        """Per-function calls, self seconds and escaped errors over ``ops``,
        plus the share of op wall time covered by top-level spans."""
        ops = set(ops)
        covered = [0.0] * len(self.spans)
        for s in self.spans:
            if s[3] is not None:
                covered[s[3]] += s[2] - s[1]
        funcs = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "errors": 0})
        op_time = top_time = 0.0
        for i, s in enumerate(self.spans):
            if s[4] not in ops:
                continue
            if s[0] == "op":
                op_time += s[2] - s[1]
                top_time += covered[i]
                continue
            f = funcs[s[0]]
            f["calls"] += 1
            f["self_s"] += s[2] - s[1] - covered[i]
            f["errors"] += s[5]
        return dict(funcs), (top_time / op_time if op_time > 0 else 0.0)
