"""Outside-in tracer: spans around crlink's functions, patched from outside.

`Tracer.install(modules)` wraps every function and method defined in the
given modules, on its class and in every module namespace (or module-level
dict) that binds the same object, so `from .isometry import classify` in
another module and aliases such as `__rmul__ = __mul__` are covered too.
`uninstall()` puts every original object back.

A call opens a span when it crosses into a module from outside it, or when
its function is a named metric.  Calls that stay inside the caller's module
run unwrapped-fast and their time stays in that module's self time.  Per
name the tracer keeps call counts, inclusive seconds (outermost call only,
so recursion is not counted twice) and self seconds (duration minus child
spans).  A post hook runs after its call's clock stops, and its time is
taken out of every enclosing span, so the tracer's own measurements do not
count as crlink's time.  Raw spans (id, parent, op, name, start, end) are
kept in memory up to a budget and written out by the caller at the end of
the run.
"""

from __future__ import annotations

import functools
import time
import types

SPAN_BUDGET = 50_000  # raw spans kept in memory; aggregates cover every call
# Hooks the interpreter calls implicitly; crlink's __setattr__ only raises.
_SKIP = {"__setattr__", "__getattribute__", "__getattr__", "__new__",
         "__init_subclass__", "__class_getitem__", "__del__"}


class Tracer:
    def __init__(self, named=None, counted=(), post=None, clock=time.perf_counter):
        """named: {(module, qualname): metric}, spans even for intra-module
        calls.  counted: (module, qualname) pairs whose calls are counted
        without a span.  post: {(module, qualname): fn(result)} run after
        the call, outside every span's time."""
        self.named = dict(named or {})
        self.counted = set(counted)
        self.post = dict(post or {})
        self.clock = clock
        self.names = []           # span name per index
        self.module_of = []       # module name per index
        self.calls = []
        self.total = []
        self.self_time = []
        self._active = []         # nesting depth of each name
        self.spans = []
        self.span_count = 0
        self.op_id = -1
        # frames: [index, module, child_seconds, span_id, hook_seconds]
        self._stack = []
        self._patches = []        # (container, key, original)

    # -- wrapping ---------------------------------------------------------

    def _index(self, name, module):
        self.names.append(name)
        self.module_of.append(module)
        self.calls.append(0)
        self.total.append(0.0)
        self.self_time.append(0.0)
        self._active.append(0)
        return len(self.names) - 1

    def _count_wrapper(self, fn, idx):
        calls = self.calls

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            calls[idx] += 1
            return fn(*args, **kwargs)

        return counted

    def _span_wrapper(self, fn, idx, module, always, post):
        stack = self._stack
        clock = self.clock
        calls, total, self_time, active = self.calls, self.total, self.self_time, self._active
        spans = self.spans
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not always and stack and stack[-1][1] == module:
                return fn(*args, **kwargs)
            span_id = tracer.span_count
            tracer.span_count = span_id + 1
            frame = [idx, module, 0.0, span_id, 0.0]
            parent = stack[-1][3] if stack else -1
            stack.append(frame)
            active[idx] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                active[idx] -= 1
                d = t1 - t0 - frame[4]  # hooks of nested calls do not count
                calls[idx] += 1
                if not active[idx]:
                    total[idx] += d
                self_time[idx] += d - frame[2]
                if stack:
                    stack[-1][2] += d
                    stack[-1][4] += frame[4]
                if len(spans) < SPAN_BUDGET:
                    spans.append((span_id, parent, tracer.op_id, idx, t0, t1))
            if post is not None:
                post(result)
                if stack:
                    stack[-1][4] += clock() - t1
            return result

        return traced

    def _wrap(self, fn, module, qualname):
        key = (module, qualname)
        name = self.named.get(key, f"{module}.{qualname}")
        idx = self._index(name, module)
        if key in self.counted:
            return self._count_wrapper(fn, idx)
        return self._span_wrapper(fn, idx, module, key in self.named, self.post.get(key))

    # -- install / uninstall ----------------------------------------------

    def install(self, modules):
        """Patch every function and method defined in `modules` (module
        objects; the short name is the part after the last dot)."""
        short = {m.__name__: m.__name__.rsplit(".", 1)[-1] for m in modules}
        wrapped = {}  # id(original function) -> wrapper

        def wrapper_for(fn, owner):
            if id(fn) not in wrapped:
                wrapped[id(fn)] = (fn, self._wrap(fn, short[owner], fn.__qualname__))
            return wrapped[id(fn)][1]

        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if isinstance(obj, type) and obj.__module__ == mod.__name__:
                    self._patch_class(obj, mod.__name__, wrapper_for)
                elif isinstance(obj, types.FunctionType) and obj.__module__ == mod.__name__:
                    wrapper_for(obj, mod.__name__)
        originals = {key: fn for key, (fn, _) in wrapped.items()}
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("__"):
                    continue
                if id(obj) in originals and obj is originals[id(obj)]:
                    self._set(mod, attr, wrapped[id(obj)][1], obj)
                elif isinstance(obj, dict):
                    for key, value in list(obj.items()):
                        if id(value) in originals and value is originals[id(value)]:
                            self._set(obj, key, wrapped[id(value)][1], value)
        return self

    def _patch_class(self, cls, module, wrapper_for):
        for attr, raw in list(vars(cls).items()):
            if attr in _SKIP:
                continue
            if isinstance(raw, types.FunctionType):
                new = wrapper_for(raw, module)
            elif isinstance(raw, (classmethod, staticmethod)) and isinstance(
                raw.__func__, types.FunctionType
            ):
                new = type(raw)(wrapper_for(raw.__func__, module))
            elif isinstance(raw, property) and isinstance(raw.fget, types.FunctionType):
                new = property(wrapper_for(raw.fget, module),
                               raw.fset, raw.fdel, raw.__doc__)
            else:
                continue
            self._set(cls, attr, new, raw)

    def _set(self, container, key, new, original):
        self._patches.append((container, key, original))
        if isinstance(container, dict):
            container[key] = new
        else:
            setattr(container, key, new)

    def uninstall(self):
        while self._patches:
            container, key, original = self._patches.pop()
            if isinstance(container, dict):
                container[key] = original
            else:
                setattr(container, key, original)

    # -- results ------------------------------------------------------------

    def stats(self):
        """{name: (calls, inclusive seconds, self seconds)}, merged by name."""
        out = {}
        for k, name in enumerate(self.names):
            c, t, s = out.get(name, (0, 0.0, 0.0))
            out[name] = (c + self.calls[k], t + self.total[k], s + self.self_time[k])
        return out

    def module_self(self):
        out = {}
        for k, module in enumerate(self.module_of):
            out[module] = out.get(module, 0.0) + self.self_time[k]
        return out
