"""Call tracing of skewlab's layers, installed from outside the package.

Tracer.install() replaces each layer module's public functions, the public
methods and arithmetic operators of its classes, and every alias other
modules imported, with a wrapper that counts the call and times it.  Traced
names are "<module>.<function>" and "<module>.<Class>.<method>" without the
"skewlab." prefix.

Self time of a layer is the time its calls ran minus the time of the traced
calls they made; the wrappers' own cost is kept out of every layer and shows
up in the caller's unattributed time.  The time codes waits for its --jobs
worker processes is a layer of its own, "pool"; the workers' calls are not
traced.  Calls that last at least
SPAN_MIN_S are kept as spans (id, name, start, end, parent id) in memory.
"""

import importlib
import inspect
import time
from collections import Counter, defaultdict
from concurrent.futures import ProcessPoolExecutor

LAYERS = {
    "fields": ("skewlab.fields",),
    "polyring": ("skewlab.polyring", "skewlab.modpoly"),
    "skewpoly": ("skewlab.skewpoly",),
    "quotient": ("skewlab.quotient",),
    "codes": ("skewlab.codes",),
    "semifields": ("skewlab.semifields",),
    "linalg": ("skewlab.linalg",),
    "ffexamples": ("skewlab.ffexamples",),
    "cli": ("skewlab.cli",),
}
# private names traced because a per-layer metric needs them
EXTRA = {"skewlab.cli": ("_emit",), "skewlab.polyring": ("_gcd_coeff_lists",)}
OPERATORS = (
    "__add__", "__sub__", "__neg__", "__mul__", "__truediv__", "__pow__",
    "__divmod__", "__mod__", "__floordiv__",
)
SPAN_MIN_S = 1e-3


class Tracer:
    def __init__(self):
        self.calls = Counter()  # traced name -> calls
        self.incl_s = Counter()  # traced name -> inclusive seconds
        self.self_s = defaultdict(float)  # layer -> self seconds
        self.spans = []
        self._stack = []  # [span id, seconds of traced children]
        self._next_id = 0
        self._patches = []

    # ------------------------------------------------------------ wrapping --

    def _wrap(self, layer, name, fn):
        tracer = self
        clock = time.perf_counter
        stack = self._stack
        calls = self.calls
        incl = self.incl_s
        self_s = self.self_s

        def traced(*args, **kwargs):
            enter = clock()
            sid = tracer._next_id
            tracer._next_id = sid + 1
            parent = stack[-1][0] if stack else -1
            frame = [sid, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                self_s[layer] += dur - frame[1]
                calls[name] += 1
                incl[name] += dur
                if dur >= SPAN_MIN_S:
                    tracer.spans.append((sid, name, t0, t1, parent))
                if stack:
                    stack[-1][1] += clock() - enter

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__module__ = getattr(fn, "__module__", None)
        traced.__doc__ = getattr(fn, "__doc__", None)
        traced.__wrapped__ = fn
        return traced

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        modules = {
            m: (layer, importlib.import_module(m))
            for layer, names in LAYERS.items()
            for m in names
        }
        wrapped = {}  # id(original function) -> wrapper
        for mod_name, (layer, mod) in modules.items():
            for attr, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod_name:
                    continue
                if inspect.isfunction(obj) and (
                    not attr.startswith("_") or attr in EXTRA.get(mod_name, ())
                ):
                    w = self._wrap(layer, f"{mod_name[8:]}.{attr}", obj)
                    wrapped[id(obj)] = w
                    self._set(mod, attr, w)
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    self._wrap_class(layer, obj)
        # rebind the names other modules imported (from .x import f)
        for _, mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                w = wrapped.get(id(obj))
                if w is not None and mod.__dict__[attr] is not w:
                    self._set(mod, attr, w)
        self._set(modules["skewlab.codes"][1], "ProcessPoolExecutor", self._pool_class())

    def _pool_class(self):
        """A ProcessPoolExecutor whose waits for its workers are the "pool"
        layer, so they are not codes self time.  map() collects its results
        inside the traced call; codes lists them at once anyway."""

        def collect(pool, *args, **kwargs):
            return iter(list(ProcessPoolExecutor.map(pool, *args, **kwargs)))

        return type("ProcessPoolExecutor", (ProcessPoolExecutor,), {
            "map": self._wrap("pool", "pool.map", collect),
            "shutdown": self._wrap("pool", "pool.shutdown", ProcessPoolExecutor.shutdown),
        })

    def _wrap_class(self, layer, cls):
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_") and attr not in OPERATORS:
                continue
            name = f"{cls.__module__[8:]}.{cls.__name__}.{attr}"
            if isinstance(obj, (classmethod, staticmethod)):
                self._set(cls, attr, type(obj)(self._wrap(layer, name, obj.__func__)))
            elif inspect.isfunction(obj):
                self._set(cls, attr, self._wrap(layer, name, obj))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # ------------------------------------------------------------- queries --

    def count(self, *names):
        """Total calls of the traced names; a name ending in '.' matches
        every traced name with that prefix."""
        return sum(self._matching(self.calls, names))

    def seconds(self, *names):
        """Total inclusive seconds of the traced names (prefixes as above)."""
        return sum(self._matching(self.incl_s, names))

    @staticmethod
    def _matching(table, names):
        for key, value in table.items():
            if any(key == n or (n.endswith(".") and key.startswith(n)) for n in names):
                yield value
