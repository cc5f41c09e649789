"""In-memory span tracing of corrnoise's public functions, from outside the package.

``Tracer.install()`` replaces every public function of every corrnoise
module at each name a caller looks it up under: a module's own global
(``corrnoise.tree_baseline.full_decoder``, called by ``eval_tree``), each
importing module's global (``corrnoise.cli.eval_tree``) and the package
namespace (``corrnoise.optimize_blt``). Names that do not exist are simply
not wrapped, so their metrics come out absent rather than crashing.

Spans are aggregated as they close, never stored: per function (calls,
inclusive seconds), per call site, and per module (calls, seconds spent in
outermost spans of that module, and self seconds, i.e. span time not
covered by child spans). A span opened on a worker thread whose own stack
is empty is parented to the innermost open span of the installing thread,
which is blocked waiting for the worker (the sweep's thread pool).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import threading
import time
from collections import defaultdict

PACKAGE = "corrnoise"
LAYERS = (
    "blt_core",
    "participation",
    "loss_metrics",
    "tree_baseline",
    "blt_optimizer",
    "accountant",
    "ftrl_sim",
    "cli",
)


class _Span:
    __slots__ = ("label", "module", "start", "child_s", "parent")

    def __init__(self, label, module, parent):
        self.label = label
        self.module = module
        self.parent = parent
        self.child_s = 0.0
        self.start = time.perf_counter()


class Tracer:
    """Wraps, aggregates and restores; one instance per traced phase."""

    def __init__(self, hooks=None):
        # hooks: label -> callable(args, kwargs, result, stats) adding
        # per-function counters (e.g. infeasible probes of blt_loss)
        self.hooks = hooks or {}
        self.fn_calls = defaultdict(int)
        self.fn_s = defaultdict(float)
        self.site_s = defaultdict(float)  # (site module, label) -> seconds
        self.mod_calls = defaultdict(int)
        self.mod_s = defaultdict(float)
        self.mod_self_s = defaultdict(float)
        self.extra = {}  # written by hooks
        self.wrapped_labels = set()
        self.layers_present = set()
        self._saved = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._main_stack = None

    # -- installation -------------------------------------------------

    def _stack(self):
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def install(self):
        pkg = importlib.import_module(PACKAGE)
        namespaces = [(PACKAGE, pkg)]
        for layer in LAYERS:
            try:
                namespaces.append((layer, importlib.import_module(f"{PACKAGE}.{layer}")))
            except ImportError:
                continue
            self.layers_present.add(layer)
        self._main_stack = self._stack()
        for site, ns in namespaces:
            for name, obj in list(vars(ns).items()):
                if name.startswith("_") or not inspect.isfunction(obj):
                    continue
                home = getattr(obj, "__module__", "") or ""
                if not home.startswith(PACKAGE + "."):
                    continue
                layer = home.split(".", 1)[1]
                label = f"{layer}.{obj.__name__}"
                self._saved.append((ns, name, obj))
                setattr(ns, name, self._wrap(obj, label, layer, site))
                self.wrapped_labels.add(label)
        return self

    def uninstall(self):
        for ns, name, obj in reversed(self._saved):
            setattr(ns, name, obj)
        self._saved.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    # -- span bookkeeping ---------------------------------------------

    def _wrap(self, fn, label, layer, site):
        hook = self.hooks.get(label)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            if parent is None and stack is not tracer._main_stack and tracer._main_stack:
                parent = tracer._main_stack[-1]
            span = _Span(label, layer, parent)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer._close(span, end - span.start, site)
            if hook is not None:
                hook(args, kwargs, result, tracer.extra)
            return result

        return wrapper

    def _close(self, span, dur, site):
        with self._lock:
            self.fn_calls[span.label] += 1
            self.fn_s[span.label] += dur
            self.site_s[(site, span.label)] += dur
            self.mod_calls[span.module] += 1
            self.mod_self_s[span.module] += dur - span.child_s
            # a span counts toward its module's inclusive time only when no
            # enclosing span belongs to the same module (no double counting)
            anc = span.parent
            while anc is not None and anc.module != span.module:
                anc = anc.parent
            if anc is None:
                self.mod_s[span.module] += dur
            if span.parent is not None:
                span.parent.child_s += dur
