"""Outside-in span tracing of the cellmat modules.

The tracer wraps the public functions and methods listed in SPANS at every
place they are bound inside the loaded ``cellmat`` modules (a function
imported by name into another module is wrapped there too), so the
program itself is not edited.  Each wrapped call is one span; a span's
self time is its duration minus the durations of the spans it directly
contains.  The code under test is single-threaded, so one stack suffices.

Band solves are split by the class of the wavevector passed to the
preceding ``bloch.bloch_transform`` call; see ``classify_k``.
"""

import functools
import importlib
import math
import statistics
import sys
import time
import warnings
from contextlib import contextmanager

# (module under cellmat, attribute); "Class.method" patches the class
SPANS = (
    ("config", "parse_config"),
    ("gridio", "read_grid"),
    ("mesh", "build_mesh"),
    ("element", "element_matrices"),
    ("design", "PDEFilter.__init__"),
    ("design", "PDEFilter.apply"),
    ("design", "PDEFilter.adjoint"),
    ("fem", "assemble"),
    ("fem", "PinnedSolver.__init__"),
    ("fem", "PinnedSolver.solve"),
    ("homogenize", "homogenize"),
    ("stress", "element_stresses"),
    ("bloch", "buckling_strength"),
    ("bloch", "bloch_transform"),
    ("bloch", "fold"),
    ("bloch", "solve_band"),
    ("sensitivity", "grad_ebar"),
    ("sensitivity", "stress_grad"),
    ("sensitivity", "stability_grad"),
    ("sensitivity", "chain_to_design"),
    ("aggregate", "KSAggregator.__call__"),
    ("mma", "MMA.update"),
    ("optimize", "evaluate_problem"),
    ("optimize", "optimize"),
    ("pipeline", "evaluate_design"),
)

BAND_CLASSES = ("pinned", "near0", "realphase", "complex")
NEAR0_RADIUS = 1e-3


def span_name(module, attr):
    name = attr.replace("__init__", "init").replace("__call__", "call")
    return f"{module}.{name}"


def span_names():
    """Every span the tracer can report, band solves split by class."""
    out = []
    for module, attr in SPANS:
        name = span_name(module, attr)
        if name == "bloch.solve_band":
            out.extend(f"{name}.{c}" for c in BAND_CLASSES)
        else:
            out.append(name)
    return out


def classify_k(k):
    """Band-solve class of a wavevector: pinned, near0, realphase, complex."""
    kx, ky = (float(c) for c in k)
    if kx == 0.0 and ky == 0.0:
        return "pinned"
    if math.hypot(kx, ky) < NEAR0_RADIUS:
        return "near0"
    if all(c == 0.0 or abs(abs(c) - math.pi) < 1e-12 for c in (kx, ky)):
        return "realphase"
    return "complex"


class Tracer:
    """Span stack, per-span totals and the counters read at span bounds."""

    def __init__(self, clock=time.perf_counter):
        self._clock = clock
        self._hidden = 0.0      # tracer bookkeeping kept out of every span
        self._stack = []        # [name, start, time covered by children]
        self._patches = []      # (owner, attribute, original value)
        self._last_k = None
        self.calls = {}
        self.self_s = {}
        self.total_s = {}
        self.band_fallbacks = 0
        self.lu_nnz = []

    def now(self):
        return self._clock() - self._hidden

    @contextmanager
    def span(self, name):
        self._stack.append([name, self.now(), 0.0])
        try:
            yield
        finally:
            name, start, covered = self._stack.pop()
            dur = self.now() - start
            self.calls[name] = self.calls.get(name, 0) + 1
            self.self_s[name] = self.self_s.get(name, 0.0) + dur - covered
            self.total_s[name] = self.total_s.get(name, 0.0) + dur
            if self._stack:
                self._stack[-1][2] += dur

    @contextmanager
    def hidden(self):
        """Time spent here is charged to no span (tracer's own reads)."""
        t = self._clock()
        try:
            yield
        finally:
            self._hidden += self._clock() - t

    # -- wrappers ---------------------------------------------------------

    def _plain(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return wrapper

    def _bloch_transform(self, name, fn):
        @functools.wraps(fn)
        def wrapper(mesh, k, *args, **kwargs):
            self._last_k = tuple(float(c) for c in k)
            with self.span(name):
                return fn(mesh, k, *args, **kwargs)
        return wrapper

    def _solve_band(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            cls = classify_k(self._last_k) if self._last_k else "complex"
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                with self.span(f"{name}.{cls}"):
                    out = fn(*args, **kwargs)
            if any(issubclass(w.category, RuntimeWarning) for w in caught):
                self.band_fallbacks += 1
            for w in caught:
                warnings.warn_explicit(w.message, w.category, w.filename,
                                       w.lineno)
            return out
        return wrapper

    def _pinned_init(self, name, fn):
        @functools.wraps(fn)
        def wrapper(obj, *args, **kwargs):
            with self.span(name):
                fn(obj, *args, **kwargs)
            with self.hidden():
                self.lu_nnz.append(int(obj.lu.L.nnz + obj.lu.U.nnz))
        return wrapper

    def _wrapper_for(self, name, fn):
        special = {"bloch.bloch_transform": self._bloch_transform,
                   "bloch.solve_band": self._solve_band,
                   "fem.PinnedSolver.init": self._pinned_init}
        return special.get(name, self._plain)(name, fn)

    # -- installation -----------------------------------------------------

    def install(self):
        """Wrap every SPANS entry wherever a loaded cellmat module binds it."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        homes = {m: importlib.import_module(f"cellmat.{m}") for m, _ in SPANS}
        mods = [m for key, m in list(sys.modules.items())
                if m is not None and (key == "cellmat"
                                      or key.startswith("cellmat."))]
        for module, attr in SPANS:
            home = homes[module]
            name = span_name(module, attr)
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(home, cls_name)
                original = owner.__dict__[meth]
                self._patch(owner, meth, original,
                            self._wrapper_for(name, original))
                continue
            original = getattr(home, attr)
            wrapper = self._wrapper_for(name, original)
            for mod in mods:
                for key, val in list(vars(mod).items()):
                    if val is original:
                        self._patch(mod, key, original, wrapper)

    def _patch(self, owner, key, original, wrapper):
        self._patches.append((owner, key, original))
        setattr(owner, key, wrapper)

    def uninstall(self):
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    # -- results ----------------------------------------------------------

    def metrics(self, root, wall_s):
        """Per-layer metrics of one traced timed call.

        root is the span of the timed call and wall_s its wall time as the
        caller measured it; trace.coverage is the share of that time the
        root's child spans account for.
        """
        out = {}
        for name in span_names():
            out[f"{name}.calls"] = (self.calls.get(name, 0), "count")
            out[f"{name}.self_s"] = (self.self_s.get(name, 0.0), "s")
        solves = sum(self.calls.get(f"bloch.solve_band.{c}", 0)
                     for c in BAND_CLASSES)
        out["bloch.solve_band.fallbacks"] = (self.band_fallbacks, "count")
        out["bloch.solve_band.fallback_frac"] = (
            self.band_fallbacks / solves if solves else 0.0, "ratio")
        out["fem.PinnedSolver.lu_nnz"] = (
            int(statistics.median(self.lu_nnz)) if self.lu_nnz else 0,
            "count")
        covered = self.total_s.get(root, 0.0) - self.self_s.get(root, 0.0)
        out["trace.coverage"] = (covered / wall_s, "ratio")
        return out
