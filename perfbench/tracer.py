"""Span tracer for the benchmark's traced runs, and its cProfile cross-check.

The tracer wraps mvlab's public functions from outside: every module
global, package attribute, class attribute, ``lru_cache`` wrapper and
default argument that holds one of the functions in ``LAYERS`` is
replaced by a wrapper that counts the call and records a span. A call
of a function that is already open (the recursive ``a_direct``) is
counted but opens no span, so a span's self time is the time spent in
that function's own frames plus everything it calls that is not itself
a layer function.

Spans are kept in memory as tuples and written out once the run ends.
"""

from __future__ import annotations

import cProfile
import functools
import inspect
import itertools
import os
import pstats
import sys
from time import perf_counter

# (layer name, module, attribute path). Every name gets .calls and .self_s.
LAYERS = (
    ("exact.laurent_dt", "exact", "laurent_dt"),
    ("exact.bernoulli", "exact", "bernoulli"),
    ("exact.pochhammer", "exact", "pochhammer"),
    ("exact.LaurentT.mul", "exact", "LaurentT.__mul__"),
    ("exact.GaussianRat.mul", "exact", "GaussianRat.__mul__"),
    ("genus.tilde_u", "genus", "tilde_u"),
    ("genus.u_from_tilde", "genus", "u_from_tilde"),
    ("genus.u_direct", "genus", "u_direct"),
    ("genus.coeffs_C", "genus", "coeffs_C"),
    ("genus.kazarian_c", "genus", "kazarian_c"),
    ("genus.agn_from_series", "genus", "agn_from_series"),
    ("agn.a_direct", "agn", "a_direct"),
    ("agn.a_alt", "agn", "a_alt"),
    ("agn.build_table", "agn", "build_table"),
    ("agn.save_table", "agn", "save_table"),
    ("agn.load_table", "agn", "load_table"),
    ("volumes.sv_constant", "volumes", "sv_constant"),
    ("asym.normalize_vol", "asym", "normalize_vol"),
    ("asym.richardson_fit", "asym", "richardson_fit"),
    ("asym.compare_report", "asym", "compare_report"),
    ("funceq.verify_functional_eqs", "funceq", "verify_functional_eqs"),
    ("verify.run_suite", "verify", "run_suite"),
    ("cli.main", "cli", "main"),
)

# Layers whose distinct argument tuples are the cells they filled.
CELL_LAYERS = ("agn.a_direct", "agn.a_alt")
# Layers whose results are genus profiles (LaurentT).
PROFILE_LAYERS = ("genus.tilde_u", "genus.u_from_tilde", "genus.u_direct")

STEP_LAYER = "bench"  # the benchmark's own code between layer calls


def _resolve(pkg_name: str, module: str, path: str):
    obj = sys.modules[f"{pkg_name}.{module}"]
    owner = None
    for part in path.split("."):
        owner, obj = obj, getattr(obj, part)
    return owner, path.split(".")[-1], obj


def _code_key(fn) -> tuple:
    code = fn.__code__
    return (code.co_filename, code.co_firstlineno, code.co_name)


def layer_functions(pkg_name: str = "mvlab") -> dict:
    """Map each layer name to the original function object."""
    return {name: _resolve(pkg_name, mod, path)[2] for name, mod, path in LAYERS}


def _package_modules(pkg_name: str) -> list:
    return [
        m for name, m in list(sys.modules.items())
        if m is not None and (name == pkg_name or name.startswith(pkg_name + "."))
    ]


class Tracer:
    """Counts and spans at the layer boundaries of one process."""

    def __init__(self):
        self.names = [STEP_LAYER] + [name for name, _, _ in LAYERS]
        self.calls = [0] * len(self.names)
        self.active = [False] * len(self.names)
        self.spans: list[tuple] = []  # (step, span id, parent id, name index, start, end)
        self.stack = [-1]
        self.step_id = -1
        self._ids = itertools.count()
        self.cells = {name: {} for name in CELL_LAYERS}
        self.profiles: dict[int, object] = {}
        self.saved_paths: list[str] = []

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, name: str, fn):
        idx = self.names.index(name)
        calls, active, stack, spans, ids = (
            self.calls, self.active, self.stack, self.spans, self._ids
        )
        tracer = self

        def traced(*args, **kwargs):
            calls[idx] += 1
            if active[idx]:
                return fn(*args, **kwargs)
            active[idx] = True
            sid = next(ids)
            parent = stack[-1]
            stack.append(sid)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                active[idx] = False
                spans.append((tracer.step_id, sid, parent, idx, t0, t1))

        if name in CELL_LAYERS:
            cells = self.cells[name]

            def outer(*args, **kwargs):
                val = traced(*args, **kwargs)
                cells[args] = val
                return val
        elif name in PROFILE_LAYERS:
            profiles = self.profiles

            def outer(*args, **kwargs):
                val = traced(*args, **kwargs)
                profiles[id(val)] = val
                return val
        elif name == "agn.save_table":
            saved = self.saved_paths

            def outer(table, path):
                traced(table, path)
                saved.append(os.fspath(path))
        else:
            outer = traced
        return functools.update_wrapper(outer, fn)

    def install(self, pkg_name: str = "mvlab") -> None:
        """Replace every binding of every layer function in the package."""
        originals = layer_functions(pkg_name)
        wrappers = {}
        for name, mod, path in LAYERS:
            owner, attr, fn = _resolve(pkg_name, mod, path)
            wrappers[id(fn)] = self._wrap(name, fn)
            if inspect.isclass(owner):
                setattr(owner, attr, wrappers[id(fn)])
        functions = list(originals.values())
        for module in _package_modules(pkg_name):
            for attr, val in list(vars(module).items()):
                if id(val) in wrappers:
                    setattr(module, attr, wrappers[id(val)])
                elif (isinstance(val, functools._lru_cache_wrapper)
                      and id(val.__wrapped__) in wrappers):
                    # A cold cache around a layer function: rebuild it
                    # around the wrapper so that misses are counted.
                    rebuilt = functools.lru_cache(maxsize=None)(wrappers[id(val.__wrapped__)])
                    setattr(module, attr, rebuilt)
                elif inspect.isfunction(val):
                    functions.append(val)
                elif inspect.isclass(val) and val.__module__.startswith(pkg_name):
                    functions.extend(v for v in vars(val).values() if inspect.isfunction(v))
        for fn in functions:
            if fn.__defaults__ and any(id(d) in wrappers for d in fn.__defaults__):
                fn.__defaults__ = tuple(wrappers.get(id(d), d) for d in fn.__defaults__)
        missed = unwrapped_bindings(pkg_name, originals)
        if missed:
            raise RuntimeError(f"layer functions still bound unwrapped at {missed}")

    # -- steps and results ------------------------------------------------

    def begin_step(self, step_id: int, t0: float) -> None:
        """Open the root span of one workload step, started at t0."""
        self.step_id = step_id
        self.stack.append(-2 - step_id)  # span ids of steps are negative
        self._step_t0 = t0

    def end_step(self, t1: float) -> None:
        sid = self.stack.pop()
        self.spans.append((self.step_id, sid, -1, 0, self._step_t0, t1))

    def self_times(self) -> dict:
        """Self time per layer; per step, the sum of self times next to
        the duration of the step's root span; and per layer whether any
        span had a negative self time, which a wrong parent link causes."""
        child_time: dict[int, float] = {}
        for _, sid, parent, _, t0, t1 in self.spans:
            child_time[parent] = child_time.get(parent, 0.0) + (t1 - t0)
        per_layer = {name: 0.0 for name in self.names}
        negative = {name: False for name in self.names}
        per_step: dict[int, list] = {}
        for step, sid, parent, idx, t0, t1 in self.spans:
            own = (t1 - t0) - child_time.get(sid, 0.0)
            per_layer[self.names[idx]] += own
            negative[self.names[idx]] |= own < -1e-9
            entry = per_step.setdefault(step, [0.0, 0.0])
            entry[0] += own
            if parent == -1:
                entry[1] += t1 - t0
        return {"layers": per_layer, "steps": per_step, "negative": negative}

    def call_counts(self) -> dict:
        return dict(zip(self.names[1:], self.calls[1:]))

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("step\tspan\tparent\tname\tstart_s\tend_s\n")
            for step, sid, parent, idx, t0, t1 in self.spans:
                fh.write(f"{step}\t{sid}\t{parent}\t{self.names[idx]}\t{t0!r}\t{t1!r}\n")


def unwrapped_bindings(pkg_name: str, originals: dict) -> list[str]:
    """Places in the package that still hold an original layer function."""
    ids = {id(f) for f in originals.values()}
    missed = []
    for module in _package_modules(pkg_name):
        for attr, val in vars(module).items():
            if id(val) in ids:
                missed.append(f"{module.__name__}.{attr}")
            elif isinstance(val, functools._lru_cache_wrapper) and id(val.__wrapped__) in ids:
                missed.append(f"{module.__name__}.{attr} (lru_cache)")
            elif inspect.isfunction(val) and any(id(d) in ids for d in val.__defaults__ or ()):
                missed.append(f"{module.__name__}.{attr} (default argument)")
    for name, fn in originals.items():  # wrapped functions keep their defaults
        if any(id(d) in ids for d in fn.__defaults__ or ()):
            missed.append(f"{name} (default argument)")
    for name, mod, path in LAYERS:
        owner, attr, _ = _resolve(pkg_name, mod, path)
        if inspect.isclass(owner) and id(vars(owner)[attr]) in ids:
            missed.append(f"{owner.__qualname__}.{attr}")
    return missed


def profile_call_counts(profiler: cProfile.Profile, originals: dict) -> dict:
    """Total calls (recursive ones included) of each layer function."""
    stats = pstats.Stats(profiler).stats
    return {
        name: stats[_code_key(fn)][1] if _code_key(fn) in stats else 0
        for name, fn in originals.items()
    }
