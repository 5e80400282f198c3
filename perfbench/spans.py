"""Outside-in spans around scaleflow's public functions and methods.

The benchmark does not change scaleflow to trace it.  ``install`` replaces
each traced function in every scaleflow module that binds it (a name
imported with ``from .x import f`` is a second binding of the same object)
and each traced method on its class and on every subclass that overrides
it, then checks that no binding of an original is left.

Spans keep one parent stack per thread, so under ``--jobs 2`` a battery
entry running in a pool thread is its own root.  A span's self time is its
duration minus the durations of its direct child spans.
"""

from __future__ import annotations

import functools
import os
import sys
import threading
import time

import numpy as np

# (module, attribute, span name) of traced module-level functions.
FUNCTIONS = [
    ("actions", "certify_group_law", "actions.certify_group_law"),
    ("actions", "certify_absorption", "actions.certify_absorption"),
    ("contraction", "certify_submultiplicative", "contraction.certify_submultiplicative"),
    ("contraction", "fixed_point", "contraction.fixed_point"),
    ("measures", "pushforward_pairing", "measures.pushforward_pairing"),
    ("measures", "verify_homogeneity", "measures.verify_homogeneity"),
    ("quadrature", "integrate_with_refinement", "quadrature.integrate_with_refinement"),
    ("quadrature", "boundary_mass_fraction", "quadrature.boundary_mass_fraction"),
    ("kernels", "pairwise_dot", "kernels.pairwise_dot"),
    ("kernels", "trig_eval", "kernels.trig_eval"),
    ("algebra", "spectral_pairing", "algebra.spectral_pairing"),
    ("sigma", "sigma_pairing_lhs", "sigma.sigma_pairing_lhs"),
    ("sigma", "sigma_pairing_rhs", "sigma.sigma_pairing_rhs"),
    ("sigma", "trace_norm_bound_check", "sigma.trace_norm_bound_check"),
    ("sigma", "verify_sigma_convergence", "sigma.verify_sigma_convergence"),
    ("meanvalue", "empirical_mean", "meanvalue.empirical_mean"),
    ("meanvalue", "convolve", "meanvalue.convolve"),
]

# (module, class, attribute, span name) of traced methods.
METHODS = [
    ("actions", "Action", "apply", "actions.apply"),
    ("groups", "RGroup", "weight", "groups.weight"),
    ("measures", "ConstructedMeasure", "pairing", "measures.ConstructedMeasure.pairing"),
    ("measures", "TestFunction", "__call__", "measures.TestFunction.call"),
    ("quadrature", "QuadratureGrid", "points_and_weights", "quadrature.points_and_weights"),
    ("sigma", "TwoScaleField", "envelope_norm", "sigma.envelope_norm"),
    ("sigma", "TwoScaleField", "trace_values", "sigma.TwoScaleField.trace_values"),
    ("trig", "TrigPolynomial", "__call__", "trig.TrigPolynomial.call"),
]

# Every public function defined in these modules is a span of the layer.
LAYER_MODULES = ("config", "reports")


def _npoints(x) -> int:
    shape = np.shape(x)
    return 1 if len(shape) <= 1 else int(shape[0])


def _first_arg_points(args, kwargs, out) -> int:
    return _npoints(args[1] if len(args) > 1 else next(iter(kwargs.values())))


def _apply_points(args, kwargs, out) -> int:
    return _npoints(args[2] if len(args) > 2 else kwargs["x"])


def _grid_points(args, kwargs, out) -> int:
    return int(out[0].shape[0])


def _dot_points(args, kwargs, out) -> int:
    return int(np.size(args[0]))


# span name -> points extractor(args, kwargs, result)
POINTS = {
    "actions.apply": _apply_points,
    "measures.TestFunction.call": _first_arg_points,
    "quadrature.points_and_weights": _grid_points,
    "kernels.pairwise_dot": _dot_points,
}


class Recorder:
    """Per-thread span stacks and statistics, merged when read."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads = []
        # (id(field), p) -> field, kept alive so ids stay unique
        self.envelope_keys = {}

    def state(self):
        st = getattr(self._local, "state", None)
        if st is None:
            st = {"stack": [], "stats": {}, "counters": {}, "maxima": {}}
            self._local.state = st
            with self._lock:
                self._threads.append(st)
        return st

    def add(self, name: str, value: float) -> None:
        counters = self.state()["counters"]
        counters[name] = counters.get(name, 0) + value

    def peak(self, name: str, value: float) -> None:
        maxima = self.state()["maxima"]
        maxima[name] = max(maxima.get(name, 0), value)

    def span(self, name: str, fn, points=None, after=None):
        """Wrap ``fn`` so each call records a span called ``name``."""
        layer = name.split(".", 1)[0]
        outer = layer in LAYER_MODULES
        perf = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st = self.state()
            stack = st["stack"]
            frame = [name, 0.0, None]  # name, child seconds, evaluated (f, grid) keys
            stack.append(frame)
            start = perf()
            try:
                out = fn(*args, **kwargs)
            finally:
                duration = perf() - start
                stack.pop()
                if stack:
                    stack[-1][1] += duration
                entry = st["stats"].get(name)
                if entry is None:
                    entry = st["stats"][name] = [0, 0.0, 0.0, 0]
                entry[0] += 1
                entry[1] += duration
                entry[2] += duration - frame[1]
                if outer and not any(fr[0].startswith(layer + ".") for fr in stack):
                    # outermost call of the layer: inclusive time, no double count
                    counters = st["counters"]
                    key = f"{layer}.outer_s"
                    counters[key] = counters.get(key, 0.0) + duration
            if points is not None:
                entry[3] += points(args, kwargs, out)
            if after is not None:
                after(args, kwargs, out)
            return out

        return wrapper

    def evaluated(self, f, grid) -> None:
        """Count one evaluation of integrand ``f`` on ``grid``.

        A repeat is an (integrand, grid) pair already evaluated inside the
        innermost enclosing span outside the quadrature layer.
        """
        st = self.state()
        self.add("quadrature.evaluations", 1)
        self.add("quadrature.nodes_evaluated", grid.total_points)
        frame = next((fr for fr in reversed(st["stack"])
                      if not fr[0].startswith("quadrature.")), None)
        if frame is None:
            return
        if frame[2] is None:
            frame[2] = {}
        key = (id(f), grid)
        if key in frame[2]:
            self.add("quadrature.repeat_evaluations", 1)
        else:
            frame[2][key] = f  # holding f keeps its id unique for the frame

    def merged(self) -> dict:
        """Stats, counters and maxima of all threads, merged."""
        with self._lock:
            return merge(list(self._threads))


def merge(parts) -> dict:
    """Sum span stats and counters over ``parts``; keep the largest maxima."""
    out = {"stats": {}, "counters": {}, "maxima": {}}
    for part in parts:
        for name, entry in part["stats"].items():
            total = out["stats"].setdefault(name, [0, 0.0, 0.0, 0])
            for i, value in enumerate(entry):
                total[i] += value
        for name, value in part["counters"].items():
            out["counters"][name] = out["counters"].get(name, 0) + value
        for name, value in part["maxima"].items():
            out["maxima"][name] = max(out["maxima"].get(name, 0), value)
    return out


def _scaleflow_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "scaleflow" or name.startswith("scaleflow."))]


def _bindings(obj) -> list:
    """(module, name) of every scaleflow module global bound to ``obj``."""
    return [(module, key) for module in _scaleflow_modules()
            for key, value in list(vars(module).items()) if value is obj]


def _rebind(original, replacement) -> int:
    """Point every scaleflow module binding of ``original`` at ``replacement``."""
    bindings = _bindings(original)
    for module, key in bindings:
        setattr(module, key, replacement)
    return len(bindings)


def _subclasses(cls):
    yield cls
    for sub in cls.__subclasses__():
        yield from _subclasses(sub)


def install(recorder: Recorder) -> None:
    """Wrap every traced binding; raise if a target is missing or left unwrapped."""
    import scaleflow.cli as cli

    def module(name):
        return sys.modules[f"scaleflow.{name}"]

    originals = []
    targets = list(FUNCTIONS)
    for layer in LAYER_MODULES:
        mod = module(layer)
        targets += [
            (layer, key, f"{layer}.{key}") for key, value in sorted(vars(mod).items())
            if callable(value) and not key.startswith("_") and not isinstance(value, type)
            and getattr(value, "__module__", None) == mod.__name__
        ]
    for mod_name, attr, name in targets:
        original = getattr(module(mod_name), attr)
        after = None
        if name == "quadrature.boundary_mass_fraction":
            after = lambda args, kwargs, out: recorder.evaluated(args[0], args[1])
        elif name == "kernels.trig_eval":
            after = _trig_counts(recorder)
        elif name.startswith("reports.write_"):
            after = lambda args, kwargs, out: recorder.add(
                "reports.bytes", os.path.getsize(args[0]))
        wrapped = recorder.span(name, original, POINTS.get(name), after)
        if _rebind(original, wrapped) == 0:
            raise RuntimeError(f"no binding of scaleflow.{mod_name}.{attr} found")
        originals.append((original, name))

    # integrand evaluations on grids: counted, not a span of their own
    quadrature = module("quadrature")
    on_grid = quadrature.integrate_on_grid

    @functools.wraps(on_grid)
    def integrate_on_grid(f, grid):
        recorder.evaluated(f, grid)
        return on_grid(f, grid)

    _rebind(on_grid, integrate_on_grid)
    originals.append((on_grid, "quadrature.integrate_on_grid"))

    for mod_name, cls_name, attr, name in METHODS:
        base = getattr(module(mod_name), cls_name)
        after = None
        if name == "quadrature.points_and_weights":
            after = lambda args, kwargs, out: recorder.peak(
                "quadrature.max_grid_points", int(out[0].shape[0]))
        elif name == "sigma.envelope_norm":
            after = _envelope_keys(recorder)
        wrapped_any = False
        for cls in _subclasses(base):
            if attr in vars(cls):
                setattr(cls, attr, recorder.span(name, vars(cls)[attr], POINTS.get(name), after))
                wrapped_any = True
        if not wrapped_any:
            raise RuntimeError(f"scaleflow.{mod_name}.{cls_name}.{attr} not found")

    parallel = cli._parallel

    def _parallel(fn, items, jobs):
        def entry(item):
            start = time.perf_counter()
            try:
                return fn(item)
            finally:
                recorder.add("cli.battery_entry_s", time.perf_counter() - start)

        start = time.perf_counter()
        try:
            return parallel(entry, items, jobs)
        finally:
            recorder.add("cli.pool_wall_s", time.perf_counter() - start)
            recorder.add("cli.battery.calls", 1)

    _rebind(parallel, _parallel)
    originals.append((parallel, "cli._parallel"))

    for original, name in originals:
        if _bindings(original):
            raise RuntimeError(f"a binding of {name} escaped the wrapper")


def _trig_counts(recorder: Recorder):
    def after(args, kwargs, out):
        freqs, coeffs, pts = (np.asarray(a) for a in args[:3])
        terms, points = freqs.shape[0], pts.shape[0]
        recorder.add("kernels.trig_eval.term_points", terms * points)
        # computed, not measured: arrays read and written plus the
        # (points, terms) phase and exponential temporaries
        recorder.add(
            "kernels.trig_eval.bytes_computed",
            freqs.nbytes + coeffs.nbytes + pts.nbytes + out.nbytes + terms * points * (8 + 16),
        )

    return after


def _envelope_keys(recorder: Recorder):
    def after(args, kwargs, out):
        field, p = args[0], float(args[1] if len(args) > 1 else kwargs["p"])
        recorder.envelope_keys.setdefault((id(field), p), field)

    return after
