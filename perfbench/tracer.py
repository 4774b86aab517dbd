"""Spans around gerk's public functions, recorded from outside the package.

`Tracer.install()` replaces every public function and public method defined in
the layer modules with a wrapper that records one span (name, start, end,
parent) per call, and rebinds the replacement in every gerk module that
imported the name.  Callables returned by a wrapped function (the potential
updaters, the experiment instance generator) and the hooks passed to
`solver.run` are wrapped too, so each updater call and each checkpoint gets
its own span.  `uninstall()` puts every original back.

Spans live in flat arrays in memory; self time is a span's duration minus the
durations of its children (calls are nested and single-threaded, so children
never overlap).
"""

import sys
import time
import types
from array import array

import numpy as np

LAYERS = ("rng", "blocks", "potentials", "solver", "linalg", "oracles", "experiments",
          "certificates", "fileio")

# draws each rng method consumes, for counting draws per solver iteration
_DRAW_UNITS = {
    "rng.RngStream.random": lambda args, kwargs: 1.0,
    "rng.RngStream.next_u64": lambda args, kwargs: 1.0,
    "rng.RngStream.random_array": lambda args, kwargs: float(
        args[1] if len(args) > 1 else kwargs["size"]),
}


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("q")
        self.parent = array("q")
        self.units = array("d")
        self._stack = [-1]
        self._undo = []

    def wrap(self, name, fn):
        """fn with a span named `name` around every call."""
        nid = self._ids.setdefault(name, len(self._ids))
        if nid == len(self.names):
            self.names.append(name)
        units = _DRAW_UNITS.get(name)
        clock = time.perf_counter
        stack, start, end = self._stack, self.start, self.end
        name_arr, parent, unit_arr = self.name, self.parent, self.units
        wrap = self.wrap

        def traced(*args, **kwargs):
            idx = len(start)
            name_arr.append(nid)
            parent.append(stack[-1])
            unit_arr.append(units(args, kwargs) if units else 0.0)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if isinstance(result, types.FunctionType):
                result = wrap(name + "()", result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _wrap_run(self, fn):
        # solver.run: each hook call becomes a child span of run
        inner = self.wrap("solver.run", fn)

        def hook_span(hook):
            cls = type(hook)
            layer = cls.__module__.rsplit(".", 1)[-1]
            return self.wrap(f"{layer}.{cls.__name__}.__call__", hook)

        def run(*args, **kwargs):
            if "hooks" in kwargs:
                kwargs["hooks"] = tuple(hook_span(h) for h in kwargs["hooks"])
            elif len(args) > 3:
                args = args[:3] + (tuple(hook_span(h) for h in args[3]),) + args[4:]
            return inner(*args, **kwargs)

        return run

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        replaced = {}
        for layer in LAYERS:
            mod = sys.modules[f"gerk.{layer}"]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if isinstance(obj, types.FunctionType):
                    if f"{layer}.{attr}" == "solver.run":
                        replaced[obj] = self._wrap_run(obj)
                    else:
                        replaced[obj] = self.wrap(f"{layer}.{attr}", obj)
                elif isinstance(obj, type):
                    for meth_name, meth in list(vars(obj).items()):
                        if not meth_name.startswith("_") and isinstance(meth, types.FunctionType):
                            self._set(obj, meth_name, self.wrap(f"{layer}.{attr}.{meth_name}", meth))
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "gerk" and not mod_name.startswith("gerk."):
                continue
            for attr, obj in list(vars(mod).items()):
                if isinstance(obj, types.FunctionType) and obj in replaced:
                    self._set(mod, attr, replaced[obj])

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # ------------------------------------------------------------ analysis

    def arrays(self):
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        return (start, end, np.frombuffer(self.name, dtype=np.int64),
                np.frombuffer(self.parent, dtype=np.int64))

    def self_times(self):
        start, end, _, parent = self.arrays()
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        return dur, dur - child

    def _flag_ancestors(self, direct):
        """True where a span or one of its ancestors satisfies `direct`."""
        parent = self.arrays()[3]
        flag = direct.copy()
        up = parent.copy()
        live = np.flatnonzero(up >= 0)
        while live.size:  # one step up the tree per pass; depth is small
            flag[live] |= direct[up[live]]
            up[live] = parent[up[live]]
            live = live[up[live] >= 0]
        return flag

    def summary(self):
        """Per-name and per-layer aggregates plus the counts the metrics need."""
        dur, self_t = self.self_times()
        _, _, name, parent = self.arrays()
        n_names = len(self.names)
        count = np.bincount(name, minlength=n_names)
        total = np.bincount(name, weights=dur, minlength=n_names)
        own = np.bincount(name, weights=self_t, minlength=n_names)
        by_name = {nm: dict(count=int(count[i]), total_s=float(total[i]), self_s=float(own[i]))
                   for i, nm in enumerate(self.names)}
        by_layer = {}
        for i, nm in enumerate(self.names):
            layer = nm.split(".", 1)[0]
            by_layer[layer] = by_layer.get(layer, 0.0) + float(own[i])

        def per_span(pred):
            return np.array([pred(nm) for nm in self.names], dtype=bool)[name]

        def outermost(sel):
            inner = np.zeros_like(sel)
            inner[parent >= 0] = sel[parent[parent >= 0]]
            return sel & ~inner

        is_rng = per_span(lambda nm: nm.startswith("rng."))
        is_solver = per_span(lambda nm: nm.startswith("solver."))
        units = np.frombuffer(self.units, dtype=np.float64)
        under_solver = self._flag_ancestors(is_solver) & ~is_solver
        solver_draws = float(units[outermost(is_rng) & under_solver].sum())

        in_enum = self._flag_ancestors(per_span(lambda nm: nm == "certificates.sigma_tilde_min"))
        svds = int((in_enum & per_span(lambda nm: nm == "linalg.min_positive_singular")).sum())

        writes = outermost(per_span(lambda nm: nm.startswith("fileio.") and "write" in nm))
        return dict(spans=len(name), root_s=float(dur[parent < 0].sum()),
                    self_sum_s=float(self_t.sum()), by_layer=by_layer, by_name=by_name,
                    solver_draws=solver_draws, svds=svds, fileio_write_s=float(dur[writes].sum()))

    def save(self, path):
        start, end, name, parent = self.arrays()
        np.savez_compressed(path, start=start, end=end, name=name, parent=parent,
                            names=np.array(self.names))
