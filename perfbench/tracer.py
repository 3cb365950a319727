"""Span tracing of thinpart's public functions, from outside the package.

`Tracer.install()` replaces every public function of the eight layer
modules, in every ``thinpart`` module namespace that binds it (so
``thinpart.solve``, ``minimal_graph.solve`` and ``cli``'s own import of
``spec_from_json`` all record), plus ``scipy.sparse.linalg.splu`` as the
``minimal_graph.factor`` boundary.  Calls between modules nest, e.g.
``cli.run -> minimal_graph.solve -> minimal_graph.factor``.  Spans stay in
memory; `layer_metrics` reduces them to the per-layer numbers.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from dataclasses import dataclass, field

LAYERS = (
    "cli",
    "minimal_graph",
    "warped_metric",
    "flat_torus",
    "tube_geometry",
    "filler",
    "area_bounds",
    "sweepout",
)

# Per-element helpers called hundreds of thousands of times per pass
# (every CSV value, every coefficient entry).  A span each would measure
# the wrapper, not the layer; their time stays in the caller's self time.
UNTRACED = {"cli.fmt", "warped_metric.n_p"}

EVAL_FUNCTIONS = ("area", "el_residual", "first_variation", "graph_mean_curvature")


@dataclass
class Span:
    name: str          # "<layer>.<function>"
    layer: str
    start: float
    end: float = 0.0
    parent: int = -1   # index into Tracer.spans, -1 for a root span
    error: bool = False
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _stalled_steps(history) -> int:
    """Newton steps whose residual fell by less than half."""
    return sum(1 for a, b in zip(history, history[1:]) if b > 0.5 * a)


def _solve_info(result) -> dict:
    _, report = result
    return {
        "iterations": report.iterations,
        "stalled": _stalled_steps(report.residual_history),
        "pinned": bool(report.pinned_mean),
    }


# What each traced call contributes besides its time; fill comes from
# lu.nnz because reading lu.L / lu.U would copy the factors.
_INFO = {
    "minimal_graph.solve": _solve_info,
    "minimal_graph.factor": lambda lu: {"fill": int(lu.nnz)},
    "warped_metric.check_hypotheses": lambda rep: {"points": int(rep.npoints)},
    "sweepout.interpolate_patches": lambda fam: {
        "patches": sum(len(c.patches) for c in fam.currents)
    },
}


class Tracer:
    """Records spans while installed; `uninstall` restores the originals."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def _wrap(self, name: str, fn):
        layer = name.split(".", 1)[0]
        info = _INFO.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, layer, time.perf_counter(),
                        parent=stack[-1] if stack else -1)
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.error = True
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if info is not None:
                span.info = info(result)
            return result

        return traced

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"thinpart.{layer}")
            for attr, obj in vars(module).items():
                name = f"{layer}.{attr}"
                if (attr.startswith("_") or name in UNTRACED
                        or not inspect.isfunction(obj)
                        or obj.__module__ != module.__name__):
                    continue
                wrappers[id(obj)] = self._wrap(name, obj)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "thinpart" and not mod_name.startswith("thinpart."):
                continue
            for attr, obj in list(vars(module).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    self._patches.append((module, attr, obj))
                    setattr(module, attr, wrapper)
        spla = importlib.import_module("scipy.sparse.linalg")
        self._patches.append((spla, "splu", spla.splu))
        spla.splu = self._wrap("minimal_graph.factor", spla.splu)

    def uninstall(self) -> None:
        for module, attr, obj in reversed(self._patches):
            setattr(module, attr, obj)
        self._patches.clear()

    def records(self) -> list[dict]:
        return [
            {"i": i, "name": s.name, "start": s.start, "end": s.end,
             "parent": s.parent, "error": s.error, **s.info}
            for i, s in enumerate(self.spans)
        ]


def layer_metrics(spans: list[Span]) -> dict:
    """Per-layer numbers for one traced pass.

    A span's self time is its duration minus its direct children's;
    `<layer>.s` sums self time over the layer's spans, so it is the time
    spent in that layer's own code.
    """
    child_time = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child_time[s.parent] += s.duration
    self_time = [s.duration - c for s, c in zip(spans, child_time)]

    def total(name):
        return sum(s.duration for s in spans if s.name == name)

    def count(name):
        return sum(1 for s in spans if s.name == name)

    def info_sum(name, key):
        return sum(s.info.get(key, 0) for s in spans if s.name == name)

    def inside(i, layer):
        """Duration of the outermost `layer` spans below span i."""
        out = 0.0
        for s in spans:
            if s.layer != layer:
                continue
            p = s.parent
            while p >= 0 and p != i and spans[p].layer != layer:
                p = spans[p].parent
            if p == i:
                out += s.duration
        return out

    m = {}
    for layer in LAYERS:
        layer_self = sum(t for s, t in zip(spans, self_time) if s.layer == layer)
        m["cli.self_s" if layer == "cli" else f"{layer}.s"] = layer_self
        m[f"{layer}.calls"] = sum(1 for s in spans if s.layer == layer)
        m[f"{layer}.errors"] = sum(1 for s in spans if s.layer == layer and s.error)

    m["minimal_graph.factor_s"] = total("minimal_graph.factor")
    m["minimal_graph.factor_calls"] = count("minimal_graph.factor")
    m["minimal_graph.factor_fill"] = info_sum("minimal_graph.factor", "fill")
    m["minimal_graph.solve_s"] = total("minimal_graph.solve")
    m["minimal_graph.self_s"] = sum(
        t for s, t in zip(spans, self_time) if s.name == "minimal_graph.solve"
    )
    m["minimal_graph.eval_s"] = sum(
        total(f"minimal_graph.{f}") for f in EVAL_FUNCTIONS
    )
    m["minimal_graph.solve_calls"] = count("minimal_graph.solve")
    m["minimal_graph.newton_iters"] = info_sum("minimal_graph.solve", "iterations")
    m["minimal_graph.stalled_steps"] = info_sum("minimal_graph.solve", "stalled")
    m["minimal_graph.pinned_solves"] = info_sum("minimal_graph.solve", "pinned")

    m["warped_metric.check_hypotheses_s"] = total("warped_metric.check_hypotheses")
    m["warped_metric.points"] = info_sum("warped_metric.check_hypotheses", "points")
    m["warped_metric.spec_from_json_s"] = total("warped_metric.spec_from_json")

    m["flat_torus.diameter_s"] = total("flat_torus.diameter")
    m["flat_torus.diameter_calls"] = count("flat_torus.diameter")
    m["flat_torus.reduce_basis_s"] = total("flat_torus.reduce_basis")
    m["flat_torus.systole_s"] = total("flat_torus.systole")

    verify = [i for i, s in enumerate(spans) if s.name == "filler.verify"]
    m["filler.verify_s"] = total("filler.verify")
    m["filler.self_s"] = sum(
        spans[i].duration - inside(i, "flat_torus") for i in verify
    )
    m["filler.build_s"] = total("filler.build")
    m["filler.load_s"] = total("filler.load")

    m["sweepout.interpolate_s"] = total("sweepout.interpolate_patches")
    m["sweepout.fineness_s"] = total("sweepout.fineness")
    m["sweepout.profile_s"] = total("sweepout.profile")
    m["sweepout.patches"] = info_sum("sweepout.interpolate_patches", "patches")
    return m
