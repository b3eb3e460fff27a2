"""Spans around calls into projderiv's public functions, installed from outside.

The tracer replaces each wrapped function by a wrapper in every projderiv.*
namespace that holds it (cli does ``from .balls import project_ball``, so
patching balls alone would miss its calls), and each wrapped method on its
class.  Nothing under src/ changes.

A span records its name, start, end, parent span and job id.  Spans are kept
in flat in-memory arrays and written out once, when the run ends.  A span's
self time is its duration minus the durations of its direct children; calls
are single-threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import sys
from array import array
from pathlib import Path
from time import perf_counter

import numpy as np

# layer -> (module, wrapped functions; "Class.method" for methods)
LAYERS = {
    "vectors": ("projderiv.vectors", ("as_vector",)),
    "balls": (
        "projderiv.balls",
        ("project_ball", "classify_ball", "ball_frechet_derivative", "BallDeriv.apply", "ball_gateaux_sphere"),
    ),
    "orthant": (
        "projderiv.orthant",
        ("project_cone", "sign_partition", "ConeDeriv.apply", "cone_refute_frechet"),
    ),
    "sequences": (
        "projderiv.sequences",
        (
            "SeqVector.dot",
            "distance",
            "project_cone_l2",
            "l2_gateaux",
            "l2_nonfrechet_witness",
            "interior_escape_witness",
        ),
    ),
    "verify": (
        "projderiv.verify",
        ("strict_residual_scan", "qp_projection_oracle", "fd_directional", "refute_linearity"),
    ),
    "cli": ("projderiv.cli", ("load_job", "run_job", "fmt_vec", "fmt_seq")),
}

SPAN_NAMES = tuple(f"{layer}.{fn}" for layer, (_, fns) in LAYERS.items() for fn in fns)
SCAN = "verify.strict_residual_scan"
PROJECTIONS = ("balls.project_ball", "orthant.project_cone")
ESCAPE = "sequences.interior_escape_witness"


def metric_names() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric the traced run reports."""
    out = [("setup.import_numpy_s", "s"), ("setup.import_projderiv_s", "s")]
    for name in SPAN_NAMES:
        out += [(f"{name}.calls", "count"), (f"{name}.self_s", "s")]
    out += [(f"{ESCAPE}.overrides_out", "count"), (f"{SCAN}.f_calls", "count")]
    out += [(f"{layer}.exceptions", "count") for layer in LAYERS]
    out += [("trace.jobs_per_s", "1/s"), ("trace.overhead_frac", "ratio"), ("trace.span_coverage", "ratio")]
    return out


class Tracer:
    def __init__(self):
        self.ids = {name: i for i, name in enumerate(SPAN_NAMES)}
        self.name = array("i")
        self.parent = array("i")
        self.job = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.job_id = -1
        self.exceptions = dict.fromkeys(LAYERS, 0)
        self.overrides_out = 0
        self._undo: list[tuple[object, str, object]] = []

    # -------------------------------------------------------------- install

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "projderiv" or n.startswith("projderiv.")]
        for layer, (module_name, fns) in LAYERS.items():
            module = sys.modules[module_name]
            for fn in fns:
                span = f"{layer}.{fn}"
                if "." in fn:
                    cls_name, attr = fn.split(".")
                    owner = getattr(module, cls_name)
                    original = owner.__dict__[attr]
                    self._patch(owner, attr, self._wrap(span, layer, original))
                    continue
                original = getattr(module, fn)
                wrapper = self._wrap(span, layer, original)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _patch(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrap(self, span: str, layer: str, fn):
        nid = self.ids[span]
        count_overrides = span == ESCAPE
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(tracer.start)
            stack = tracer.stack
            tracer.name.append(nid)
            tracer.parent.append(stack[-1] if stack else -1)
            tracer.job.append(tracer.job_id)
            tracer.start.append(0.0)
            tracer.end.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.exceptions[layer] += 1
                raise
            finally:
                t1 = perf_counter()
                tracer.start[idx] = t0
                tracer.end[idx] = t1
                stack.pop()
            if count_overrides:
                tracer.overrides_out += len(result.overrides)
            return result

        return wrapper

    # -------------------------------------------------------------- results

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "job": np.frombuffer(self.job, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
        }

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, names=np.array(SPAN_NAMES), **self.arrays())

    def metrics(self, passes: int) -> dict[str, float]:
        """Per-pass calls and self seconds of every span name, plus counters.

        Also span_coverage: the share of run_job time covered by its child
        spans, i.e. how much of a job the per-layer self times account for.
        """
        a = self.arrays()
        name, parent = a["name"], a["parent"]
        dur = a["end"] - a["start"]
        has_parent = parent >= 0
        child = np.zeros(dur.size)
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_time = dur - child
        k = len(SPAN_NAMES)
        calls = np.bincount(name, minlength=k)
        selfs = np.bincount(name, weights=self_time, minlength=k)
        out = {}
        for i, span in enumerate(SPAN_NAMES):
            out[f"{span}.calls"] = int(calls[i]) / passes
            out[f"{span}.self_s"] = float(selfs[i]) / passes
        out[f"{ESCAPE}.overrides_out"] = self.overrides_out / passes
        scan_children = has_parent & (name[np.where(has_parent, parent, 0)] == self.ids[SCAN])
        is_proj = np.isin(name, [self.ids[p] for p in PROJECTIONS])
        out[f"{SCAN}.f_calls"] = int(np.count_nonzero(scan_children & is_proj)) / passes
        for layer, count in self.exceptions.items():
            out[f"{layer}.exceptions"] = count / passes
        jobs = name == self.ids["cli.run_job"]
        total = float(dur[jobs].sum())
        out["trace.span_coverage"] = float(child[jobs].sum()) / total if total > 0 else 0.0
        return out
