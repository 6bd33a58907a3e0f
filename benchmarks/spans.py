"""Span recorder for the traced benchmark run.

The recorder wraps public functions of the ``xmpc`` modules at the names
where their callers look them up, so nothing under ``src/`` changes:

* ``hub`` binds ``optimize``, ``shapley``, ``step`` and ``predict`` by name
  at import, so those are wrapped in ``xmpc.hub`` as well as at home;
* ``shapley`` imports ``surrogate.predict_batch`` at call time and
  ``surrogate.predict`` calls it through its module globals, so wrapping
  ``xmpc.surrogate.predict_batch`` sees both;
* ``run_episode`` imports ``classify`` from ``explain`` at call time, and
  ``render_document`` imports ``llm.complete`` at call time;
* ``explain`` binds ``attribution_chart_svg`` by name;
* the CLI reaches everything else through module attributes.

Each span is (name, parent, start, end, work, work2), held in flat arrays
so that a month of 74,400 single-row ``predict`` spans stays small, and
written to an ``.npz`` file when the run ends.  Top-level spans are phases
("setup", "pass") opened by the benchmark itself; every layer figure is
reported per cycle, that is per setup plus per pass, so counts repeat
exactly however many passes fit in the run.  Self time is a span's
duration minus the durations of its direct children (calls nest strictly
on one thread, so children never overlap).
"""

from __future__ import annotations

import contextlib
import importlib
import os
import time
from array import array
from pathlib import Path

import numpy as np


def _rows(args, kwargs, result):
    return len(args[1]), 0


def _epochs(args, kwargs, result):
    cfg = args[2] if len(args) > 2 else kwargs.get("cfg")
    return (cfg.epochs if cfg is not None else 0), 0


def _episode_bytes(args, kwargs, result):
    return os.path.getsize(args[1]), 0


def _files_and_bytes(args, kwargs, result):
    return len(result), sum(os.path.getsize(p) for p in result)


# Layer name -> (sites where callers look the function up, work measure).
LAYERS = {
    "hub.run_episode": (["xmpc.hub:run_episode"], None),
    "hub.save_episode": (["xmpc.hub:save_episode"], _episode_bytes),
    "hub.load_episode": (["xmpc.hub:load_episode"], None),
    "mpc.optimize": (["xmpc.mpc:optimize", "xmpc.hub:optimize"], None),
    "shapley": (["xmpc.shapley:shapley", "xmpc.hub:shapley"], None),
    "surrogate.predict": (["xmpc.surrogate:predict", "xmpc.hub:predict"], None),
    "surrogate.predict_batch": (["xmpc.surrogate:predict_batch"], _rows),
    "surrogate.train": (["xmpc.surrogate:train"], _epochs),
    "surrogate.load": (["xmpc.surrogate:load"], None),
    "testbed.step": (["xmpc.testbed:step", "xmpc.hub:step"], None),
    "testbed.run_excitation": (["xmpc.testbed:run_excitation"], None),
    "explain.classify": (["xmpc.explain:classify"], None),
    "explain.render_document": (["xmpc.explain:render_document"], None),
    "explain.write_documents": (["xmpc.explain:write_documents"], _files_and_bytes),
    "explain.build_qa_context": (["xmpc.explain:build_qa_context"], None),
    "charts.attribution_chart_svg": (["xmpc.explain:attribution_chart_svg"], None),
    "llm.complete": (["xmpc.llm:complete"], None),
}


class SpanRecorder:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.work = array("q")
        self.work2 = array("q")
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.work.append(0)
        self.work2.append(0)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self._open(self._name_id(name))
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, name: str, fn, measure):
        name_id = self._name_id(name)
        recorder = self

        def wrapper(*args, **kwargs):
            idx = recorder._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                recorder._close(idx)
            if measure is not None:
                recorder.work[idx], recorder.work2[idx] = measure(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        """Replace every layer function at each of its lookup sites."""
        for name, (sites, measure) in LAYERS.items():
            first_module, first_attr = sites[0].split(":")
            original = getattr(importlib.import_module(first_module), first_attr)
            wrapper = self._wrap(name, original, measure)
            for site in sites:
                module_name, attr = site.split(":")
                module = importlib.import_module(module_name)
                self._patched.append((module, attr, getattr(module, attr)))
                setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    # -- aggregation -------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "work": np.frombuffer(self.work, dtype=np.int64).copy(),
            "work2": np.frombuffer(self.work2, dtype=np.int64).copy(),
        }

    def write(self, path: Path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())

    def cycle_totals(self) -> "CycleTotals":
        return CycleTotals(self.names, self.arrays())


class CycleTotals:
    """Per-layer sums over one cycle: per setup plus per pass.

    A phase is a top-level span.  A layer's total inside each phase is
    divided by the number of instances of that phase, so with identical
    passes every count below is an exact integer however many passes ran.
    """

    def __init__(self, names: list[str], a: dict[str, np.ndarray]):
        self.names = names
        n = a["name"].size
        parent = a["parent"].astype(np.int64)
        dur = a["end"] - a["start"]
        has_parent = parent >= 0
        child = np.zeros(n)
        np.add.at(child, parent[has_parent], dur[has_parent])
        root = np.arange(n)
        up = parent.copy()
        while np.any(up >= 0):
            live = up >= 0
            root[live] = up[live]
            up[live] = parent[up[live]]
        roots = np.flatnonzero(~has_parent)
        self.instances = np.bincount(a["name"][roots], minlength=len(names))
        self.phase = a["name"][root]
        self.name = a["name"]
        self.parent_name = np.where(has_parent, a["name"][np.maximum(parent, 0)], -1)
        self.dur = dur
        self.self_dur = dur - child
        self.work = a["work"]
        self.work2 = a["work2"]
        self.ones = np.ones(n, dtype=np.int64)
        self.pass_s = 0.0  # the workload's own pass_s, set by the traced run
        self.phase_seconds = {
            names[p]: self._sum(dur, ~has_parent & (self.name == p))
            for p in np.unique(self.name[roots]).tolist()
        }

    def _sum(self, values: np.ndarray, mask: np.ndarray) -> float:
        total = 0.0
        for p in np.unique(self.phase[mask]).tolist():
            total += values[mask & (self.phase == p)].sum() / self.instances[p]
        return float(total)

    def _mask(self, name: str, parent: str | None = None) -> np.ndarray:
        if name not in self.names:
            return np.zeros(self.name.size, dtype=bool)
        mask = self.name == self.names.index(name)
        if parent is not None:
            mask &= self.parent_name == (self.names.index(parent) if parent in self.names else -2)
        return mask

    def calls(self, name: str, parent: str | None = None) -> float:
        return self._sum(self.ones, self._mask(name, parent))

    def seconds(self, name: str) -> float:
        return self._sum(self.dur, self._mask(name))

    def self_seconds(self, name: str) -> float:
        return self._sum(self.self_dur, self._mask(name))

    def work_sum(self, name: str, parent: str | None = None, second: bool = False) -> float:
        return self._sum(self.work2 if second else self.work, self._mask(name, parent))

    @property
    def spans(self) -> float:
        return self._sum(self.ones, np.ones(self.name.size, dtype=bool))

    @property
    def cycle_seconds(self) -> float:
        return sum(self.phase_seconds.values())


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _pct(t: CycleTotals, seconds: float) -> float:
    return 100.0 * _ratio(seconds, t.cycle_seconds)


def _calls(name):
    return lambda t: t.calls(name)


def _share(name):
    return lambda t: _pct(t, t.seconds(name))


def _self_share(name):
    return lambda t: _pct(t, t.self_seconds(name))


# Per-layer metrics of the traced run: (name, unit, better, the end-to-end
# metric it should move and on which workload, value from CycleTotals).
# Times are shares of the traced cycle (one setup plus one pass), so a layer
# that a workload never calls reads 0 % rather than a constant 0 ms;
# trace.cycle_s turns any share back into seconds.
PER_LAYER = [
    ("shapley.calls", "count", "lower", "pass_s on month_explained; 0 on the others",
     _calls("shapley")),
    ("shapley.pct", "%", "lower", "pass_s on month_explained", _share("shapley")),
    ("shapley.self_pct", "%", "lower",
     "pass_s on month_explained (coalition build plus phi reduction)", _self_share("shapley")),
    ("shapley.rows_per_call", "count", "lower", "pass_s on month_explained",
     lambda t: _ratio(t.work_sum("surrogate.predict_batch", "shapley"), t.calls("shapley"))),
    ("surrogate.predict_batch.calls", "count", "lower",
     "pass_s on month_explained (large batches), op_ms_p90 on control_only (single rows)",
     _calls("surrogate.predict_batch")),
    ("surrogate.predict_batch.rows", "count", "lower", "pass_s on month_explained",
     lambda t: t.work_sum("surrogate.predict_batch")),
    ("surrogate.predict_batch.pct", "%", "lower", "pass_s on month_explained",
     _share("surrogate.predict_batch")),
    ("surrogate.predict_batch.rows_per_call", "count", "lower", "pass_s on month_explained",
     lambda t: _ratio(t.work_sum("surrogate.predict_batch"), t.calls("surrogate.predict_batch"))),
    ("surrogate.predict.calls", "count", "lower", "op_ms_p90 and pass_s on control_only",
     _calls("surrogate.predict")),
    ("surrogate.predict.pct", "%", "lower", "op_ms_p90 and pass_s on control_only",
     _share("surrogate.predict")),
    ("surrogate.train.pct", "%", "lower", "pass_s and op_ms_p90 on sysid_train, setup_s elsewhere",
     _share("surrogate.train")),
    ("surrogate.train.epochs_per_s", "1/s", "higher",
     "pass_s and op_ms_p90 on sysid_train, setup_s elsewhere",
     lambda t: _ratio(t.work_sum("surrogate.train"), t.seconds("surrogate.train"))),
    ("surrogate.load.pct", "%", "lower", "setup_s on control_only, pass_s on month_explained",
     _share("surrogate.load")),
    ("mpc.optimize.calls", "count", "lower", "op_ms_p90 on control_only", _calls("mpc.optimize")),
    ("mpc.optimize.pct", "%", "lower",
     "op_ms_p90 on control_only, about a tenth of pass_s on month_explained",
     _share("mpc.optimize")),
    ("mpc.optimize.self_pct", "%", "lower", "op_ms_p90 on control_only",
     _self_share("mpc.optimize")),
    ("mpc.model_calls_per_decision", "count", "lower", "op_ms_p90 on control_only",
     lambda t: _ratio(t.calls("surrogate.predict", "mpc.optimize"), t.calls("mpc.optimize"))),
    ("hub.run_episode.self_pct", "%", "lower",
     "pass_s on month_explained (run_episode minus optimize, shapley, step, classify)",
     lambda t: _pct(t, t.self_seconds("hub.run_episode"))),
    ("hub.save_episode.pct", "%", "lower", "pass_s on month_explained",
     _share("hub.save_episode")),
    ("hub.save_episode.bytes", "bytes", "lower", "pass_s on month_explained",
     lambda t: t.work_sum("hub.save_episode")),
    ("hub.load_episode.pct", "%", "lower", "op_ms_p90 and pass_s (explain) on month_explained",
     _share("hub.load_episode")),
    ("explain.classify.calls", "count", "lower", "pass_s on month_explained",
     _calls("explain.classify")),
    ("explain.render_document.pct", "%", "lower", "pass_s (explain) on month_explained",
     _share("explain.render_document")),
    ("explain.write_documents.files", "count", "higher", "pass_s (explain) on month_explained",
     lambda t: t.work_sum("explain.write_documents")),
    ("explain.write_documents.bytes", "bytes", "lower", "pass_s (explain) on month_explained",
     lambda t: t.work_sum("explain.write_documents", second=True)),
    ("explain.build_qa_context.pct", "%", "lower", "op_ms_p90 on month_explained",
     _share("explain.build_qa_context")),
    ("charts.attribution_chart_svg.calls", "count", "lower", "pass_s (explain) on month_explained",
     _calls("charts.attribution_chart_svg")),
    ("charts.attribution_chart_svg.pct", "%", "lower", "pass_s (explain) on month_explained",
     _share("charts.attribution_chart_svg")),
    ("llm.complete.calls", "count", "lower", "pass_s (explain) and op_ms_p90 on month_explained",
     _calls("llm.complete")),
    ("llm.complete.pct", "%", "lower", "pass_s (explain) and op_ms_p90 on month_explained",
     _share("llm.complete")),
    ("testbed.step.calls", "count", "lower", "op_ms_p90 on control_only, pass_s on sysid_train",
     _calls("testbed.step")),
    ("testbed.step.pct", "%", "lower", "op_ms_p90 on control_only, pass_s on sysid_train",
     _share("testbed.step")),
    ("testbed.run_excitation.pct", "%", "lower", "pass_s on sysid_train, setup_s elsewhere",
     _share("testbed.run_excitation")),
    ("trace.cycle_s", "s", "lower", "traced setup plus pass; the base of every share above",
     lambda t: t.cycle_seconds),
    ("trace.pass_s", "s", "lower",
     "pass_s measured under tracing; its gap to the untraced pass_s is the tracing overhead",
     lambda t: t.pass_s),
    ("trace.spans", "count", "lower", "spans recorded per cycle; tracing cost grows with it",
     lambda t: t.spans),
]


def per_layer_metrics(totals: CycleTotals) -> dict[str, tuple[float, str]]:
    return {name: (float(fn(totals)), unit) for name, unit, _, _, fn in PER_LAYER}
