"""Outside-in layer trace of one nanorotor process.

The tracer wraps the public functions at each layer boundary from outside;
no file under ``src/`` changes.  Modules import functions by name (for
example ``decoherence`` does ``from .rotor import free_propagate``), so a
function is replaced at every module attribute that binds it, not only where
it is defined.  Methods and classmethods are replaced on their class.

A span is ``[layer index, start, end, parent span index, note]`` on
``time.perf_counter``.  Spans are kept in memory and written once when the
process ends.  Workers forked by ``run_ensemble``'s pool inherit the wrappers,
but their spans stay in the worker and are lost: a pooled run shows only the
parent process's spans.
"""

from __future__ import annotations

import functools
import os
import sys
import time

# (layer, module under nanorotor, attribute) -- one layer may own several
# boundaries; a span nested directly in a span of its own layer (project_beta
# calling _project_general) adds self time but is not counted as a call.
TARGETS = (
    ("angular.grid", "angular", "AngularGrid.gauss_legendre"),
    ("angular.transform", "angular", "synthesize_beta"),
    ("angular.transform", "angular", "project_beta"),
    ("angular.transform", "angular", "_project_general"),
    ("angular.cos2", "angular", "cos2beta_matrix"),
    ("angular.cosine_apply", "angular", "DirectionCosineOperator.apply"),
    ("rotor.prepare", "rotor", "prepare_aligned_state"),
    ("rotor.prepare", "rotor", "prepare_mixture"),
    ("rotor.spectrum", "rotor", "rotational_energies"),
    ("rotor.propagate", "rotor", "free_propagate"),
    ("pulse.apply", "pulse", "apply_pulse"),
    ("pulse.exact", "pulse", "phase_apply_exact"),
    ("pulse.matrix_build", "pulse", "phase_matrix_semiclassical"),
    ("observables.alignment", "observables", "alignment"),
    ("decoherence.ensemble", "decoherence", "run_ensemble"),
    ("decoherence.jump", "decoherence", "apply_jump"),
    ("cli.write", "cli", "OutputWriter.write_csv"),
    ("cli.write", "cli", "OutputWriter.write_manifest"),
)
LAYERS = tuple(dict.fromkeys(layer for layer, _, _ in TARGETS))

# Boundaries that are only counted: a span here would take its time out of
# the enclosing layer's self time.
COUNTERS = (
    ("pulse.banded_apply", "pulse", "PulseMatrix.apply"),
)

# What a span notes besides its times: the grid order built, the CSV bytes
# written.  (The manifest's size varies with its wall time and output path.)
NOTES = {
    "AngularGrid.gauss_legendre": lambda result: result.order,
    "OutputWriter.write_csv": lambda result: os.path.getsize(result),
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = {name: 0 for name, _, _ in COUNTERS}
        self._stack: list[int] = []

    def counter(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def wrap(self, layer: str, fn, note=None):
        index = LAYERS.index(layer)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [index, clock(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
            if note is not None:
                span[4] = note(result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every boundary in TARGETS and COUNTERS; nanorotor is imported."""
        for layer, module, attr in TARGETS:
            _replace(module, attr, functools.partial(self.wrap, layer, note=NOTES.get(attr)))
        for name, module, attr in COUNTERS:
            _replace(module, attr, functools.partial(self.counter, name))


def _replace(module: str, attr: str, make_wrapper) -> None:
    import importlib

    owner = importlib.import_module(f"nanorotor.{module}")
    if "." in attr:
        cls_name, name = attr.split(".")
        cls = getattr(owner, cls_name)
        raw = cls.__dict__[name]
        if isinstance(raw, classmethod):
            setattr(cls, name, classmethod(make_wrapper(raw.__func__)))
        else:
            setattr(cls, name, make_wrapper(raw))
        return
    fn = getattr(owner, attr)
    wrapped = make_wrapper(fn)
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "nanorotor" or mod_name.startswith("nanorotor."):
            for key in [k for k, v in vars(mod).items() if v is fn]:
                setattr(mod, key, wrapped)


def summarize(spans: list) -> dict:
    """Per-layer self time, total time, calls and notes; top-level total.

    Self time is a span's duration minus the time its child spans cover.
    """
    child_s = [0.0] * len(spans)
    top_s = 0.0
    for layer, start, end, parent, _ in spans:
        if parent >= 0:
            child_s[parent] += end - start
        else:
            top_s += end - start
    out = {name: {"self_s": 0.0, "total_s": 0.0, "calls": 0, "notes": []}
           for name in LAYERS}
    for i, (layer, start, end, parent, note) in enumerate(spans):
        entry = out[LAYERS[layer]]
        entry["self_s"] += end - start - child_s[i]
        if parent < 0 or spans[parent][0] != layer:
            entry["calls"] += 1
            entry["total_s"] += end - start
        if note is not None:
            entry["notes"].append(note)
    return {"layers": out, "top_level_s": top_s}
