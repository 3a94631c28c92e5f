"""Outside-in tracing of pointloc's layers.

The tracer rebinds the module attributes through which the pipeline calls
each layer (``pointloc.pipeline.query_top1``, ``pointloc.registration.umeyama``,
``pointloc.retrieval.hamming_matrix``, ...) to thin wrappers, so no file of
the library changes.  A wrapper records one span (layer name, start, end,
parent span, query id, phase) in ``array`` columns and may add counts taken
from the call's arguments or result.  Spans stay in memory until ``save``
writes them out.
"""

from __future__ import annotations

import importlib
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

MODULES = (
    "pointloc",
    "pointloc.cli",
    "pointloc.dataset",
    "pointloc.evaluation",
    "pointloc.features",
    "pointloc.geometry",
    "pointloc.pipeline",
    "pointloc.registration",
    "pointloc.render",
    "pointloc.retrieval",
    "pointloc.scene",
)


def _pairs(count, args, kwargs, result):
    count["pairs"] += len(args[0]) * len(args[1])


def _bytes_scanned(count, args, kwargs, result):
    count["bytes_scanned"] += args[0].matrix.nbytes


def _descriptors(count, args, kwargs, result):
    count["descriptors"] += len(result[0])


def _matches(count, args, kwargs, result):
    count["matches"] += len(result)


def _solver(count, args, kwargs, result):
    count["iterations"] += result.iterations
    count["inliers"] += len(result.inlier_indices)
    count["correspondences"] += len(args[0])


# (defining module, function, span name, probe).  Layers are the modules of
# src/pointloc; cli, scene and evaluation are not timed (see README.md).
# A span name of None only counts calls: geometry.backproject runs once per
# lifted keypoint, and its time stays in the caller's self time.
LAYERS = (
    ("pointloc.pipeline", "localize", "pipeline.localize", None),
    ("pointloc.pipeline", "extract_frame_features", "pipeline.extract_frame_features", None),
    ("pointloc.pipeline", "backproject_keypoints", "pipeline.backproject_keypoints", None),
    ("pointloc.pipeline", "_register", "pipeline.register", None),
    ("pointloc.pipeline", "build_database", "pipeline.build_database", None),
    ("pointloc.pipeline", "save_database", "pipeline.save_database", None),
    ("pointloc.pipeline", "load_database", "pipeline.load_database", None),
    ("pointloc.features", "detect", "features.detect", None),
    ("pointloc.features", "describe", "features.describe", _descriptors),
    ("pointloc.features", "match", "features.match", _matches),
    ("pointloc.features", "hamming_matrix", "features.hamming_matrix", _pairs),
    ("pointloc.retrieval", "embed_vlad", "retrieval.embed", None),
    ("pointloc.retrieval", "embed_bow", "retrieval.embed", None),
    ("pointloc.retrieval", "query_top1", "retrieval.query_top1", _bytes_scanned),
    ("pointloc.retrieval", "assign_words", "retrieval.assign_words", None),
    ("pointloc.retrieval", "train_vocabulary", "retrieval.train_vocabulary", None),
    ("pointloc.registration", "gnc_tls_register", "registration.solve", _solver),
    ("pointloc.registration", "ransac_register", "registration.solve", _solver),
    ("pointloc.registration", "icp_refine", "registration.refine", _solver),
    ("pointloc.registration", "umeyama", "registration.umeyama", None),
    ("pointloc.geometry", "backproject", None, None),
    ("pointloc.render", "render", "render.render", None),
    ("pointloc.dataset", "write_frame", "dataset.write_frame", None),
    ("pointloc.dataset", "read_frame", "dataset.read_frame", None),
)


class Tracer:
    """Span recorder for the layers in LAYERS.

    ``phase`` and ``query`` label the spans recorded while they are set;
    ``counts[phase][layer][key]`` accumulates probe counts, ``calls`` and
    ``failures`` (calls that raised).
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self.phases: list[str] = []
        self.name = array("i")
        self.phase_of = array("i")
        self.query_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict[str, dict[str, defaultdict]] = defaultdict(
            lambda: defaultdict(lambda: defaultdict(float))
        )
        self._phase_ids: dict[str, int] = {}
        self.phase = "setup"
        self.query = -1
        self._stack = [-1]
        self._patches: list[tuple[object, str, object, object]] = []
        for module_name, attr, span, probe in LAYERS:
            fn = getattr(importlib.import_module(module_name), attr)
            if span is None:
                wrapper = self._count(fn, f"{module_name[len('pointloc.'):]}.{attr}")
            else:
                wrapper = self._wrap(fn, span, probe)
            for holder_name in MODULES:
                holder = importlib.import_module(holder_name)
                for key, value in vars(holder).items():
                    if value is fn:
                        self._patches.append((holder, key, fn, wrapper))

    @property
    def phase(self) -> str:
        return self.phases[self._phase_id]

    @phase.setter
    def phase(self, value: str) -> None:
        if value not in self._phase_ids:
            self._phase_ids[value] = len(self.phases)
            self.phases.append(value)
        self._phase_id = self._phase_ids[value]
        self._phase_counts = self.counts[value]

    def _count(self, fn, layer: str):
        def wrapper(*args, **kwargs):
            self._phase_counts[layer]["calls"] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap(self, fn, span: str, probe):
        perf_counter = time.perf_counter
        if span not in self.names:
            self.names.append(span)
        name_id = self.names.index(span)

        def wrapper(*args, **kwargs):
            idx = len(self.start)
            self.name.append(name_id)
            self.phase_of.append(self._phase_id)
            self.query_of.append(self.query)
            self.parent.append(self._stack[-1])
            self.end.append(0.0)
            self._stack.append(idx)
            count = self._phase_counts[span]
            count["calls"] += 1
            self.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except Exception:
                count["failures"] += 1
                raise
            finally:
                self.end[idx] = perf_counter()
                self._stack.pop()
            if probe is not None:
                probe(count, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    @contextmanager
    def installed(self):
        """Route every layer call through the wrappers for the block's duration."""
        for holder, key, _, wrapper in self._patches:
            setattr(holder, key, wrapper)
        try:
            yield self
        finally:
            for holder, key, fn, _ in self._patches:
                setattr(holder, key, fn)

    def _columns(self):
        import numpy as np

        name = np.array(self.name, dtype=np.int32)
        phase = np.array(self.phase_of, dtype=np.int32)
        parent = np.array(self.parent, dtype=np.int32)
        dur = np.array(self.end, dtype=np.float64) - np.array(self.start, dtype=np.float64)
        child = parent >= 0
        covered = np.bincount(parent[child], weights=dur[child], minlength=len(dur))
        return name, phase, dur, dur - covered

    def seconds(self, phase: str) -> dict[str, tuple[float, float]]:
        """Layer -> (inclusive, self) seconds summed over one phase."""
        import numpy as np

        if phase not in self._phase_ids:
            return {}
        name, ph, dur, self_dur = self._columns()
        sel = ph == self._phase_ids[phase]
        n = len(self.names)
        inclusive = np.bincount(name[sel], weights=dur[sel], minlength=n)
        own = np.bincount(name[sel], weights=self_dur[sel], minlength=n)
        return {s: (float(inclusive[i]), float(own[i])) for i, s in enumerate(self.names)}

    def save(self, path: str | Path, context: dict) -> None:
        """Write every span (with its self time) and the counts as .npz."""
        import json

        import numpy as np

        name, phase, dur, self_dur = self._columns()
        np.savez_compressed(
            path,
            names=np.array(self.names),
            phases=np.array(self.phases),
            name=name,
            phase=phase,
            query=np.array(self.query_of, dtype=np.int32),
            parent=np.array(self.parent, dtype=np.int32),
            start=np.array(self.start, dtype=np.float64),
            seconds=dur,
            self_seconds=self_dur,
            counts=np.array(json.dumps(self.counts)),
            context=np.array(json.dumps(context)),
        )
