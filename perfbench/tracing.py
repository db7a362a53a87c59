"""Boundary spans around widim's public functions, recorded from outside.

The tracer replaces a public function with a wrapper in the module that
calls it, so ``src/`` stays untouched. Where a module imports a name from
another module, the name is patched in the importing module (for example
``widim.certify.distortion``), because that is the reference the caller
looks up at call time.

Each call records one span: id, name, start, end, parent id and job id.
Spans are kept in memory and written out by :meth:`Tracer.dump`. Self time
is a span's duration minus the durations of its direct children. The
tracer keeps one stack, so it serves serial jobs only (``--workers 1``).
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import Counter, defaultdict


def _rows(args, kwargs) -> int:
    x = args[0] if args else kwargs["x"]
    shape = getattr(x, "shape", None)
    return int(shape[0]) if shape is not None and len(shape) == 2 else 1


#: (owner, attribute, span name, row counter). The owner is a module or a
#: class; the span name is the defining module plus the function name.
#: ``core`` and ``signed_perm`` run only underneath ``threshold_map``, so
#: their time lands in its spans.
PATCHES = (
    ("widim._streams:StreamFactory", "generator", "streams.generator", None),
    ("widim.certify", "sample_lp_ball", "certify.sample_lp_ball", None),
    ("widim.group_dynamics", "sample_lp_ball", "certify.sample_lp_ball", None),
    ("widim.cli", "monte_carlo_certify", "certify.monte_carlo_certify", None),
    ("widim.cli", "adversarial_certify", "certify.adversarial_certify", None),
    ("widim.certify", "distortion", "threshold_map.distortion", _rows),
    ("widim.threshold_map", "f_equivariant", "threshold_map.f_equivariant", None),
    ("widim.cli", "bracket", "bounds.bracket", None),
    ("widim.cli", "widim_equal_case", "bounds.widim_equal_case", None),
    ("widim.bounds", "guarded_count", "bounds.guarded_count", None),
    ("widim.group_dynamics", "guarded_count", "bounds.guarded_count", None),
    ("widim.cli", "embedding_check", "group_dynamics.embedding_check", None),
    ("widim.cli", "mean_dimension_table", "group_dynamics.mean_dimension_table", None),
    ("widim.group_dynamics", "omega_distance", "group_dynamics.omega_distance", None),
    ("widim.group_dynamics", "weighted_distance", "group_dynamics.weighted_distance", None),
    ("widim.group_dynamics", "translate", "group_dynamics.translate", None),
    ("widim.cli", "main", "cli.main", None),
)


def _owner(path: str):
    module, _, cls = path.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


class Tracer:
    """Collects spans, call counts, row counts and self times per span name."""

    def __init__(self):
        self.job = None
        self.spans = []  # (id, name, start, end, parent id, job id)
        self.calls = Counter()
        self.rows = Counter()
        self.self_s = defaultdict(float)
        self._stack = []  # [span id, time covered by children]
        self._next_id = 0
        self._saved = []

    def _wrap(self, name, fn, rows):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = tracer._stack[-1][0] if tracer._stack else None
            frame = [span_id, 0.0]
            tracer._stack.append(frame)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                duration = end - start
                if tracer._stack:
                    tracer._stack[-1][1] += duration
                tracer.self_s[name] += duration - frame[1]
                tracer.calls[name] += 1
                if rows is not None:
                    tracer.rows[name] += rows(args, kwargs)
                tracer.spans.append((span_id, name, start, end, parent, tracer.job))

        return traced

    def install(self) -> None:
        for path, attr, name, rows in PATCHES:
            owner = _owner(path)
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, rows))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def child_counts(self, child: str, parent: str) -> Counter:
        """Per job: how many ``child`` spans sit directly under a ``parent`` span."""
        names = {span[0]: span[1] for span in self.spans}
        out = Counter()
        for _, name, _, _, parent_id, job in self.spans:
            if name == child and names.get(parent_id) == parent:
                out[job] += 1
        return out

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
