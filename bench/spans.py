"""Span recorder for the traced benchmark pass (stdlib only).

Spans are recorded from outside the library: :meth:`Recorder.install`
replaces each public entry point listed in :data:`TARGETS` with a timing
wrapper, in every ``conewalk`` module that binds it (``estimators``,
``walk`` and ``harness`` import ``sample_batch``, ``_batch_contraction``
and friends by name, so patching the defining module alone would miss
those calls).  A target that no longer exists is reported as absent
instead of failing the run.

Each span is ``[layer, start, end, parent]`` and stays in memory until
:meth:`Recorder.dump` writes it out.  Work counts are taken from call
arguments and from the arrays the calls return, and only at the
outermost span of a layer, so a layer calling itself (``replica_stream``
calling ``derived_stream``, ``sample_batch`` repairing a draw through
``sample_matrix``) is counted once.
"""

from __future__ import annotations

import inspect
import json
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable


def _psi_fit_steps(fn, args, kwargs, res):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return {"estimators.psi.vector_steps":
            res.inner_size * bound.arguments["fit_points"] * res.truncation}


def _psi_eval_steps(fn, args, kwargs, res):
    psi = args[0]
    return {"estimators.psi.vector_steps":
            psi.inner_size * len(res[0]) * psi.truncation}


def _backward_batch_steps(fn, args, kwargs, res):
    steps = res[2]
    return {"walk.backward.matrix_steps": int(steps.sum()),
            "walk.backward.steps_max": int(steps.max()) if len(steps) else 0}


@dataclass(frozen=True)
class Target:
    """One wrapped entry point: ``module.qualname`` timed as ``layer``.

    ``count`` maps (original, args, kwargs, result) to count increments.
    ``span=False`` counts calls without recording a span (used for the
    hot ``SimplexPoint`` constructor, whose time stays with its caller).
    """

    layer: str
    module: str
    qualname: str
    count: Callable | None = None
    span: bool = True


TARGETS = (
    Target("measures", "conewalk.measures", "sample_batch",
           lambda f, a, k, r: {"measures.draws": len(r)}),
    Target("measures", "conewalk.measures", "sample_matrix",
           lambda f, a, k, r: {"measures.draws": 1}),
    Target("rng", "conewalk.rng", "master_stream",
           lambda f, a, k, r: {"rng.streams": 1}),
    Target("rng", "conewalk.rng", "replica_stream",
           lambda f, a, k, r: {"rng.streams": 1}),
    Target("rng", "conewalk.rng", "derived_stream",
           lambda f, a, k, r: {"rng.streams": 1}),
    Target("estimators.forward", "conewalk.estimators", "BatchedProducts.step",
           lambda f, a, k, r: {"estimators.forward.matrix_steps": len(r)}),
    Target("estimators.log_kappa", "conewalk.estimators",
           "BatchedProducts.log_kappa"),
    Target("estimators.psi", "conewalk.estimators", "estimate_psi",
           _psi_fit_steps),
    Target("estimators.psi", "conewalk.estimators", "PsiEstimate.evaluate",
           _psi_eval_steps),
    Target("estimators.route.direct", "conewalk.estimators",
           "estimate_variance_direct"),
    Target("estimators.route.series", "conewalk.estimators",
           "estimate_variance_series"),
    Target("estimators.route.martingale", "conewalk.estimators",
           "variance_via_martingale"),
    Target("walk.backward", "conewalk.walk", "backward_invariant_batch",
           _backward_batch_steps),
    Target("walk.contraction", "conewalk.walk", "_batch_contraction"),
    Target("walk.scalar", "conewalk.walk", "backward_invariant_sample",
           lambda f, a, k, r: {"walk.scalar.matrix_steps": r.steps}),
    Target("simplex.contraction_coefficient", "conewalk.simplex",
           "contraction_coefficient",
           lambda f, a, k, r: {"simplex.contraction_coefficient.calls": 1}),
    Target("simplex.point", "conewalk.simplex", "SimplexPoint.__init__",
           lambda f, a, k, r: {"simplex.point_validations": 1}, span=False),
    Target("harness.sweep", "conewalk.harness", "functional_sweep"),
    Target("harness.fit", "conewalk.harness", "berry_esseen_fit"),
    Target("harness.asip", "conewalk.harness", "asip_proxy"),
    Target("harness.ks", "conewalk.harness", "ks_statistic"),
    Target("harness.ks", "conewalk.harness", "ks_to_gaussian"),
    Target("harness.ks", "conewalk.harness", "ks_two_sample"),
)

ROOT = "root"


class Recorder:
    """In-memory spans and counts for one traced pass at a time."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.absent: list[str] = []
        self.uncounted: set[str] = set()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._main_stack: list = []
        self._patches: list[tuple[object, str, object]] = []

    # -- span stacks ---------------------------------------------------

    def _stack(self) -> list:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack):
        if stack:
            return stack[-1]
        # a pool worker's first span belongs to the span that is waiting
        # on the pool in the main thread (the sweep's chunk pool is the
        # library's only parallel path)
        return self._main_stack[-1] if self._main_stack else None

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()

    def run(self, fn, *args, **kwargs):
        """Call ``fn`` under a root span; returns its result."""
        rec = [ROOT, 0.0, 0.0, None]
        self.spans.append(rec)
        self._main_stack.append(rec)
        rec[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            rec[2] = time.perf_counter()
            self._main_stack.pop()

    # -- patching ------------------------------------------------------

    def _wrap(self, target: Target, fn):
        layer, count = target.layer, target.count

        if not target.span:
            def counting(*args, **kwargs):
                res = fn(*args, **kwargs)
                self._count(target, fn, args, kwargs, res)
                return res
            return counting

        spans = self.spans

        def traced(*args, **kwargs):
            stack = self._stack()
            parent = self._parent(stack)
            rec = [layer, 0.0, 0.0, parent]
            spans.append(rec)
            stack.append(rec)
            rec[1] = time.perf_counter()
            try:
                res = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
            if count is not None and (parent is None or parent[0] != layer):
                self._count(target, fn, args, kwargs, res)
            return res

        return traced

    def _count(self, target: Target, fn, args, kwargs, res) -> None:
        try:
            incs = target.count(fn, args, kwargs, res)
        except (AttributeError, IndexError, KeyError, TypeError, ValueError):
            # the call's arguments or result changed shape: the span stays,
            # the count is reported missing rather than failing the pass
            self.uncounted.add(f"{target.module}.{target.qualname}")
            return
        with self._lock:  # pool threads count concurrently
            for key, inc in incs.items():
                self.counts[key] += inc

    def install(self) -> None:
        """Wrap every target in every ``conewalk`` module that binds it."""
        self.absent = []
        mods = {name: mod for name, mod in sys.modules.items()
                if name == "conewalk" or name.startswith("conewalk.")}
        for target in self.targets:
            owner_name, _, attr = target.qualname.rpartition(".")
            mod = mods.get(target.module)
            owner = mod
            if mod is not None and owner_name:
                owner = getattr(mod, owner_name, None)
            orig = getattr(owner, attr, None) if owner is not None else None
            if orig is None:
                self.absent.append(f"{target.module}.{target.qualname}")
                continue
            wrapped = self._wrap(target, orig)
            if owner_name:
                self._patch(owner, attr, wrapped)
                continue
            for other in mods.values():
                for name, value in list(vars(other).items()):
                    if value is orig:
                        self._patch(other, name, wrapped)

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches = []

    # -- analysis ------------------------------------------------------

    def layer_times(self) -> tuple[dict, dict]:
        """Per-layer self time and inclusive time, in seconds.

        Self time is wall-clock attribution: at every instant the
        elapsed time is split evenly among the open spans that have no
        open child, so a span's self time is its duration minus the part
        its children cover, and self times over all layers sum to the
        root span's duration even while pool threads run side by side.
        Inclusive time sums the durations of each layer's outermost
        spans, so under the chunk pool it counts thread-seconds.
        """
        events = []
        for rec in self.spans:
            events.append((rec[1], 0, id(rec), rec))
            events.append((rec[2], 1, id(rec), rec))
        events.sort(key=lambda e: (e[0], e[1]))
        self_s: dict[str, float] = defaultdict(float)
        incl_s: dict[str, float] = defaultdict(float)
        open_children: dict[int, int] = defaultdict(int)
        is_open: set[int] = set()
        leaves: dict[int, str] = {}
        last = events[0][0] if events else 0.0
        for t, kind, key, rec in events:
            if leaves:
                share = (t - last) / len(leaves)
                for layer in leaves.values():
                    self_s[layer] += share
            last = t
            parent = rec[3]
            pkey = id(parent) if parent is not None else None
            if kind == 0:
                is_open.add(key)
                leaves[key] = rec[0]
                if pkey in is_open:
                    open_children[pkey] += 1
                    leaves.pop(pkey, None)
            else:
                is_open.discard(key)
                leaves.pop(key, None)
                if pkey in is_open:
                    open_children[pkey] -= 1
                    if open_children[pkey] == 0:
                        leaves[pkey] = parent[0]
                if parent is None or parent[0] != rec[0]:
                    incl_s[rec[0]] += rec[2] - rec[1]
        return dict(self_s), dict(incl_s)

    def dump(self, path) -> None:
        """Write the spans as ``[layer, start, end, parent_index]`` rows."""
        index = {id(rec): i for i, rec in enumerate(self.spans)}
        t0 = min((rec[1] for rec in self.spans), default=0.0)
        rows = [[rec[0], rec[1] - t0, rec[2] - t0,
                 index.get(id(rec[3])) if rec[3] is not None else None]
                for rec in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"columns": ["layer", "start_s", "end_s", "parent"],
                       "absent": self.absent, "spans": rows}, fh)
