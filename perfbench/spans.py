"""In-memory span tracing of kexpfam layers, installed from outside the package.

A hook replaces a function at the place where callers look it up (for
example ``kexpfam.evaluation.fit_factor``, the name ``cross_validate`` calls)
with a wrapper that records a span: name, start, end and parent span.  Spans
stay in memory until :meth:`Tracer.dump`.  Nothing under ``src/`` is edited;
:meth:`Tracer.uninstall` puts every original back.

A hook whose name no longer exists where it is looked up is reported as
missing instead of silently measuring nothing.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import threading
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass(frozen=True)
class Hook:
    """Wrap ``module.attr`` and record its calls as spans named ``span``.

    ``kind`` selects the wrapper:

    - ``call``: a plain function;
    - ``cross_T``: a ``cross_T_blocks`` generator, one span per ``next``
      (the final, exhausted one included); yielded blocks are counted as
      ``<span>.blocks``;
    - ``fit``: also records the tracemalloc peak and the system size;
    - ``leapfrog``: also wraps the ``grad_potential`` argument;
    - ``cv``: also inspects the CV result table.

    ``counter`` names an extra count kept for calls through this lookup only.
    """

    module: str
    attr: str
    span: str
    kind: str = "call"
    counter: str | None = None

    @property
    def where(self) -> str:
        return f"{self.module}.{self.attr}"


HOOKS = (
    Hook("kexpfam.cli", "rejection_sample_grid", "sampling.rejection_sample_grid"),
    Hook("kexpfam.cli", "load_csv", "data_io.load_csv"),
    Hook("kexpfam.cli", "save_csv", "data_io.save_csv"),
    Hook("kexpfam.cli", "load_model", "data_io.load_model"),
    Hook("kexpfam.cli", "save_model", "data_io.save_model"),
    Hook("kexpfam.cli", "fit_joint", "factorization.fit_joint"),
    Hook("kexpfam.cli", "cross_validate", "evaluation.cross_validate", kind="cv"),
    Hook("kexpfam.cli", "test_loglik", "evaluation.test_loglik"),
    Hook("kexpfam.cli", "ancestral_sample", "sampling.ancestral_sample"),
    Hook("kexpfam.cli", "empirical_score", "score_fit.empirical_score"),
    Hook("kexpfam.factorization", "median_heuristic", "kernels.median_heuristic"),
    Hook("kexpfam.factorization", "fit_factor", "score_fit.fit_factor", kind="fit"),
    Hook("kexpfam.evaluation", "fit_factor", "score_fit.fit_factor", kind="fit",
         counter="evaluation.cv.fold_fits"),
    Hook("kexpfam.evaluation", "empirical_score", "score_fit.empirical_score"),
    Hook("kexpfam.evaluation", "unnorm_logpdf_rows", "score_fit.unnorm_logpdf_rows"),
    Hook("kexpfam.evaluation", "cross_T_blocks", "score_fit.cross_T_blocks",
         kind="cross_T"),
    Hook("kexpfam.score_fit", "build_gram", "score_fit.build_gram"),
    Hook("kexpfam.score_fit", "build_h", "score_fit.build_h"),
    Hook("kexpfam.score_fit", "kernel_matrix", "kernels.kernel_matrix"),
    Hook("kexpfam.sampling", "kernel_matrix", "kernels.kernel_matrix"),
    Hook("kexpfam.sampling", "leapfrog", "sampling.leapfrog", kind="leapfrog"),
)


class Tracer:
    """Collects spans and counters for one process.

    Spans are ``[name, start, end, parent]`` with times from
    ``time.perf_counter`` and ``parent`` the index of the enclosing span
    (or -1).  Each thread keeps its own stack of open spans.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, float] = {}
        self.fits: list[dict] = []
        self.missing: list[str] = []
        self._installed: list[tuple[object, str, object]] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    # --- spans ----------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        with self._lock:
            index = len(self.spans)
            self.spans.append([name, time.perf_counter(), None,
                               stack[-1] if stack else -1])
        stack.append(index)
        try:
            yield
        finally:
            stack.pop()
            self.spans[index][2] = time.perf_counter()

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + amount

    # --- hooks ----------------------------------------------------------

    def install(self, hooks=HOOKS) -> None:
        """Wrap every hook's target; a target that is absent goes to
        ``self.missing`` by its lookup name."""
        for hook in hooks:
            module = importlib.import_module(hook.module)
            original = getattr(module, hook.attr, None)
            if original is None:
                self.missing.append(hook.where)
                continue
            if hook.kind == "leapfrog" and "grad_potential" not in \
                    inspect.signature(original).parameters:
                self.missing.append(hook.where + "(grad_potential)")
            wrapper = getattr(self, "_wrap_" + hook.kind)(hook, original)
            self._installed.append((module, hook.attr, original))
            setattr(module, hook.attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()

    def _wrap_call(self, hook: Hook, original):
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if hook.counter:
                self.count(hook.counter)
            with self.span(hook.span):
                return original(*args, **kwargs)
        return wrapper

    def _wrap_cross_T(self, hook: Hook, original):
        @functools.wraps(original)
        def wrapper(model, X_rows, Y_set, *args, **kwargs):
            # computed work: every (training point, row, draw) kernel pair
            self.count("evaluation.normalizer.unique_rows", len(X_rows))
            self.count("score_fit.cross_T.pair_terms",
                       float(model.n) * len(X_rows) * len(Y_set))
            items = original(model, X_rows, Y_set, *args, **kwargs)
            while True:
                with self.span(hook.span):
                    item = next(items, None)
                if item is None:
                    return
                self.count(hook.span + ".blocks")
                yield item
        return wrapper

    def _wrap_fit(self, hook: Hook, original):
        @functools.wraps(original)
        def wrapper(x_train, y_train, *args, **kwargs):
            if hook.counter:
                self.count(hook.counter)
            size = len(y_train) * (y_train.shape[1] if y_train.ndim > 1 else 1)
            started = not tracemalloc.is_tracing()
            if started:
                tracemalloc.start()
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            try:
                with self.span(hook.span):
                    return original(x_train, y_train, *args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1] - base
                if started:
                    tracemalloc.stop()
                self.fits.append({"nd": size, "peak_bytes": peak})
        return wrapper

    def _wrap_leapfrog(self, hook: Hook, original):
        signature = inspect.signature(original)
        traced_grad = "grad_potential" in signature.parameters

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if traced_grad:
                bound = signature.bind(*args, **kwargs)
                grad = bound.arguments["grad_potential"]

                def grad_potential(y):
                    with self.span("sampling.grad_eval"):
                        return grad(y)

                bound.arguments["grad_potential"] = grad_potential
                args, kwargs = bound.args, bound.kwargs
            with self.span(hook.span):
                return original(*args, **kwargs)
        return wrapper

    def _wrap_cv(self, hook: Hook, original):
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            with self.span(hook.span):
                result = original(*args, **kwargs)
            cells = [c for node in result.nodes for c in node.table]
            lams = sorted({c.lam for c in cells})
            scales = sorted({c.scale for c in cells})
            self.count("evaluation.cv.points", len(cells))
            self.count("evaluation.cv.failed_fits",
                       sum(c.mean_score == float("inf") for c in cells))
            self.count("evaluation.cv.edge_selections", sum(
                node.best_lam in (lams[0], lams[-1])
                or node.best_scale in (scales[0], scales[-1])
                for node in result.nodes))
            return result
        return wrapper

    # --- output ---------------------------------------------------------

    def dump(self) -> dict:
        return {"spans": self.spans, "counters": self.counters,
                "fits": self.fits, "missing": self.missing}


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def summarize(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per span name: ``calls``, inclusive ``s`` and ``self_s``.

    Self time is a span's duration minus the part of it that its child
    spans cover.  Inclusive time of a name counts only its outermost spans,
    so a recursive or re-entrant name is not counted twice.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out: dict[str, dict[str, float]] = {}
    for index, (name, start, end, parent) in enumerate(spans):
        entry = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += (end - start) - _covered(children.get(index, []), start, end)
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            entry["s"] += end - start
    return out

