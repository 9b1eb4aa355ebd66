"""Outside-in tracer for qlof, installed from the benchmark's own files.

``Tracer.install()`` replaces the public functions of every qlof layer module
(cli, dataset, pipeline, primitives, qsim, fixedpoint, lof, ledger) and the
public methods of ``QuantumLofPipeline`` with wrappers that record a span:
name, start, end, parent span and the run id of the dataset being processed.
The wrapper is written into every qlof namespace that holds the original
object, because modules import each other's functions by name (``pipeline``
calls its own ``amplitude_estimate`` binding, ``cli`` calls ``flag`` under the
alias ``classical_flag``).  ``uninstall()`` restores every binding.

``QueryLedger`` methods are counted, not spanned: ``charge`` runs up to
millions of times per dataset (k successive minimum searches charge every
query) and takes a microsecond, so a span per call would cost more than the
work it measures.  Their time stays
in the self time of the caller.

Spans stay in memory; ``write()`` saves them once the run has ended.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import sys
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

LAYERS = ("cli", "dataset", "pipeline", "primitives", "qsim", "fixedpoint", "lof", "ledger")
SPANNED_CLASSES = {"pipeline": ("QuantumLofPipeline",)}
COUNTED_CLASSES = {"ledger": ("QueryLedger",)}
HIT_COUNTED = "primitives.grover_search"  # returns None when no solution was found


def _layer_module(layer: str):
    # The package attribute ``qlof.lof`` is the ``lof`` function, which shadows
    # the module of the same name; sys.modules always holds the module.
    mod = sys.modules[f"qlof.{layer}"]
    if not inspect.ismodule(mod):
        raise RuntimeError(f"sys.modules['qlof.{layer}'] is not a module")
    return mod


def _public_functions(mod):
    for name, obj in vars(mod).items():
        if not name.startswith("_") and inspect.isfunction(obj) and obj.__module__ == mod.__name__:
            yield name, obj


def _methods(cls, with_init: bool):
    for name, obj in vars(cls).items():
        if inspect.isfunction(obj) and (not name.startswith("_") or (with_init and name == "__init__")):
            yield ("init" if name == "__init__" else name), name, obj


class Tracer:
    """Span recorder for one benchmark run."""

    def __init__(self) -> None:
        self.spans: list[tuple | None] = []  # (name, start, end, parent, run_id)
        self.counts: Counter = Counter()  # count-only calls, keyed by (run_id, name)
        self.hits: Counter = Counter()  # run_id -> grover_search calls that found a solution
        self.run_id = -1
        self._tally: dict[str, int] = {}  # count-only calls since the last begin()
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- wrappers ---------------------------------------------------------

    def _span_wrapper(self, fn, name: str):
        spans, stack, hits = self.spans, self._stack, self.hits
        count_hits = name == HIT_COUNTED

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.run_id)
            if count_hits and out is not None:
                hits[self.run_id] += 1
            return out

        return functools.wraps(fn)(wrapper)

    def _count_wrapper(self, fn, name: str):
        tally = self._tally
        tally[name] = 0

        def wrapper(*args, **kwargs):
            tally[name] += 1
            return fn(*args, **kwargs)

        return functools.wraps(fn)(wrapper)

    def begin(self, run_id: int) -> None:
        """Attribute the spans and counts that follow to ``run_id``."""
        self._flush()
        self.run_id = run_id

    def _flush(self) -> None:
        for name, n in self._tally.items():
            if n:
                self.counts[(self.run_id, name)] += n
                self._tally[name] = 0

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        namespaces = [m for n, m in sys.modules.items() if n == "qlof" or n.startswith("qlof.")]
        replace: dict[int, tuple[object, object]] = {}
        for layer in LAYERS:
            mod = _layer_module(layer)
            for fname, fn in _public_functions(mod):
                replace[id(fn)] = (fn, self._span_wrapper(fn, f"{layer}.{fname}"))
            for cname in SPANNED_CLASSES.get(layer, ()):
                cls = getattr(mod, cname)
                for label, attr, fn in _methods(cls, with_init=True):
                    self._set(cls, attr, self._span_wrapper(fn, f"{layer}.{label}"))
            for cname in COUNTED_CLASSES.get(layer, ()):
                cls = getattr(mod, cname)
                for label, attr, fn in _methods(cls, with_init=False):
                    self._set(cls, attr, self._count_wrapper(fn, f"{layer}.{label}"))
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                hit = replace.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._set(ns, attr, hit[1])
        self._self_check(namespaces, replace)

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _self_check(self, namespaces, replace) -> None:
        """Fail loudly when any qlof namespace still reaches an unwrapped
        original, e.g. a primitive imported by name into ``qlof.pipeline``."""
        originals = {key: fn for key, (fn, _) in replace.items()}
        for ns in namespaces:
            for attr, obj in vars(ns).items():
                if originals.get(id(obj)) is obj:
                    raise RuntimeError(f"{ns.__name__}.{attr} escaped the tracer")
        pipeline = _layer_module("pipeline")
        for name in ("amplitude_estimate", "kth_smallest", "quantum_count", "grover_collect",
                     "controlled_value_rotation", "prepare_uniform", "q_div"):
            if not hasattr(getattr(pipeline, name), "__wrapped__"):
                raise RuntimeError(f"qlof.pipeline.{name} is not traced")

    def uninstall(self) -> None:
        self._flush()
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    # -- results ----------------------------------------------------------

    def aggregate(self, run_ids) -> dict:
        """Per-run totals over the given run ids.

        Returns {"calls": {name: n}, "incl": {name: s}, "layer_calls":
        {layer: n}, "layer_self": {layer: s}, "hits": n, "runs": number of runs}.  A span's self time is its duration minus
        the durations of its direct children; none of the traced functions
        calls itself, so summing a function's spans gives its inclusive time.
        """
        wanted = set(run_ids)
        child = defaultdict(float)
        for span in self.spans:
            if span is not None and span[3] >= 0 and span[4] in wanted:
                child[span[3]] += span[2] - span[1]
        calls, incl = Counter(), defaultdict(float)
        layer_calls, layer_self = Counter(), defaultdict(float)
        for idx, span in enumerate(self.spans):
            if span is None or span[4] not in wanted:
                continue
            name, start, end = span[0], span[1], span[2]
            dur = end - start
            own = dur - child.get(idx, 0.0)
            layer = name.split(".", 1)[0]
            calls[name] += 1
            incl[name] += dur
            layer_calls[layer] += 1
            layer_self[layer] += own
        for (rid, name), n in self.counts.items():
            if rid in wanted:
                calls[name] += n
                layer_calls[name.split(".", 1)[0]] += n
        return {
            "calls": calls,
            "incl": incl,
            "layer_calls": layer_calls,
            "layer_self": layer_self,
            "hits": sum(self.hits[r] for r in wanted),
            "runs": len(wanted),
        }

    def write(self, path: Path) -> None:
        """Save every span as tab-separated text: name, start, end, parent, run id."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("idx\tname\tstart\tend\tparent\trun_id\n")
            for idx, span in enumerate(self.spans):
                if span is not None:
                    fh.write(f"{idx}\t{span[0]}\t{span[1]!r}\t{span[2]!r}\t{span[3]}\t{span[4]}\n")
