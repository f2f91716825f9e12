"""Spans and counters around difprec's layer boundaries, installed from outside.

Each wrapper replaces the name a caller looks up (for example
`harness.dpc_sum_capacity` or `linalg.inverse`) and is removed again after the
traced rounds, so untraced rounds run the library untouched.  Every wrapped
call pushes a frame; on exit its duration is added to its own totals and to
its parent's child time, so a layer's self time is its time minus its
children's.  Boundaries of kind "span" also keep one (name, parent, start,
end) record per call in memory, written out by `write_spans` after the run.
The hottest inner boundaries (the LLL calls and the Gram-Schmidt rebuild) are
"counter" boundaries: totals only, no span records.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from array import array
from dataclasses import dataclass, field

# (module, attribute, recorded name, kind).  The module is a dotted path under
# difprec; an attribute with a dot names a method on a class of that module.
BOUNDARIES = (
    ("cli", "run_experiment", "harness.run_experiment", "span"),
    ("cli", "write_trials_csv", "harness.write_trials_csv", "span"),
    ("cli", "write_aggregate_csv", "harness.write_aggregate_csv", "span"),
    ("harness", "run_trial", "harness.run_trial", "span"),
    ("harness", "dpc_sum_capacity", "rates.dpc_sum_capacity", "span"),
    ("rates", "dpc_sum_capacity", "rates.dpc_sum_capacity", "span"),
    ("harness", "design_dif_2user", "designer.design_dif_2user", "span"),
    ("designer", "design_dif_2user", "designer.design_dif_2user", "span"),
    ("harness", "design_dif_generalk", "designer.design_dif_generalk", "span"),
    ("harness", "design_zf", "baselines.design_zf", "span"),
    ("harness", "design_rzf", "baselines.design_rzf", "span"),
    ("harness", "design_zfdp", "baselines.design_zfdp", "span"),
    ("designer", "build_precoder", "designer.build_precoder", "span"),
    ("baselines", "build_precoder", "designer.build_precoder", "span"),
    ("designer", "if_sum_rate", "rates.if_sum_rate", "span"),
    ("baselines", "if_sum_rate", "rates.if_sum_rate", "span"),
    ("msgprecode", "precode_messages", "msgprecode.precode_messages", "span"),
    ("msgprecode", "recover_message", "msgprecode.recover_message", "span"),
    ("msgprecode", "modp_inverse", "msgprecode.modp_inverse", "span"),
    ("designer", "_sorted_reduction", "reduction.lll_search", "counter"),
    ("designer", "shortest_independent_columns", "reduction.lll_final", "counter"),
    ("reduction", "_gso", "reduction.gso", "counter"),
    ("designer", "floor_norm_set", "gaussint.floor_norm_set", "counter"),
    ("designer", "ceil_norm_set", "gaussint.ceil_norm_set", "counter"),
    ("gaussint", "IntegerCoeffMatrix.det_exact", "gaussint.det_exact", "counter"),
    ("linalg", "inverse", "linalg.inverse", "counter"),
    ("linalg", "det", "linalg.det", "counter"),
    ("linalg", "gram", "linalg.gram", "counter"),
)


@dataclass
class Totals:
    calls: int = 0
    seconds: float = 0.0
    self_seconds: float = 0.0


@dataclass
class Tracer:
    """In-memory spans and per-name totals for one benchmark run."""

    totals: dict[str, Totals] = field(default_factory=dict)
    names: list[str] = field(default_factory=list)
    absent: list[str] = field(default_factory=list)
    bytes_written: dict[str, int] = field(default_factory=dict)
    _name_ids: dict[str, int] = field(default_factory=dict)
    _stack: list = field(default_factory=list)
    _next_id: int = 0
    _installed: list = field(default_factory=list)
    span_id: array = field(default_factory=lambda: array("q"))
    span_name: array = field(default_factory=lambda: array("i"))
    span_parent: array = field(default_factory=lambda: array("q"))
    span_start: array = field(default_factory=lambda: array("d"))
    span_end: array = field(default_factory=lambda: array("d"))

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
            self.totals[name] = Totals()
        return self._name_ids[name]

    def wrap(self, fn, name: str, keep_span: bool):
        name_id = self._name_id(name)
        totals = self.totals[name]
        stack = self._stack
        perf_counter = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._next_id
            self._next_id += 1
            frame = [span, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                elapsed = end - start
                totals.calls += 1
                totals.seconds += elapsed
                totals.self_seconds += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
                if keep_span:
                    self.span_id.append(span)
                    self.span_name.append(name_id)
                    self.span_parent.append(stack[-1][0] if stack else -1)
                    self.span_start.append(start)
                    self.span_end.append(end)

        return traced

    def install(self, package) -> None:
        """Wrap every boundary in BOUNDARIES that exists in `package` (difprec)."""
        for module_name, attr, name, kind in BOUNDARIES:
            owner = importlib.import_module(f"{package.__name__}.{module_name}")
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = getattr(owner, leaf, None) if owner is not None else None
            if original is None:
                if f"{module_name}.{attr}" not in self.absent:
                    self.absent.append(f"{module_name}.{attr}")
                continue
            traced = self.wrap(original, name, keep_span=kind == "span")
            if name.startswith("harness.write_"):
                traced = self._count_bytes(traced, name)
            setattr(owner, leaf, traced)
            self._installed.append((owner, leaf, original))

    def _count_bytes(self, fn, name: str):
        @functools.wraps(fn)
        def counted(path, *args, **kwargs):
            result = fn(path, *args, **kwargs)
            self.bytes_written[name] = self.bytes_written.get(name, 0) + os.path.getsize(path)
            return result

        return counted

    def uninstall(self) -> None:
        for owner, leaf, original in reversed(self._installed):
            setattr(owner, leaf, original)
        self._installed.clear()

    def get(self, name: str) -> Totals:
        return self.totals.get(name, Totals())

    def write_spans(self, path) -> int:
        """Write every kept span as CSV (times in microseconds from the first span)."""
        t0 = min(self.span_start) if self.span_start else 0.0
        lines = ["span,name,parent,start_us,end_us"]
        for i in range(len(self.span_id)):
            lines.append(
                f"{self.span_id[i]},{self.names[self.span_name[i]]},{self.span_parent[i]},"
                f"{(self.span_start[i] - t0) * 1e6:.3f},{(self.span_end[i] - t0) * 1e6:.3f}"
            )
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        return len(self.span_id)
