"""Span recorder for the traced run, and the per-layer metrics read from its spans.

`Tracer.install` rebinds each traced public function in every gibbslab module
namespace that holds it and wraps the traced methods on their classes, so the
calls the library makes to itself are recorded too (glued_convergence_table,
say, looks up single_site_kernel as a module global).  A span is
[name, start, end, parent span, run id, work]; the run id is the benchmark op
or CLI job the span belongs to.  Spans stay in memory until `write` puts them
in a JSON-lines file, and `layer_metrics` works from that file's contents
alone.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

TRACED_FUNCTIONS = {
    "core": ("glue", "regularity_probe"),
    "bitshift": ("cylinder_prob", "transition_matrices", "cylinder_log_prob",
                 "bad_config_table", "block_distribution", "entropy_levels",
                 "smb_estimate", "capacity_search"),
    "weak_gibbs": ("single_site_kernel", "hamiltonian", "hamiltonian_tail_bound",
                   "glued_convergence_table", "kernel_radius_enumerated",
                   "bad_tail_fraction"),
    "relent": ("window_relative_entropy", "relative_entropy_density",
               "tv_identity_check", "conditional_gap_probe"),
    "cli": ("main",),
}

TRACED_METHODS = {  # span name -> (module, class, method)
    "core.distribution": ("core", "MeasureProvider", "distribution"),
    "weak_gibbs.FiniteVolumeMeasure.prob": ("weak_gibbs", "FiniteVolumeMeasure", "prob"),
    "weak_gibbs.FiniteVolumeMeasure.event_prob": ("weak_gibbs", "FiniteVolumeMeasure",
                                                  "event_prob"),
    "weak_gibbs.FiniteVolumeMeasure.init": ("weak_gibbs", "FiniteVolumeMeasure", "__init__"),
}

# Work a span did, from its bound arguments and result: [useful, attempted]
# words for block_distribution, samples, tails or words otherwise.
WORK = {
    "bitshift.block_distribution":
        lambda a, r: [len(r), len(a["params"].output_symbols) ** a["n"]],
    "bitshift.smb_estimate": lambda a, r: r.samples,
    # the reference kernel counts as one tail
    "weak_gibbs.glued_convergence_table": lambda a, r: len(r) + 1,
    "weak_gibbs.kernel_radius_enumerated": lambda a, r: 2 ** (a["m"] - a["prefix"].window.hi),
    "weak_gibbs.bad_tail_fraction": lambda a, r: r.samples + 1,
    "core.distribution": lambda a, r: len(r),
}

# Spans the benchmark records around its own steps.
PASS, PASS_UNTRACED, OP, VERIFY, SETUP = (
    "bench.pass", "bench.pass.untraced", "bench.op", "oracle.verify", "bench.setup")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.run_id = -1
        self.active = False
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _wrap(self, name, fn):
        work = WORK.get(name)
        signature = inspect.signature(fn) if work else None
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.run_id, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if work:
                span[5] = work(signature.bind(*args, **kwargs).arguments, result)
            return result
        return traced

    def install(self) -> None:
        homes = {m: importlib.import_module(f"gibbslab.{m}") for m in TRACED_FUNCTIONS}
        namespaces = [m for n, m in sorted(sys.modules.items())
                      if n == "gibbslab" or n.startswith("gibbslab.")]
        for module, names in TRACED_FUNCTIONS.items():
            home = homes[module]
            for attr in names:
                original = getattr(home, attr)
                wrapped = self._wrap(f"{module}.{attr}", original)
                for ns in namespaces:
                    if getattr(ns, attr, None) is original:
                        self._saved.append((ns, attr, original))
                        setattr(ns, attr, wrapped)
        for name, (module, cls, method) in TRACED_METHODS.items():
            klass = getattr(importlib.import_module(f"gibbslab.{module}"), cls)
            original = klass.__dict__[method]
            self._saved.append((klass, method, original))
            setattr(klass, method, self._wrap(name, original))
        self.active = True

    def uninstall(self) -> None:
        self.active = False
        for obj, attr, original in reversed(self._saved):
            setattr(obj, attr, original)
        self._saved.clear()

    def record(self, name: str, start: float, end: float) -> None:
        """A span for one of the benchmark's own steps, measured by the caller."""
        self.spans.append([name, start, end, self._stack[-1] if self._stack else -1, -1, None])

    def open(self, name: str) -> int:
        """Start a benchmark span that library spans nest under; returns its index."""
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.run_id, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = perf_counter()
        return self._stack[-1]

    def close(self, index: int) -> None:
        self.spans[index][2] = perf_counter()
        self._stack.pop()

    def write(self, path: Path, header: dict) -> None:
        with open(path, "w", encoding="utf-8") as f:
            f.write(json.dumps(header) + "\n")
            for span in self.spans:
                f.write(json.dumps(span) + "\n")


def read_spans(path: Path) -> list[list]:
    with open(path, encoding="utf-8") as f:
        next(f)  # header
        return [json.loads(line) for line in f]


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Every per-layer metric, from spans alone.  Rates and ratios over an
    empty base read 0."""
    by_name: dict[str, list[int]] = defaultdict(list)
    children: dict[int, list[int]] = defaultdict(list)
    for i, (name, _, _, parent, _, _) in enumerate(spans):
        by_name[name].append(i)
        if parent >= 0:
            children[parent].append(i)

    def duration(i):
        return spans[i][2] - spans[i][1]

    def inside(i, test):
        parent = spans[i][3]
        while parent >= 0:
            if test(spans[parent][0]):
                return True
            parent = spans[parent][3]
        return False

    def calls(name):
        return len(by_name[name])

    def busy(name):
        # time covered by the name's spans, counting nested calls of itself once
        return sum((duration(i) for i in by_name[name] if not inside(i, name.__eq__)), 0.0)

    def self_time(name):
        return sum((duration(i) - sum(duration(c) for c in children[i]) for i in by_name[name]),
                   0.0)

    def p50_us(name):
        durations = [duration(i) for i in by_name[name]]
        return statistics.median(durations) * 1e6 if durations else 0.0

    def work(name, index=None):
        return sum(spans[i][5] if index is None else spans[i][5][index]
                   for i in by_name[name] if spans[i][5] is not None)

    def ratio(a, b):
        return a / b if b else 0.0

    m: dict[str, float] = {}
    for name in ("core.distribution", "core.glue"):
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.busy_s"] = busy(name)
    m["core.regularity_probe.busy_s"] = busy("core.regularity_probe")

    bs = "bitshift."
    for name in ("cylinder_prob", "transition_matrices", "cylinder_log_prob", "entropy_levels"):
        m[f"{bs}{name}.calls"] = calls(bs + name)
        m[f"{bs}{name}.busy_s"] = busy(bs + name)
    m[f"{bs}cylinder_prob.p50_us"] = p50_us(bs + "cylinder_prob")
    m[f"{bs}transition_matrices.per_cylinder"] = ratio(
        calls(bs + "transition_matrices"), calls(bs + "cylinder_prob"))
    for name in ("bad_config_table", "block_distribution", "smb_estimate", "capacity_search"):
        m[f"{bs}{name}.busy_s"] = busy(bs + name)
    m[f"{bs}block_distribution.kept_ratio"] = ratio(
        work(bs + "block_distribution", 0), work(bs + "block_distribution", 1))
    m[f"{bs}smb_estimate.samples_per_s"] = ratio(
        work(bs + "smb_estimate"), busy(bs + "smb_estimate"))

    wg = "weak_gibbs."
    for name in ("single_site_kernel", "hamiltonian", "hamiltonian_tail_bound"):
        m[f"{wg}{name}.calls"] = calls(wg + name)
        m[f"{wg}{name}.busy_s"] = busy(wg + name)
    m[f"{wg}single_site_kernel.p50_us"] = p50_us(wg + "single_site_kernel")
    tails = sum(work(wg + name) for name in
                ("glued_convergence_table", "kernel_radius_enumerated", "bad_tail_fraction"))
    m[f"{wg}single_site_kernel.per_tail"] = ratio(calls(wg + "single_site_kernel"), tails)
    for name in ("glued_convergence_table", "kernel_radius_enumerated", "bad_tail_fraction"):
        m[f"{wg}{name}.busy_s"] = busy(wg + name)
    m[f"{wg}kernel_radius_enumerated.tails_per_s"] = ratio(
        work(wg + "kernel_radius_enumerated"), busy(wg + "kernel_radius_enumerated"))
    fvm = wg + "FiniteVolumeMeasure."
    for name in ("prob", "event_prob"):
        m[f"{fvm}{name}.calls"] = calls(fvm + name)
        m[f"{fvm}{name}.busy_s"] = busy(fvm + name)
    m[f"{fvm}prob.p50_us"] = p50_us(fvm + "prob")
    m[f"{fvm}init.busy_s"] = busy(fvm + "init")

    def in_relent(name):
        return name.startswith("relent.")

    for name in TRACED_FUNCTIONS["relent"]:
        m[f"relent.{name}.busy_s"] = busy("relent." + name)
        m[f"relent.{name}.self_s"] = self_time("relent." + name)
    relent_busy = sum(duration(i) for name, ids in by_name.items() if in_relent(name)
                      for i in ids if not inside(i, in_relent))
    relent_words = sum(spans[i][5] for i in by_name["core.distribution"] if inside(i, in_relent))
    m["relent.words_per_s"] = ratio(relent_words, relent_busy)

    m["cli.main.calls"] = calls("cli.main")
    m["cli.main.busy_s"] = busy("cli.main")
    m["cli.main.self_s"] = self_time("cli.main")

    m["oracle.verify_s"] = sum(duration(i) for i in by_name[VERIFY])
    traced = [duration(i) for i in by_name[PASS]]
    untraced = [duration(i) for i in by_name[PASS_UNTRACED]]
    m["trace.overhead_ratio"] = ratio(statistics.median(traced) if traced else 0.0,
                                      statistics.median(untraced) if untraced else 0.0)
    return m
