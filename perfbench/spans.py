"""Span tracing from outside the package.

`Tracer.install` replaces selected toaloc functions, at the module attributes
their callers look them up by, with wrappers that record one span per call:
(name, start, end, parent span, trial id). Spans stay in memory until the run
ends; `write` dumps them as TSV and `self_times` folds them into per-function
self time (duration minus the time covered by direct children).

A trial id is the index of the root span a span descends from, so every span
of one Monte-Carlo trial, one epoch solve or one CLI call shares it.
"""

from __future__ import annotations

import importlib
from time import perf_counter

# (layer.function, [(module, attribute), ...]): each function is wrapped at
# the names its callers in the package, or the workloads, resolve it by.
# linalg.solve_spd is wrapped only where the solver calls it, so that the
# factorizations inside linalg.invert_spd stay in the analysis layer.
WRAPPED = (
    ("scenario.benchmark_scenario", [("montecarlo", "benchmark_scenario")]),
    ("measurement.generate", [("montecarlo", "generate")]),
    ("estimator.solve", [("montecarlo", "solve"), ("estimator", "solve")]),
    ("estimator.gauss_newton_step", [("estimator", "gauss_newton_step")]),
    ("estimator.default_initial", [("montecarlo", "default_initial")]),
    ("linalg.solve_spd", [("estimator", "solve_spd")]),
    ("linalg.invert_spd", [("analysis", "invert_spd")]),
    ("analysis.fim", [("analysis", "fim")]),
    ("analysis.check_known_velocity_advantage", [("analysis", "check_known_velocity_advantage")]),
    ("analysis.check_two_way_advantage", [("analysis", "check_two_way_advantage")]),
    ("montecarlo.run_trial", [("montecarlo", "run_trial")]),
    ("montecarlo.aggregate", [("montecarlo", "aggregate")]),
    ("cli.main", [("cli", "main")]),
)

SPAN_NAMES = tuple(name for name, _ in WRAPPED)
SOLVE = "estimator.solve"


class Tracer:
    def __init__(self):
        self.spans: list[tuple[int, float, float, int, int] | None] = []
        self.solve_iterations = 0
        self.solve_converged = 0
        self.missing_sites: list[str] = []
        self._stack: list[int] = []
        self._trial = -1
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name_index: int, fn):
        spans = self.spans
        stack = self._stack
        count_solves = SPAN_NAMES[name_index] == SOLVE

        def traced(*args, **kwargs):
            if stack:
                parent = stack[-1]
            else:
                parent = -1
                self._trial += 1
            span = len(spans)
            spans.append(None)
            stack.append(span)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[span] = (name_index, start, end, parent, self._trial)
            if count_solves:
                self.solve_iterations += result.iterations_used
                self.solve_converged += bool(result.converged)
            return result

        return traced

    def install(self) -> None:
        """Patch every call site in WRAPPED; a site the package no longer has
        is recorded in `missing_sites` and its function reports no calls."""
        for name_index, (name, sites) in enumerate(WRAPPED):
            for module_name, attr in sites:
                module = importlib.import_module(f"toaloc.{module_name}")
                original = getattr(module, attr, None)
                if original is None:
                    site = f"{module_name}.{attr}"
                    if site not in self.missing_sites:
                        self.missing_sites.append(site)
                    continue
                self._patched.append((module, attr, original))
                setattr(module, attr, self._wrap(name_index, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def self_times(self) -> dict[str, tuple[int, float]]:
        """Per span name: (calls, total self time in seconds)."""
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals = {name: [0, 0.0] for name in SPAN_NAMES}
        for index, (name_index, start, end, _, _) in enumerate(self.spans):
            entry = totals[SPAN_NAMES[name_index]]
            entry[0] += 1
            entry[1] += end - start - child_time[index]
        return {name: (calls, self_s) for name, (calls, self_s) in totals.items()}

    def write(self, path) -> None:
        """One line per span: name, start and end in microseconds from the
        first span, parent span index (-1 for a root) and trial id."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            fh.write("span\tname\tstart_us\tend_us\tparent\ttrial\n")
            for index, (name_index, start, end, parent, trial) in enumerate(self.spans):
                fh.write(
                    f"{index}\t{SPAN_NAMES[name_index]}\t{(start - origin) * 1e6:.3f}\t"
                    f"{(end - origin) * 1e6:.3f}\t{parent}\t{trial}\n"
                )
