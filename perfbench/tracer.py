"""Span tracing of mesospin's public functions, applied from outside.

The program carries no instrumentation. Tracer.install() replaces each traced
function by a wrapper in every mesospin namespace that holds it by name (so
`experiments.propagate`, `checks.propagate` and `modes.propagate` are all
traced, and `modes.expm` and `oracle.expm` are told apart by call site), and
wraps `__init__` of the traced dataclasses. uninstall() puts every original
back. A span is (name, call site, start, end, parent); self time is a span's
duration minus the part of it that its child spans cover. Spans started in a
worker thread hang off the innermost span open on the main thread.

Layer names are the module names. A function that a later version removes
is simply not traced, and its metrics read zero.
"""

from __future__ import annotations

import functools
import gzip
import itertools
import sys
import threading
import time
from collections import Counter, defaultdict

# (module, attribute, span name). Classes are traced through __init__, which
# includes dataclass validation in __post_init__.
TARGETS = (
    ("mesospin.cli", "main", "cli.main"),
    ("mesospin.experiments", "ExperimentConfig", "experiments.ExperimentConfig"),
    ("mesospin.experiments", "run_curve", "experiments.run_curve"),
    ("mesospin.experiments", "sweep_gamma", "experiments.sweep"),
    ("mesospin.experiments", "sweep_temperature", "experiments.sweep"),
    ("mesospin.experiments", "curve_csv_text", "experiments.curve_csv_text"),
    ("mesospin.experiments", "summary_csv_text", "experiments.summary_csv_text"),
    ("mesospin.experiments", "write_text", "experiments.write_text"),
    ("mesospin.sites", "ModelParams", "sites.ModelParams"),
    ("mesospin.modes", "drift_matrix", "modes.drift_matrix"),
    ("mesospin.modes", "initial_state", "modes.initial_state"),
    ("mesospin.modes", "propagate", "modes.propagate"),
    ("mesospin.linalg", "expm", "linalg.expm"),
    ("mesospin.negativity", "negativity", "negativity.negativity"),
    ("mesospin.negativity", "first_mode_block", "negativity.first_mode_block"),
    ("mesospin.negativity", "quadrature_covariance", "negativity.quadrature_covariance"),
    ("mesospin.negativity", "min_symplectic_pt", "negativity.min_symplectic_pt"),
    ("mesospin.negativity", "symplectic_eigenvalues", "negativity.symplectic_eigenvalues"),
    ("mesospin.oracle", "liouvillian", "oracle.liouvillian"),
    ("mesospin.oracle", "extract_mode_generator", "oracle.extract_mode_generator"),
    ("mesospin.oracle", "weyl_expectation_finite", "oracle.weyl_expectation_finite"),
    ("mesospin.oracle", "weyl_expectation_limit", "oracle.weyl_expectation_limit"),
    ("mesospin.checks", "run_checks", "checks.run_checks"),
    ("mesospin.checks", "check_dissipation_spectrum", "checks.dissipation_spectrum"),
    ("mesospin.checks", "check_thermal_invariance", "checks.thermal_invariance"),
    ("mesospin.checks", "check_generator_match", "checks.generator_match"),
    ("mesospin.checks", "check_mode_ccr", "checks.mode_ccr"),
    ("mesospin.checks", "check_clt_convergence", "checks.clt_convergence"),
    ("mesospin.checks", "check_stationarity", "checks.stationarity"),
    ("mesospin.checks", "check_physicality", "checks.physicality"),
)

# Span record fields.
ID, PARENT, NAME, SITE, THREAD, START, END, ERROR = range(8)


def _is_numeric_error(exc: BaseException | None) -> bool:
    return exc is not None and any(c.__name__ == "NumericError" for c in type(exc).__mro__)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._ids = itertools.count()
        self._main_stack: list[int] = []
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []
        self._counts_lock = threading.Lock()

    def _stack(self) -> list[int]:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, name: str, site: str):
        spans, ids, main_stack, stack_of = self.spans, self._ids, self._main_stack, self._stack
        counts, counts_lock = self.counts, self._counts_lock
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = stack_of()
            if stack:
                parent = stack[-1]
            else:
                try:
                    parent = main_stack[-1]
                except IndexError:
                    parent = -1
            span = [next(ids), parent, name, site, threading.get_ident(), clock(), 0, None]
            spans.append(span)
            stack.append(span[ID])
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[ERROR] = exc
                raise
            finally:
                span[END] = clock()
                stack.pop()
            if name == "experiments.write_text" and len(args) > 1:
                with counts_lock:
                    counts["experiments.write_text.bytes"] += len(args[1])
            elif name == "checks.run_checks":
                with counts_lock:
                    counts["checks.failed"] += sum(not r.passed for r in result)
            return result

        return traced

    def _patch(self, owner: object, attr: str, value: object) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> list[str]:
        """Wrap every target in every namespace; return the targets not found."""
        namespaces = [
            (name, mod) for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "mesospin" or name.startswith("mesospin."))
        ]
        missing = []
        for module_name, attr, span_name in TARGETS:
            original = getattr(sys.modules.get(module_name), attr, None)
            if original is None:
                missing.append(f"{module_name}.{attr}")
            elif isinstance(original, type):
                self._patch(original, "__init__",
                            self._wrap(original.__init__, span_name, module_name))
            else:
                for ns_name, ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is original:
                            self._patch(ns, key, self._wrap(original, span_name, ns_name))
        return missing

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def self_times(self) -> dict[int, int]:
        """Span id -> duration minus the union of its children's intervals (ns)."""
        children: dict[int, list[tuple[int, int]]] = defaultdict(list)
        for s in self.spans:
            if s[PARENT] >= 0:
                children[s[PARENT]].append((s[START], s[END]))
        out = {}
        for s in self.spans:
            covered, reach = 0, s[START]
            for start, end in sorted(children.get(s[ID], ())):
                start, end = max(start, reach), min(end, s[END])
                if end > start:
                    covered += end - start
                    reach = end
            out[s[ID]] = s[END] - s[START] - covered
        return out

    def layer_metrics(self, ops: int) -> dict[str, float]:
        """Per-operation totals: <span>.ms, .self_ms, .calls and per-site calls."""
        self_ns = self.self_times()
        total: Counter = Counter()
        for s in self.spans:
            name = s[NAME]
            total[name + ".ns"] += s[END] - s[START]
            total[name + ".self_ns"] += self_ns[s[ID]]
            total[name + ".calls"] += 1
            total[f"{name}.calls.{s[SITE].rsplit('.', 1)[-1]}"] += 1
        numeric_errors = {id(s[ERROR]) for s in self.spans
                          if s[NAME].startswith("negativity.") and _is_numeric_error(s[ERROR])}
        out: dict[str, float] = {}
        for key, value in total.items():
            if key.endswith(".self_ns"):
                out[key[:-8] + ".self_ms"] = value / 1e6 / ops
            elif key.endswith(".ns"):
                out[key[:-3] + ".ms"] = value / 1e6 / ops
            else:
                out[key] = value / ops
        for key, value in self.counts.items():
            out[key] = value / ops
        out["negativity.points"] = total["negativity.negativity.calls"] / ops
        out["negativity.numeric_errors"] = len(numeric_errors) / ops
        return out

    def write(self, path: str) -> None:
        """Write the spans as gzip-compressed CSV."""
        with gzip.open(path, "wt", encoding="ascii", compresslevel=1) as handle:
            handle.write("id,parent,name,site,thread,start_ns,end_ns,error\n")
            for s in self.spans:
                error = type(s[ERROR]).__name__ if s[ERROR] is not None else ""
                handle.write(f"{s[ID]},{s[PARENT]},{s[NAME]},{s[SITE]},{s[THREAD]},"
                             f"{s[START]},{s[END]},{error}\n")
