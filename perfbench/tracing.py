"""Per-layer tracing, installed from outside the program.

Every public function of the traced layers is replaced by a timing wrapper at
every binding a caller can reach it through: the defining module, and each
package module that imported the name (``experiments.run``,
``validation.simulate_events``, the package ``__init__`` re-exports).  The
three success predicates are wrapped only at the simulator's bindings, so
``model.classify_*`` measures the simulator's classification and not the
oracle's independent copy of it.  The sweep's own binding of
``simulator.run`` (``experiments.run``) gets a span of its own,
``experiments.sim_point``, so its calls count the simulated grid points.

A span's self time is its duration minus the time of the wrapped calls made
inside it.  Spans are aggregated per name while the program runs;
:func:`layer_metrics` turns the aggregate into the per-layer metrics.
"""

from __future__ import annotations

import functools
import os
import sys
import time
import types
from collections import defaultdict

LAYERS = ("model", "analytic", "simulator", "oracle", "experiments",
          "validation", "cli")
PREDICATES = ("primary_success", "secondary_capped_success",
              "secondary_solo_success")

# name -> unit, in the order they are printed
PER_LAYER_UNITS = {
    "simulator.time_average_age_s": "s",
    "simulator.time_average_age_calls": "count",
    "simulator.report_from_events_self_s": "s",
    "simulator.simulate_events_s": "s",
    "simulator.simulate_events_calls": "count",
    "simulator.events": "count",
    "simulator.event_bytes_computed": "B",
    "model.classify_s": "s",
    "model.classify_calls": "count",
    "experiments.sim_points": "count",
    "experiments.rows": "count",
    "experiments.csv_bytes": "B",
    "experiments.self_s": "s",
    "analytic.eval_s": "s",
    "analytic.calls": "count",
    "oracle.estimate_s": "s",
    "oracle.trials": "count",
    "simulator.write_event_log_s": "s",
    "simulator.event_log_bytes": "B",
    "oracle.parse_event_log_s": "s",
    "oracle.renewal_aoi_s": "s",
    "validation.self_s": "s",
    "validation.checks": "count",
    "validation.checks_failed": "count",
    "cli.self_s": "s",
    "tracing_overhead_s": "s",
    "max_abs_z": "sigma",
}


def _count_events(counters, args, kwargs, result):
    for ev in result:
        counters["events"] += len(ev.times)
        counters["event_bytes"] += ev.times.nbytes + ev.ages.nbytes + ev.slots.nbytes


def _count_log_bytes(counters, args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs["path"]
    counters["event_log_bytes"] += os.path.getsize(path)


def _count_trials(counters, args, kwargs, result):
    # estimate_gaw_partition returns one triple, estimate_gar_partitions two
    first = result[0] if isinstance(result[0], tuple) else result
    counters["trials"] += first[0].trials


def _count_csv(counters, args, kwargs, result):
    counters["rows"] += result.count("\n") - 1
    counters["csv_bytes"] += len(result.encode())


def _count_checks(counters, args, kwargs, result):
    counters["checks"] += len(result)
    counters["checks_failed"] += sum(not c.passed for c in result)


HOOKS = {
    "simulator.simulate_events": _count_events,
    "simulator.write_event_log": _count_log_bytes,
    "oracle.estimate_gaw_partition": _count_trials,
    "oracle.estimate_gar_partitions": _count_trials,
    "experiments.run_experiment": _count_csv,
    "validation.run_validation": _count_checks,
}


class Tracer:
    """Aggregated spans: per name its calls, inclusive and self seconds."""

    def __init__(self) -> None:
        self.spans: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counters: dict[str, int] = defaultdict(int)
        self._stack: list[list] = []

    def wrap(self, name: str, fn, hook=None):
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0]       # time of the wrapped calls inside this one
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                span = self.spans[name]
                span[0] += 1
                span[1] += dt
                span[2] += dt - frame[0]
            if hook is not None:
                hook(self.counters, args, kwargs, result)
            return result

        return traced

    def dump(self) -> dict:
        return {"spans": dict(self.spans), "counters": dict(self.counters)}


def install(tracer: Tracer, package: str = "crnoma_aoi") -> None:
    """Wrap the layers' public functions at every binding in the package."""
    for layer in LAYERS:
        __import__(f"{package}.{layer}")
    modules = [m for n, m in sys.modules.items()
               if n == package or n.startswith(package + ".")]
    simulator = sys.modules[f"{package}.simulator"]
    experiments = sys.modules[f"{package}.experiments"]
    for layer in LAYERS:
        mod = sys.modules[f"{package}.{layer}"]
        for attr, fn in list(vars(mod).items()):
            if (attr.startswith("_") or not isinstance(fn, types.FunctionType)
                    or fn.__module__ != mod.__name__):
                continue
            name = f"{layer}.{attr}"
            wrapped = tracer.wrap(name, fn, HOOKS.get(name))
            targets = ([simulator] if layer == "model" and attr in PREDICATES
                       else modules)
            for target in targets:
                here = wrapped
                if name == "simulator.run" and target is experiments:
                    here = tracer.wrap("experiments.sim_point", fn)
                for binding, value in list(vars(target).items()):
                    if value is fn:
                        setattr(target, binding, here)


def layer_metrics(trace: dict) -> dict[str, float]:
    """Per-layer metrics from a :meth:`Tracer.dump`; a layer the run did not
    reach reads 0."""
    spans = trace["spans"]
    counters = trace["counters"]

    def calls(name):
        return spans.get(name, (0, 0.0, 0.0))[0]

    def inclusive(name):
        return spans.get(name, (0, 0.0, 0.0))[1]

    def self_time(name):
        return spans.get(name, (0, 0.0, 0.0))[2]

    def layer_self(layer):
        return sum(s[2] for n, s in spans.items() if n.startswith(layer + "."))

    classify = [f"model.{p}" for p in PREDICATES]
    estimators = ("oracle.estimate_gaw_partition", "oracle.estimate_gar_partitions")
    analytic = [s for n, s in spans.items() if n.startswith("analytic.")]
    return {
        "simulator.time_average_age_s": inclusive("simulator.time_average_age"),
        "simulator.time_average_age_calls": calls("simulator.time_average_age"),
        "simulator.report_from_events_self_s": self_time("simulator.report_from_events"),
        "simulator.simulate_events_s": inclusive("simulator.simulate_events"),
        "simulator.simulate_events_calls": calls("simulator.simulate_events"),
        "simulator.events": counters.get("events", 0),
        "simulator.event_bytes_computed": counters.get("event_bytes", 0),
        "model.classify_s": sum(inclusive(n) for n in classify),
        "model.classify_calls": sum(calls(n) for n in classify),
        "experiments.sim_points": calls("experiments.sim_point"),
        "experiments.rows": counters.get("rows", 0),
        "experiments.csv_bytes": counters.get("csv_bytes", 0),
        # sim_point's self time is simulator.run's own code, not the sweep's
        "experiments.self_s": (layer_self("experiments")
                               - self_time("experiments.sim_point")),
        "analytic.eval_s": sum(s[2] for s in analytic),
        "analytic.calls": sum(s[0] for s in analytic),
        "oracle.estimate_s": sum(inclusive(n) for n in estimators),
        "oracle.trials": counters.get("trials", 0),
        "simulator.write_event_log_s": inclusive("simulator.write_event_log"),
        "simulator.event_log_bytes": counters.get("event_log_bytes", 0),
        "oracle.parse_event_log_s": inclusive("oracle.parse_event_log"),
        "oracle.renewal_aoi_s": inclusive("oracle.renewal_aoi"),
        "validation.self_s": layer_self("validation"),
        "validation.checks": counters.get("checks", 0),
        "validation.checks_failed": counters.get("checks_failed", 0),
        "cli.self_s": layer_self("cli"),
    }
