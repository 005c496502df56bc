"""Span tracer and per-layer counters for the benchmark's traced run.

A span is recorded around each public callable in :data:`SPANS`.  Each
callable is patched where its callers look it up: a method on its class,
a function in every loaded ``repro`` module that holds it under its own
name (callers that imported it by name read it from their own module).
Spans nest on an in-memory stack; a span's self time is its duration
minus the time its direct child spans cover.  :meth:`Tracer.run` opens
a root ``workload`` span whose self time is the ``unattributed`` layer,
so the self times of all spans add up to the traced wall time.

A target that no longer resolves (say, a fast path a later change
deleted) is reported in :attr:`Tracer.missing` and skipped; its metrics
read zero.

Counters are read from public state of the objects the workload holds
(and of the environments, engines and pipelines the collecting spans
saw), before and after the measured phase.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

import numpy as np

__all__ = ["SPANS", "P99_SPANS", "LAYERS", "COUNTERS", "OUTCOME_METRICS",
           "Tracer", "snapshot", "layer_metrics", "metric_units"]

#: (span name, module, attribute path) for every traced callable.
SPANS = (
    ("serving.serve", "repro.serving.pipeline", "ServingPipeline.serve"),
    ("serving.queue.admit", "repro.serving.queue", "AdmissionQueue.admit"),
    ("serving.queue.take_batch", "repro.serving.queue",
     "AdmissionQueue.take_batch"),
    ("serving.shedder.shed_verdict", "repro.serving.shedder",
     "shed_verdict"),
    ("serving.shedder.min_feasible_latency_ms", "repro.serving.shedder",
     "min_feasible_latency_ms"),
    ("serving.brownout.observe_pressure", "repro.serving.brownout",
     "BrownoutController.observe_pressure"),
    ("guard.evaluate", "repro.guard.supervisor", "PolicyGuard.evaluate"),
    ("guard.note_result", "repro.guard.supervisor",
     "PolicyGuard.note_result"),
    ("guard.note_qos", "repro.guard.supervisor", "PolicyGuard.note_qos"),
    ("core.service.handle", "repro.core.service", "AutoScaleService.handle"),
    ("core.engine.step", "repro.core.engine", "AutoScale.step"),
    ("core.engine.step_with_action", "repro.core.engine",
     "AutoScale.step_with_action"),
    ("core.engine.observe_state", "repro.core.engine",
     "AutoScale.observe_state"),
    ("core.engine.select_action", "repro.core.engine",
     "AutoScale.select_action"),
    ("core.engine.select_action_batch", "repro.core.engine",
     "AutoScale.select_action_batch"),
    ("core.qlearning.update", "repro.core.qlearning", "QTable.update"),
    ("core.reward.compute_reward", "repro.core.reward", "compute_reward"),
    ("core.tracing.record_step", "repro.core.tracing",
     "TraceRecorder.record_step"),
    ("core.tracing.record_shed", "repro.core.tracing",
     "TraceRecorder.record_shed"),
    ("core.tracing.record_result", "repro.core.tracing",
     "TraceRecorder.record_result"),
    ("core.batchtrain.run", "repro.core.batchtrain", "BatchTrainer.run"),
    ("core.batchtrain.adapt", "repro.core.batchtrain", "BatchTrainer.adapt"),
    ("env.observe", "repro.env.environment", "EdgeCloudEnvironment.observe"),
    ("env.execute", "repro.env.environment", "EdgeCloudEnvironment.execute"),
    ("env.execute_cached", "repro.env.environment",
     "EdgeCloudEnvironment.execute_cached"),
    ("env.execute_batch", "repro.env.environment",
     "EdgeCloudEnvironment.execute_batch"),
    ("env.estimate_all", "repro.env.environment",
     "EdgeCloudEnvironment.estimate_all"),
    ("sim.schedule", "repro.sim.kernel", "EventKernel.schedule"),
    ("sim.fire_due", "repro.sim.kernel", "EventKernel.fire_due"),
    ("sim.advance_to", "repro.sim.kernel", "EventKernel.advance_to"),
    ("sim.advance_by", "repro.sim.kernel", "EventKernel.advance_by"),
    ("baselines.oracle.select", "repro.baselines.oracle", "OptOracle.select"),
    ("evalharness.train_autoscale", "repro.evalharness.runner",
     "train_autoscale"),
    ("evalharness.adapt_engine", "repro.evalharness.runner", "adapt_engine"),
    ("evalharness.evaluate_autoscale", "repro.evalharness.runner",
     "evaluate_autoscale"),
    ("evalharness.evaluate_scheduler", "repro.evalharness.runner",
     "evaluate_scheduler"),
)

#: Spans that also report the 99th percentile of their call duration.
P99_SPANS = (
    "core.engine.step", "core.engine.step_with_action",
    "core.engine.observe_state", "core.engine.select_action",
    "env.execute", "env.execute_cached", "env.estimate_all",
    "guard.evaluate",
)

#: Low-frequency spans whose first argument is an object the counters
#: read (a pipeline, engine, environment or trainer).  Workloads that
#: build their objects inside one call (the figure driver) are counted
#: through these.
_COLLECT_SPANS = frozenset({
    "serving.serve", "core.batchtrain.run", "core.batchtrain.adapt",
    "evalharness.train_autoscale", "evalharness.adapt_engine",
    "evalharness.evaluate_autoscale", "evalharness.evaluate_scheduler",
})

#: Spans returning a batch; the batch sizes are summed as items.
_ITEM_SPANS = frozenset({"serving.queue.take_batch",
                         "core.engine.select_action_batch"})

LAYERS = ("serving", "guard", "core", "env", "sim", "baselines",
          "evalharness", "unattributed")

#: Counter metrics and their units.  Waiting is virtual time: the host
#: process is single-threaded, so requests only wait on the simulated
#: clock.
COUNTERS = (
    ("sim.events_scheduled", "count"), ("sim.events_fired", "count"),
    ("sim.events_dropped", "count"),
    ("serving.queue.admitted", "count"), ("serving.queue.rejected", "count"),
    ("serving.queue.peak_depth", "count"),
    ("serving.queue.batch_mean", "requests"),
    ("serving.queue.wait_ms_p50", "virtual_ms"),
    ("serving.queue.wait_ms_p99", "virtual_ms"),
    ("serving.shed.expired", "count"), ("serving.shed.infeasible", "count"),
    ("serving.shed.queue_full", "count"),
    ("serving.brownout.escalations", "count"),
    ("serving.brownout.degraded_share", "ratio"),
    ("guard.ticks", "count"), ("guard.escalations", "count"),
    ("guard.alarms", "count"),
    ("core.engine.steps", "count"),
    ("core.select.explored_share", "ratio"),
    ("core.select.batch_mean", "states"),
    ("env.costcache.hits", "count"), ("env.costcache.misses", "count"),
    ("env.costcache.hit_ratio", "ratio"),
    ("env.costcache.evictions", "count"),
    ("env.execute.useful_ratio", "ratio"),
    ("faults.attempts", "count"), ("faults.failures", "count"),
    ("faults.retries_per_request", "retries"),
    ("faults.degraded_pct", "%"),
)

#: The simulated outcome (virtual time and energy), deterministic for a
#: seed and pinned by the outcome digest.  A metric a workload does not
#: produce reads zero (the figure driver returns only normalized PPW
#: and violation shares; only serving refuses requests).
OUTCOME_METRICS = (
    ("outcome.qos_violation_pct", "%"),
    ("outcome.energy_per_delivered_mj", "mJ"),
    ("outcome.latency_ms_p50", "virtual_ms"),
    ("outcome.latency_ms_p99", "virtual_ms"),
    ("outcome.failed_pct", "%"),
    ("outcome.ppw_vs_opt_pct", "%"),
)


def metric_units():
    """Every per-layer metric name mapped to its unit, in report order."""
    units = {}
    for name, _, _ in SPANS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_ms"] = "ms"
        if name in P99_SPANS:
            units[f"{name}.p99_us"] = "us"
    for layer in LAYERS:
        units[f"layer.{layer}.self_ms"] = "ms"
    units["trace.wall_s"] = "s"
    units["trace.overhead_pct"] = "%"
    units.update(COUNTERS)
    units.update(OUTCOME_METRICS)
    return units


def _resolve(module_name, path):
    """``(owner, attribute, original)`` or ``None`` when unresolvable."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attribute = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent, None)
        if owner is None:
            return None
    original = getattr(owner, attribute, None)
    if not callable(original):
        return None
    return owner, attribute, original


class Tracer:
    """Records spans around :data:`SPANS` while installed."""

    def __init__(self):
        # Per span: [calls, self seconds, batch items].
        self.stats = {name: [0, 0.0, 0] for name, _, _ in SPANS}
        self.samples = {name: [] for name in P99_SPANS}
        self.seen = {}
        self.missing = []
        self.root_self_s = 0.0
        self._stack = []
        self._patches = []

    def install(self):
        for name, module_name, path in SPANS:
            resolved = _resolve(module_name, path)
            if resolved is None:
                self.missing.append(name)
                continue
            owner, attribute, original = resolved
            wrapper = self._wrap(name, original)
            if isinstance(owner, type):
                self._patch(owner, attribute, wrapper)
                continue
            for module in list(sys.modules.values()):
                module_name = getattr(module, "__name__", "")
                if (module_name.split(".")[0] == "repro"
                        and vars(module).get(attribute) is original):
                    self._patch(module, attribute, wrapper)

    def uninstall(self):
        for owner, attribute, original in reversed(self._patches):
            if original is None:  # the class inherited it
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, original)
        self._patches.clear()

    def _patch(self, owner, attribute, wrapper):
        self._patches.append((owner, attribute, vars(owner).get(attribute)))
        setattr(owner, attribute, wrapper)

    def _wrap(self, name, original):
        stats = self.stats[name]
        samples = self.samples.get(name)
        seen = self.seen if name in _COLLECT_SPANS else None
        items = name in _ITEM_SPANS
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if seen is not None and args:
                seen[id(args[0])] = args[0]
            children = [0.0]
            stack.append(children)
            started = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = clock() - started
                stack.pop()
                stack[-1][0] += elapsed
                stats[0] += 1
                stats[1] += elapsed - children[0]
                if samples is not None:
                    samples.append(elapsed)
            if items:
                stats[2] += len(result)
            return result

        return traced

    def run(self, measure, state):
        """Run ``measure(state)`` under the root ``workload`` span."""
        children = [0.0]
        self._stack.append(children)
        started = time.perf_counter()
        try:
            return measure(state)
        finally:
            self.root_self_s = (time.perf_counter() - started) - children[0]
            self._stack.pop()

    def self_total_s(self):
        """Self time of every span plus the unattributed root."""
        return self.root_self_s + sum(stat[1] for stat in self.stats.values())


# ----------------------------------------------------------------------
# Counters from public state
# ----------------------------------------------------------------------

def _graph(objects):
    """Pipelines, engines and environments reachable from ``objects``.

    Duck-typed on public attributes, so a renamed class or a deleted
    trainer does not break the count.
    """
    pipelines, services, engines, envs = {}, {}, {}, {}
    for obj in objects:
        if hasattr(obj, "shed_stats") and hasattr(obj, "queue"):
            pipelines[id(obj)] = obj
            obj = obj.service
        if hasattr(obj, "trace") and hasattr(obj, "engine"):
            services[id(obj)] = obj
        if not hasattr(obj, "qtable") and hasattr(obj, "engine"):
            obj = obj.engine
        if hasattr(obj, "qtable") and hasattr(obj, "environment"):
            engines[id(obj)] = obj
            obj = obj.environment
        if hasattr(obj, "kernel") and hasattr(obj, "cost_engine"):
            envs[id(obj)] = obj
    return pipelines, services, engines, envs


def snapshot(objects):
    """Cumulative counters of ``objects``, for before/after deltas."""
    _, services, engines, envs = _graph(objects)
    cache = [env.cost_engine.stats() for env in envs.values()]
    guards = {id(service.guard): service.guard
              for service in services.values()}
    return {
        "sim.events_scheduled": sum(e.kernel.scheduled for e in envs.values()),
        "sim.events_fired": sum(e.kernel.fired for e in envs.values()),
        "sim.events_dropped": sum(e.kernel.dropped for e in envs.values()),
        "env.costcache.hits": sum(stats.hits for stats in cache),
        "env.costcache.misses": sum(stats.misses for stats in cache),
        "env.costcache.evictions": sum(stats.evictions for stats in cache),
        "faults.attempts": sum(e.fault_stats.attempts for e in envs.values()),
        "faults.failures": sum(e.fault_stats.total_failures
                               for e in envs.values()),
        "guard.ticks": sum(g.ticks for g in guards.values()),
        "guard.escalations": sum(g.escalations for g in guards.values()),
        "guard.alarms": sum(sum(g.alarm_counts.values())
                            for g in guards.values()),
        "core.engine.steps": sum(e.total_steps for e in engines.values()),
        "_steps_by_engine": {key: engine.total_steps
                             for key, engine in engines.items()},
    }


def _ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def _percentile(values, q):
    return float(np.percentile(values, q)) if values else 0.0


def layer_metrics(tracer, objects, before, outcome_metrics):
    """Every per-layer metric for one traced repetition.

    ``objects`` are what the workload held, ``before`` their
    :func:`snapshot` at the start of the measured phase.  The rollups
    ``trace.wall_s``/``trace.overhead_pct`` are filled in by the caller,
    which also times the untraced repetitions.
    """
    metrics = {}
    stats = tracer.stats
    for name, _, _ in SPANS:
        metrics[f"{name}.calls"] = stats[name][0]
        metrics[f"{name}.self_ms"] = stats[name][1] * 1e3
    for name in P99_SPANS:
        metrics[f"{name}.p99_us"] = _percentile(tracer.samples[name], 99) * 1e6
    for layer in LAYERS[:-1]:
        metrics[f"layer.{layer}.self_ms"] = sum(
            stats[name][1] for name, _, _ in SPANS
            if name.split(".")[0] == layer) * 1e3
    metrics["layer.unattributed.self_ms"] = tracer.root_self_s * 1e3

    everything = list(objects) + list(tracer.seen.values())
    after = snapshot(everything)
    for key, value in after.items():
        if not key.startswith("_"):
            metrics[key] = value - before[key]
    pipelines, _, engines, _ = _graph(everything)

    explored = steps = 0
    for key, engine in engines.items():
        new = (engine.total_steps
               - before["_steps_by_engine"].get(key, 0))
        tail = list(engine.history)[-new:] if new > 0 else []
        steps += len(tail)
        explored += sum(1 for step in tail if step.explored)
    metrics["core.select.explored_share"] = _ratio(explored, steps)
    metrics["core.select.batch_mean"] = _ratio(
        stats["core.engine.select_action_batch"][2],
        stats["core.engine.select_action_batch"][0])
    hits, misses = metrics["env.costcache.hits"], metrics["env.costcache.misses"]
    metrics["env.costcache.hit_ratio"] = _ratio(hits, hits + misses)
    metrics["env.execute.useful_ratio"] = _ratio(
        metrics["core.engine.steps"] - metrics["faults.failures"],
        metrics["core.engine.steps"])

    queues = [pipeline.queue for pipeline in pipelines.values()]
    sheds = [pipeline.shed_stats.sheds for pipeline in pipelines.values()]
    metrics["serving.queue.admitted"] = sum(q.admitted for q in queues)
    metrics["serving.queue.rejected"] = sum(q.rejected for q in queues)
    metrics["serving.queue.peak_depth"] = max(
        (q.peak_depth for q in queues), default=0)
    metrics["serving.queue.batch_mean"] = _ratio(
        stats["serving.queue.take_batch"][2],
        stats["serving.queue.take_batch"][0])
    for reason in ("expired", "infeasible", "queue_full"):
        metrics[f"serving.shed.{reason}"] = sum(s.get(reason, 0)
                                                for s in sheds)
    metrics["serving.brownout.escalations"] = sum(
        pipeline.brownout.escalations for pipeline in pipelines.values())

    records = [record for pipeline in pipelines.values()
               for record in pipeline.service.trace.records]
    waits = [record.queue_delay_ms for record in records
             if record.status != "shed"]
    metrics["serving.queue.wait_ms_p50"] = _percentile(waits, 50)
    metrics["serving.queue.wait_ms_p99"] = _percentile(waits, 99)
    metrics["serving.brownout.degraded_share"] = _ratio(
        sum(1 for record in records if record.tier != "normal"),
        len(records))
    metrics["faults.retries_per_request"] = _ratio(
        sum(record.retries for record in records), len(records))
    metrics["faults.degraded_pct"] = _ratio(
        sum(1 for record in records if record.status == "degraded"),
        len(records)) * 100.0

    for name, _ in OUTCOME_METRICS:
        metrics[name] = outcome_metrics.get(name.split(".", 1)[1], 0.0)
    return metrics
