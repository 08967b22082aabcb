"""Timing spans around the program's public functions, for the traced run only.

The benchmark's end-to-end numbers come from runs that install nothing.  A
``--trace 1`` run calls :meth:`Tracer.install`, which replaces a fixed list of
public methods and module functions with wrappers.  Every wrapper keeps a
per-thread stack so a span's self time is its duration minus the time its
child spans cover.  Coarse boundaries (one simulation run, one sweep, one
RPC) are kept as individual spans and written as JSONL at the end; per-flit
and per-cycle functions (``Router.step``, ``route``, ``offer``) are far too
frequent to keep one by one, so they are folded into per-name totals at the
same boundaries.  Wrappers do not reach the explore pool's child processes;
worker-side time there comes from the sweep records' ``wall_seconds``.
"""

from __future__ import annotations

import importlib
import json
import os
import threading
import time
from collections import defaultdict

#: (module, attribute path, span name, keep each span individually)
TARGETS = (
    ("repro.network.network", "Network.step", "network.step", False),
    ("repro.network.network", "Network.offer", "network.offer", False),
    ("repro.network.router", "Router.step", "network.router_step", False),
    ("repro.routing.dor", "DOR.route", "routing.route", False),
    ("repro.routing.valiant", "Valiant.route", "routing.route", False),
    ("repro.routing.minimal_adaptive", "MinimalAdaptive.route", "routing.route", False),
    ("repro.routing.romm", "ROMM.route", "routing.route", False),
    ("repro.routing.fault", "FaultAwareRouting.route", "routing.route", False),
    ("repro.traffic.process", "Bernoulli.arrivals", "traffic.arrivals", False),
    ("repro.traffic.process", "MarkovOnOff.arrivals", "traffic.arrivals", False),
    ("repro.traffic.patterns", "UniformRandom.dest", "traffic.dest", False),
    ("repro.traffic.patterns", "PermutationPattern.dest", "traffic.dest", False),
    ("repro.traffic.patterns", "HotSpot.dest", "traffic.dest", False),
    ("repro.core.engine", "SimulationEngine.run", "engine.run", True),
    ("repro.core.openloop", "OpenLoopSimulator.run", "openloop.run", True),
    ("repro.core.closedloop", "BatchSimulator.run", "closedloop.run", True),
    ("repro.execdriven.cmp", "CmpSystem.__init__", "execdriven.setup", True),
    ("repro.execdriven.cmp", "CmpSystem.run", "execdriven.run", True),
    ("repro.execdriven.cmp", "CmpSystem.inject", "execdriven.inject", False),
    ("repro.execdriven.cmp", "CmpSystem.on_delivered", "execdriven.on_delivered", False),
    ("repro.network.vectorized", "VectorizedNetwork.step", "vectorized.step", False),
    ("repro.network.vectorized", "VectorizedNetwork.offer", "vectorized.offer", False),
    ("repro.core.parallel", "run_sweep", "parallel.run_sweep", True),
    ("repro.core.explore", "run_sweep", "parallel.run_sweep", True),
    ("repro.core.cache", "ResultCache.get", "cache.get", False),
    ("repro.core.cache", "ResultCache.put", "cache.put", False),
    ("repro.core.cache", "point_key", "cache.point_key", False),
    ("repro.core.explore", "nsga2_select", "explore.select", True),
    ("repro.core.explore", "make_offspring", "explore.select", True),
    ("repro.core.explore", "explore", "explore.run", True),
    ("repro.service.client", "run_remote_sweep", "service.remote_sweep", True),
    ("repro.service.controller", "Controller.handle", "service.handle", True),
)

#: Message types of the sweep-service protocol, one per-layer metric pair each.
SERVICE_MESSAGES = ("hello", "request", "heartbeat", "result", "submit", "poll", "info")


class Tracer:
    """Wrappers that record spans and counters; see the module docstring."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[dict] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._local = threading.local()
        self._lock = threading.Lock()
        # name -> [calls, total_ns, child_ns], one table per thread, merged on read
        self._tables: list[dict] = []
        self._restore: list[tuple[object, str, object]] = []
        self._next_id = 0

    # -- installation ---------------------------------------------------
    def install(self) -> None:
        # The explore pool forks while server threads may hold the lock; a
        # child must not inherit it locked.
        os.register_at_fork(after_in_child=self._reset_lock)
        for module_name, path, name, keep in TARGETS:
            owner = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for parent in parents:
                owner = getattr(owner, parent)
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._restore.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, keep))

    def _reset_lock(self) -> None:
        self._lock = threading.Lock()

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- recording ------------------------------------------------------
    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.table = defaultdict(lambda: [0, 0, 0])
            with self._lock:
                self._tables.append(local.table)
        return local

    def _wrap(self, name: str, fn, keep: bool):
        tracer = self
        after = _AFTER.get(name)
        is_handle = name == "service.handle"

        def wrapper(*args, **kwargs):
            local = tracer._state()
            stack = local.stack
            span_name = name
            if is_handle:
                span_name = f"service.handle.{args[1].get('type')}"
            span_id = None
            if keep:
                with tracer._lock:
                    span_id = tracer._next_id
                    tracer._next_id += 1
            frame = [span_id, 0]  # [id, child_ns]
            parent = stack[-1][0] if stack else None
            stack.append(frame)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                row = local.table[span_name]
                row[0] += 1
                row[1] += duration
                row[2] += frame[1]
                if keep:
                    span = {
                        "run": tracer.run_id,
                        "id": span_id,
                        "parent": parent,
                        "name": span_name,
                        "thread": threading.get_ident(),
                        "start_ns": start,
                        "end_ns": end,
                        "self_ns": duration - frame[1],
                    }
                    with tracer._lock:
                        tracer.spans.append(span)
            if after is not None:
                after(tracer, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def count(self, name: str, value: float) -> None:
        with self._lock:
            self.counters[name] += value

    def totals(self) -> dict[str, list[int]]:
        """Per-name [calls, total_ns, child_ns] summed over threads."""
        out: dict[str, list[int]] = defaultdict(lambda: [0, 0, 0])
        with self._lock:
            tables = list(self._tables)
        for table in tables:
            for name, row in list(table.items()):
                acc = out[name]
                for i in range(3):
                    acc[i] += row[i]
        return out

    def write_jsonl(self, path) -> None:
        """The kept spans, one per line, then one line of per-name totals."""
        totals = {
            name: {"calls": calls, "total_ns": total, "self_ns": total - child}
            for name, (calls, total, child) in sorted(self.totals().items())
        }
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
            fh.write(json.dumps({"run": self.run_id, "totals": totals}) + "\n")


# -- counters read at span boundaries -----------------------------------------


def _after_network_step(tracer: Tracer, args, result) -> None:
    net = args[0]
    waiting = sum(1 for queues in net.src_queues if any(queues))
    tracer.count("network.src_waiting_node_cycles", waiting)
    tracer.count("network.node_cycles", net.num_nodes)


def _after_engine_run(tracer: Tracer, args, result) -> None:
    net = args[0].network
    backend = "vectorized" if type(net).__name__ == "VectorizedNetwork" else "network"
    tracer.count("engine.cycles", net.now)
    tracer.count("engine.ff_cycles", net.fast_forwarded_cycles)
    tracer.count(f"{backend}.flit_hops", net.total_flit_traversals)


def _after_batch_run(tracer: Tracer, args, result) -> None:
    tracer.count("closedloop.requests", result.total_requests)


def _after_cmp_run(tracer: Tracer, args, result) -> None:
    tracer.count("execdriven.runs", 1)
    tracer.count("execdriven.l2_miss_rate_sum", result.l2_miss_rate)
    tracer.count("execdriven.nar_sum", result.nar)


def _after_run_sweep(tracer: Tracer, args, result) -> None:
    tracer.count("parallel.points", len(result))
    tracer.count("parallel.runner_s", sum(r.get("wall_seconds", 0.0) for r in result))
    tracer.count("parallel.retried", result.health.retried)


def _after_cache_get(tracer: Tracer, args, result) -> None:
    # A hit replays a stored record, wall_seconds included: that runner time
    # was spent by an earlier sweep, so it is taken off parallel.runner_s.
    if result is not None:
        tracer.count("cache.hits", 1)
        tracer.count("cache.hit_runner_s", result.get("wall_seconds", 0.0))


def _after_explore(tracer: Tracer, args, result) -> None:
    tracer.count("explore.generations", len(result.populations) - 1)
    tracer.count("explore.infeasible", result.infeasible)


_AFTER = {
    "network.step": _after_network_step,
    "engine.run": _after_engine_run,
    "closedloop.run": _after_batch_run,
    "execdriven.run": _after_cmp_run,
    "parallel.run_sweep": _after_run_sweep,
    "cache.get": _after_cache_get,
    "explore.run": _after_explore,
}


# -- reduction to the per-layer metrics -----------------------------------------


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _self_ns(row) -> int:
    return row[1] - row[2]


def per_layer(tracer: Tracer, *, workers: int) -> dict[str, float]:
    """Reduce spans and counters to ``{metric: value}``; units are in BENCHMARK.json.

    Per-call times are self times (the span minus its wrapped children)
    unless the metric's name says otherwise; see NOTES.md for each one.
    """
    t = tracer.totals()
    c = tracer.counters
    us = 1e-3  # ns -> us
    s = 1e-9  # ns -> s

    def calls(name):
        return t[name][0]

    def self_us(name):
        return _ratio(_self_ns(t[name]) * us, calls(name))

    def total_us(name):
        return _ratio(t[name][1] * us, calls(name))

    sweep_s = t["parallel.run_sweep"][1] * s
    runner_s = c["parallel.runner_s"] - c["cache.hit_runner_s"]
    gets = calls("cache.get")
    out = {
        "network.step_calls": calls("network.step"),
        "network.step_self_us": self_us("network.step"),
        "network.router_steps_per_cycle": _ratio(
            calls("network.router_step"), calls("network.step")),
        "network.router_step_us": self_us("network.router_step"),
        "network.offer_calls": calls("network.offer"),
        "network.offer_us": total_us("network.offer"),
        "network.flit_hops": c["network.flit_hops"],
        "network.injection_stall_frac": _ratio(
            c["network.src_waiting_node_cycles"], c["network.node_cycles"]),
        "routing.route_calls": calls("routing.route"),
        "routing.route_us": total_us("routing.route"),
        "traffic.arrivals_us": total_us("traffic.arrivals"),
        "traffic.dest_us": total_us("traffic.dest"),
        "engine.self_s": _self_ns(t["engine.run"]) * s,
        "engine.ff_cycle_frac": _ratio(c["engine.ff_cycles"], c["engine.cycles"]),
        "openloop.runs": calls("openloop.run"),
        "openloop.run_s": _ratio(t["openloop.run"][1] * s, calls("openloop.run")),
        "closedloop.run_s": _ratio(
            t["closedloop.run"][1] * s, calls("closedloop.run")),
        "closedloop.requests": c["closedloop.requests"],
        "execdriven.setup_s": _ratio(
            t["execdriven.setup"][1] * s, calls("execdriven.setup")),
        "execdriven.inject_us": self_us("execdriven.inject"),
        "execdriven.on_delivered_us": self_us("execdriven.on_delivered"),
        "execdriven.l2_miss_rate": _ratio(
            c["execdriven.l2_miss_rate_sum"], c["execdriven.runs"]),
        "execdriven.nar": _ratio(c["execdriven.nar_sum"], c["execdriven.runs"]),
        "vectorized.step_calls": calls("vectorized.step"),
        "vectorized.step_us": total_us("vectorized.step"),
        "vectorized.offer_us": total_us("vectorized.offer"),
        "vectorized.us_per_flit_hop": _ratio(
            t["vectorized.step"][1] * us, c["vectorized.flit_hops"]),
        "parallel.run_sweep_s": sweep_s,
        "parallel.runner_s": runner_s,
        "parallel.overhead_s": sweep_s - runner_s / workers if calls("parallel.run_sweep") else 0.0,
        "parallel.points": c["parallel.points"],
        "parallel.retried": c["parallel.retried"],
        "cache.get_calls": gets,
        "cache.get_us": total_us("cache.get"),
        "cache.put_calls": calls("cache.put"),
        "cache.put_us": total_us("cache.put"),
        "cache.point_key_us": total_us("cache.point_key"),
        "cache.hit_ratio": _ratio(c["cache.hits"], gets),
        "explore.select_s": t["explore.select"][1] * s,
        "explore.generations": c["explore.generations"],
        "explore.infeasible": c["explore.infeasible"],
        "service.remote_sweep_s": t["service.remote_sweep"][1] * s,
    }
    for msg in SERVICE_MESSAGES:
        out[f"service.handle_calls.{msg}"] = calls(f"service.handle.{msg}")
        out[f"service.handle_us.{msg}"] = total_us(f"service.handle.{msg}")
    return out
