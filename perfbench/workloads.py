"""The benchmark's four workloads, written against the program's public API.

Each workload builds its inputs from one seed, does its set-up in
:meth:`setup` (everything before the first simulated cycle or dispatched
point), and then runs *units* of timed work.  A unit returns the simulated
results the output checks compare and adds its work and host time to a
:class:`Tally`.  Why each workload exists, and which layer it stresses, is in
NOTES.md.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import shutil
import threading
from collections import defaultdict
from pathlib import Path

import numpy as np

from repro.analysis.io import canonical_json
from repro.analysis.pareto import hypervolume
from repro.config import CmpConfig, NetworkConfig
from repro.core.cache import ResultCache, cache_salt
from repro.core.closedloop import BatchSimulator
from repro.core.correlation import pearson
from repro.core.explore import QUICK_HV_REFERENCE, QUICK_SPACE, ExploreSpec, genome_config
from repro.core.openloop import OpenLoopSimulator
from repro.core.parallel import enumerate_points
from repro.execdriven import BENCHMARKS, TIMER_INTERVAL_3GHZ, CmpSystem
from repro.network.factory import build_network
from repro.service import client as service_client
from repro.service.controller import Controller, ControllerServer, ServiceOptions
from repro.service.worker import Worker

# Module functions are called through their modules, so the traced run's
# wrappers (tracing.py) see the benchmark's own calls too.  The explore
# module is looked up by name: ``repro.core.explore`` the attribute is the
# function that ``repro.core`` re-exports.
explore_mod = importlib.import_module("repro.core.explore")

#: Seconds between the remote client's polls; small, so that the poll
#: period does not dominate the service's dispatch time.
POLL_SECONDS = 0.01


class Tally:
    """Work done and host time spent, per pass, over a run's units.

    Times come from ``clock.now()``: reference-speed seconds of a
    :class:`~hostclock.HostClock`, so the host's speed phases cancel out.
    """

    def __init__(self, clock) -> None:
        self.now = clock.now
        self.points: dict[str, int] = defaultdict(int)
        self.seconds: dict[str, float] = defaultdict(float)
        self.unit_walls: list[float] = []
        self.cycles = 0
        self.hops = 0
        self.sim_seconds = 0.0
        self.attempted = 0
        self.failed = 0

    def add(self, pass_name: str, points: int, seconds: float, failed: int = 0) -> None:
        self.points[pass_name] += points
        self.seconds[pass_name] += seconds
        self.attempted += points
        self.failed += failed

    def simulated(self, cycles: int, hops: int, seconds: float) -> None:
        self.cycles += cycles
        self.hops += hops
        self.sim_seconds += seconds

    def rate(self, pass_name: str) -> float:
        seconds = self.seconds[pass_name]
        return self.points[pass_name] / seconds if seconds else 0.0


class NetworkCounter:
    """A ``network_factory`` that counts the cycles and flit hops simulated
    on the networks it builds.

    Runs are sequential, so a network is finished once the next one is
    built; only the newest is kept, which keeps memory flat.
    """

    def __init__(self) -> None:
        self.network = None
        self.runs = self.cycles = self.hops = 0

    def _fold(self) -> None:
        if self.network is not None:
            self.runs += 1
            self.cycles += self.network.now
            self.hops += self.network.total_flit_traversals
            self.network = None

    def __call__(self, config):
        self._fold()
        self.network = build_network(config)
        return self.network

    def drain(self) -> tuple[int, int, int]:
        """(networks built, cycles, flit hops) since the last drain."""
        self._fold()
        out = (self.runs, self.cycles, self.hops)
        self.runs = self.cycles = self.hops = 0
        return out


class Service:
    """An in-process sweep controller; each remote pass gets one worker thread."""

    def __init__(self) -> None:
        options = ServiceOptions(idle_backoff=0.005, fallback_after=None)
        self.server = ControllerServer(Controller(options=options)).start()
        host, port = self.server.address
        self.host, self.port = host, port
        self.address = f"{host}:{port}"

    def run(self, fn, *args, **kwargs):
        """Call ``fn`` while one worker thread serves the controller."""
        stop = threading.Event()
        worker = Worker(self.host, self.port, name="perfbench-worker")
        thread = threading.Thread(target=worker.run, args=(stop,), daemon=True)
        thread.start()
        try:
            return fn(*args, **kwargs)
        finally:
            stop.set()
            thread.join(timeout=60.0)

    def sweep(self, base, axes, runner, **kwargs):
        return self.run(
            service_client.run_remote_sweep, self.address, base, axes, runner,
            poll_interval=POLL_SECONDS, **kwargs,
        )

    def close(self) -> None:
        self.server.stop()


def latency_digest(latencies: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(latencies, dtype=np.float64).tobytes()).hexdigest()


def openloop_summary(res) -> dict:
    return {
        "avg_latency": res.avg_latency,
        "throughput": res.throughput,
        "saturated": res.saturated,
        "latency_digest": latency_digest(res.latencies),
    }


# Module-level runners, so the service worker can import them by name.


def openloop_point(cfg, *, rate, warmup, measure, drain_limit):
    """One open-loop run at ``rate``; the sweep-service runner of the remote legs."""
    sim = OpenLoopSimulator(cfg, warmup=warmup, measure=measure, drain_limit=drain_limit)
    return openloop_summary(sim.run(rate))


def batch_point(cfg, *, batch_size):
    """One baseline batch-model run; the sweep-service runner of fig15's remote leg."""
    res = BatchSimulator(cfg, batch_size=batch_size, max_outstanding=1).run()
    return {"runtime": res.runtime, "completed": res.completed}


def _record_failures(records) -> int:
    return sum(1 for r in records if r.get("failed"))


def mismatches(label: str, got: dict, want: dict) -> list[str]:
    """One line per key of ``want`` whose value ``got`` does not repeat exactly."""
    return [
        f"{label}: {key} is {canonical_json(got.get(key))}, expected {canonical_json(want[key])}"
        for key in sorted(want)
        if canonical_json(got.get(key)) != canonical_json(want[key])
    ]


class Workload:
    """Shared shape: ``setup``, ``run_unit``, ``close``; subclasses fill them in."""

    name = ""
    #: True when every unit repeats the same inputs (so every unit's results
    #: must equal the first's); False when unit ``i`` has inputs of its own.
    repeats_inputs = True

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self.service: Service | None = None

    def setup(self) -> None:
        self.service = Service()

    def close(self) -> None:
        if self.service is not None:
            self.service.close()
            self.service = None

    def run_unit(self, index: int, tally: Tally) -> tuple[dict, list[str]]:
        """Run unit ``index``; return its results and any cross-path mismatches."""
        raise NotImplementedError

    def unit_count(self, seconds: float) -> int | None:
        """Units a ``seconds`` run makes, or None to repeat until time is up."""
        return None

    def reference(self) -> dict | None:
        """Results to check against when no committed values exist for the seed."""
        return None

    def paper(self, results: dict) -> list[str]:
        """Lines that print the results beside the paper's reference values."""
        return []


class Fig03aOpenLoop(Workload):
    """Fig. 3(a): latency-load curve, zero-load latency and saturation per tr."""

    name = "fig03a_openloop_8x8"
    TRS = (1, 2, 4)
    LOADS = (0.05, 0.15, 0.25, 0.32, 0.38, 0.42)
    WINDOWS = dict(warmup=100, measure=200, drain_limit=600)
    #: loads also dispatched through the service (the remote leg)
    REMOTE_LOADS = LOADS[:2]
    #: The search's lower bracket.  The default, 0.02, is checked over a
    #: 200-cycle window, where the accepted-throughput test fails by chance
    #: on some seeds and the search reports 0.0.
    SATURATION_LO = 0.1

    def setup(self) -> None:
        super().setup()
        self.counter = NetworkCounter()
        self.counter(NetworkConfig(seed=self.seed))
        self.counter.drain()

    def run_unit(self, index, tally):
        results = {}
        start = tally.now()
        for tr in self.TRS:
            sim = OpenLoopSimulator(
                NetworkConfig(router_delay=tr, seed=self.seed),
                network_factory=self.counter,
                **self.WINDOWS,
            )
            sweep = sim.latency_load_sweep(self.LOADS)
            zero_load = sim.zero_load_latency()
            saturation = sim.saturation_throughput(tolerance=0.02, lo=self.SATURATION_LO)
            results[f"tr={tr}"] = {
                "sweep": [
                    [r.injection_rate, r.avg_latency, r.throughput] for r in sweep
                ],
                "zero_load": zero_load,
                "saturation": saturation,
            }
        wall = tally.now() - start
        runs, cycles, hops = self.counter.drain()
        tally.unit_walls.append(wall)
        tally.add("primary" if index == 0 else "replay", runs, wall)
        tally.simulated(cycles, hops, wall)

        runner = functools.partial(openloop_point, **self.WINDOWS)
        start = tally.now()
        records = self.service.sweep(
            NetworkConfig(seed=self.seed),
            {"router_delay": self.TRS},
            runner,
            extra_axes={"rate": self.REMOTE_LOADS},
            derive_seeds=False,
        )
        tally.add("remote", len(records), tally.now() - start, _record_failures(records))
        problems = []
        for rec in records:
            curve = results[f"tr={rec['router_delay']}"]["sweep"]
            local = next((p for p in curve if p[0] == rec["rate"]), None)
            if local is None or [rec["avg_latency"], rec["throughput"]] != local[1:]:
                problems.append(
                    f"remote leg: tr={rec['router_delay']} rate={rec['rate']} gave "
                    f"{rec.get('avg_latency')!r}, in-process run gave {local!r}"
                )
        return results, problems

    def paper(self, results):
        zl = {tr: results[f"tr={tr}"]["zero_load"] for tr in self.TRS}
        sat = ", ".join(f"tr={tr} {results[f'tr={tr}']['saturation']:.3f}" for tr in self.TRS)
        return [
            f"zero-load latency ratio tr=2/tr=1 {zl[2] / zl[1]:.3f} (paper 1.5), "
            f"tr=4/tr=1 {zl[4] / zl[1]:.3f} (paper 2.5)",
            f"saturation {sat} (paper: about 0.43, unchanged by tr)",
        ]


class Fig15Correlation(Workload):
    """Fig. 15: execution-driven CMP runtime vs the baseline batch model."""

    name = "fig15_cmp_correlation_4x4"
    TRS = (1, 2, 4, 8)
    INSTRUCTIONS = 1500
    BATCH_SIZE = 150

    def _network(self, tr: int) -> NetworkConfig:
        return NetworkConfig(k=4, n=2, num_vcs=8, vc_buffer_size=4, router_delay=tr, seed=self.seed)

    def _cmp(self, factory, tr: int) -> CmpSystem:
        return CmpSystem(
            factory(self.INSTRUCTIONS),
            CmpConfig(network=self._network(tr)),
            timer_interval=TIMER_INTERVAL_3GHZ,
            seed=self.seed,
        )

    def setup(self) -> None:
        super().setup()
        self.counter = NetworkCounter()
        self._cmp(next(iter(BENCHMARKS.values())), self.TRS[0])

    def run_unit(self, index, tally):
        cycles = hops = runs = failed = 0
        exec_cycles = {}
        start = tally.now()
        for name, factory in BENCHMARKS.items():
            for tr in self.TRS:
                system = self._cmp(factory, tr)
                res = system.run()
                exec_cycles[f"{name}@tr={tr}"] = res.cycles
                cycles += system.network.now
                hops += system.network.total_flit_traversals
                runs += 1
                failed += not res.completed
        batch = {}
        for tr in self.TRS:
            res = BatchSimulator(
                self._network(tr), batch_size=self.BATCH_SIZE, max_outstanding=1,
                network_factory=self.counter,
            ).run()
            batch[f"tr={tr}"] = res.runtime
            failed += not res.completed
        wall = tally.now() - start
        batch_runs, batch_cycles, batch_hops = self.counter.drain()
        tally.unit_walls.append(wall)
        tally.add("primary" if index == 0 else "replay", runs + batch_runs, wall, failed)
        tally.simulated(cycles + batch_cycles, hops + batch_hops, wall)
        xs = [
            exec_cycles[f"{n}@tr={tr}"] / exec_cycles[f"{n}@tr=1"]
            for n in BENCHMARKS
            for tr in self.TRS
        ]
        ys = [batch[f"tr={tr}"] / batch["tr=1"] for _ in BENCHMARKS for tr in self.TRS]
        results = {"cmp_cycles": exec_cycles, "batch_runtime": batch, "r": pearson(xs, ys)}

        start = tally.now()
        records = self.service.sweep(
            self._network(1),
            {"router_delay": self.TRS},
            functools.partial(batch_point, batch_size=self.BATCH_SIZE),
            derive_seeds=False,
        )
        tally.add("remote", len(records), tally.now() - start, _record_failures(records))
        problems = []
        for rec in records:
            local = batch[f"tr={rec['router_delay']}"]
            if rec.get("runtime") != local:
                problems.append(
                    f"remote leg: batch tr={rec['router_delay']} runtime "
                    f"{rec.get('runtime')!r}, in-process {local!r}"
                )
        return results, problems

    def paper(self, results):
        return [f"Pearson r exec-driven vs batch model {results['r']:.3f} (paper 0.829)"]


class ExploreQuick(Workload):
    """NSGA-II over the quick design space: cold, warm, remote and serial passes."""

    name = "explore_quick_2w"
    repeats_inputs = False
    WORKERS = 2
    WARM_REPEATS = 20
    POPULATION = 8
    GENERATIONS = 3
    RATES = (0.1, 0.55)
    WINDOWS = dict(warmup=60, measure=120, drain_limit=600)
    #: Host-clock seconds one unit takes, about; sets the unit count.
    NOMINAL_UNIT_S = 3.3

    def unit_count(self, seconds):
        # Units differ in their inputs, so the count is fixed by --seconds
        # alone: a faster or slower program measures the same explorations.
        return max(2, round(seconds / self.NOMINAL_UNIT_S))

    def _inputs(self, index: int) -> tuple[NetworkConfig, ExploreSpec]:
        # Unit i draws its simulation seeds from (seed, i), so a run averages
        # over several explorations.  The explorer's own seed is i alone:
        # every run then evaluates a comparable mix of designs, and the
        # points rate compares across seeds.
        spec = ExploreSpec(
            space=QUICK_SPACE, population=self.POPULATION, generations=self.GENERATIONS,
            seed=index + 1, rates=self.RATES, **self.WINDOWS,
        )
        return NetworkConfig(k=4, n=2, seed=self.seed * 1000 + index), spec

    def setup(self) -> None:
        super().setup()
        cache_salt()  # hashes the simulator sources once per process
        self.counter = NetworkCounter()

    def run_unit(self, index, tally):
        base, spec = self._inputs(index)
        cache_dir = self.workdir / f"explore-cache-{index}"
        shutil.rmtree(cache_dir, ignore_errors=True)
        problems = []
        try:
            start = tally.now()
            cold = explore_mod.explore(
                base, spec, n_workers=self.WORKERS, cache=ResultCache(cache_dir))
            wall = tally.now() - start
            tally.unit_walls.append(wall)
            tally.add("primary", cold.health.total, wall, cold.errors)
            front = canonical_json(cold.front)

            for _ in range(self.WARM_REPEATS):
                start = tally.now()
                warm = explore_mod.explore(
                    base, spec, n_workers=self.WORKERS, cache=ResultCache(cache_dir))
                tally.add("replay", warm.health.total, tally.now() - start, warm.errors)
                if canonical_json(warm.front) != front:
                    problems.append(f"unit {index}: warm front differs from cold front")
                if warm.health.cache_hits != cold.health.ok:
                    problems.append(
                        f"unit {index}: warm pass answered {warm.health.cache_hits} points "
                        f"from the cache, cold pass simulated {cold.health.ok}"
                    )
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)

        start = tally.now()
        remote = self.service.run(explore_mod.explore, base, spec, remote=self.service.address)
        tally.add("remote", remote.health.total, tally.now() - start, remote.errors)
        if canonical_json(remote.front) != front:
            problems.append(f"unit {index}: remote front differs from cold front")

        problems += self._serial_pass(base, spec, cold, tally)
        results = {
            "front_sha256": hashlib.sha256(front.encode("utf-8")).hexdigest(),
            "front_size": len(cold.front),
            "hypervolume": hypervolume([r["objectives"] for r in cold.front], QUICK_HV_REFERENCE),
            "infeasible": cold.infeasible,
            "points": cold.health.total,
        }
        return results, problems

    def _serial_pass(self, base, spec, cold, tally) -> list[str]:
        """Re-simulate generation 0 in this process; it must reproduce the pool's records.

        Generation 0 depends on the explorer's seed alone, so this pass
        simulates the same designs in every run (only their traffic differs).
        """
        problems = []
        start = tally.now()
        for entry in cold.archive:
            if entry["generation"] != 0 or entry["source"] != "simulated":
                continue
            pairs = tuple(tuple(p) for p in entry["genome"])
            for rate, metric in zip(spec.rates, ("latency", "throughput")):
                (point,) = enumerate_points(base, {}, {"genome": (pairs,), "rate": (rate,)})
                cfg = genome_config(base.with_(seed=point.seed), pairs)
                res = OpenLoopSimulator(
                    cfg, warmup=spec.warmup, measure=spec.measure,
                    drain_limit=spec.drain_limit, network_factory=self.counter,
                ).run(rate)
                got = res.throughput if metric == "throughput" else (
                    float("inf") if res.saturated else res.avg_latency)
                if got != entry["metrics"][metric]:
                    problems.append(
                        f"serial pass: {entry['key']} {metric} {got!r}, pool gave "
                        f"{entry['metrics'][metric]!r}"
                    )
        wall = tally.now() - start
        runs, cycles, hops = self.counter.drain()
        tally.add("serial", runs, wall)
        tally.simulated(cycles, hops, wall)
        return problems

    def paper(self, results):
        return [
            f"front of {results['front_size']} designs, hypervolume "
            f"{results['hypervolume']:.1f}, {results['infeasible']} infeasible genomes "
            "(the paper has no explorer; these are checked against committed values)"
        ]


class VectorizedMesh3d(Workload):
    """An 8x8x8 mesh on the vectorized backend, below its knee and past saturation."""

    name = "vectorized_mesh3d_8"
    RATES = (0.15, 0.45)
    WINDOWS = dict(warmup=100, measure=200, drain_limit=300)

    def _config(self, backend: str) -> NetworkConfig:
        return NetworkConfig(k=8, n=3, backend=backend, seed=self.seed)

    def setup(self) -> None:
        super().setup()
        self.counter = NetworkCounter()
        self.counter(self._config("vectorized"))
        self.counter.drain()

    def _simulate(self, backend: str, factory=build_network) -> dict:
        sim = OpenLoopSimulator(self._config(backend), network_factory=factory, **self.WINDOWS)
        return {f"rate={rate}": openloop_summary(sim.run(rate)) for rate in self.RATES}

    def run_unit(self, index, tally):
        start = tally.now()
        results = self._simulate("vectorized", self.counter)
        wall = tally.now() - start
        runs, cycles, hops = self.counter.drain()
        tally.unit_walls.append(wall)
        tally.add("primary" if index == 0 else "replay", runs, wall)
        tally.simulated(cycles, hops, wall)

        rate = self.RATES[0]
        start = tally.now()
        records = self.service.sweep(
            self._config("vectorized"),
            {},
            functools.partial(openloop_point, **self.WINDOWS),
            extra_axes={"rate": (rate,)},
            derive_seeds=False,
        )
        tally.add("remote", len(records), tally.now() - start, _record_failures(records))
        problems = mismatches("remote leg", records[0], results[f"rate={rate}"])
        return results, problems

    def reference(self):
        """The object backend's results for the same configs (slow: after timing)."""
        return self._simulate("object")

    def paper(self, results):
        return [
            f"{key}: latency {r['avg_latency']:.2f}, throughput {r['throughput']:.4f}, "
            f"saturated {r['saturated']}"
            for key, r in results.items()
        ] + ["(vectorized results must equal the object backend's, bit for bit)"]


WORKLOADS = {
    cls.name: cls
    for cls in (Fig03aOpenLoop, Fig15Correlation, ExploreQuick, VectorizedMesh3d)
}
