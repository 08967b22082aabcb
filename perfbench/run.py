"""Run one benchmark workload, check its simulated results, print its metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload fig03a_openloop_8x8 --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one table

A run sets up its workload, then repeats units of timed work until
``--seconds`` have passed (at least two units), checks every simulated result,
times the set-up again in fresh processes, and prints one JSON object as the
last line of standard output: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  It exits non-zero when a result differs
from its committed value (``expected/<workload>.json``) or from the same
result reached by another path.  ``--record`` rewrites the committed values
for one seed.  NOTES.md explains the workloads and every metric.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from hostclock import HostClock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
EXPECTED_DIR = HERE / "expected"
WORKDIR = ROOT / ".perfbench"

#: Environment toggles that change the program's code path; a run under any
#: of them would time and check something other than what was committed.
PATH_TOGGLES = (
    "REPRO_DISABLE_FAST_FORWARD",
    "REPRO_CHECK_INVARIANTS",
    "REPRO_NO_CACHE",
    "REPRO_CACHE_SALT",
    "REPRO_DEFAULT_BACKEND",
)
MIN_UNITS = 2
SETUP_PROBES = 3
#: Explore units have inputs of their own; --record commits this many.
RECORD_UNITS = 4
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]


def _units(section: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[section]}


def _import_workloads():
    sys.path.insert(0, str(ROOT / "src"))
    import workloads  # noqa: E402  (needs src/ on the path first)

    return workloads


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def _setup_seconds(name: str, seed: int) -> float:
    """Median time from process start to a set-up workload, over fresh processes.

    A probe reports its set-up in wall and in reference seconds (its own
    host clock starts after the interpreter does); the interpreter's start,
    measured from here, is added in wall seconds.
    """
    samples = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(Path(__file__)), "--workload", name,
             "--seed", str(seed), "--setup-probe"],
            stdout=subprocess.PIPE, text=True,
        )
        try:
            words = proc.stdout.readline().split()
            total = time.perf_counter() - start
        finally:
            proc.stdout.close()
            code = proc.wait(timeout=120)
        if code != 0 or len(words) != 3 or words[0] != "ready":
            raise RuntimeError(f"set-up probe failed (exit {code}, said {words!r})")
        wall, reference = float(words[1]), float(words[2])
        samples.append(total - wall + reference)
    return statistics.median(samples)


def _expected_path(name: str) -> Path:
    return EXPECTED_DIR / f"{name}.json"


def _load_expected(name: str, seed: int):
    path = _expected_path(name)
    if not path.exists():
        return None
    return json.loads(path.read_text(encoding="utf-8")).get(str(seed))


def _same(a, b) -> bool:
    return json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def _check(workloads, workload, outputs: list[dict], expected) -> tuple[list[str], str]:
    """Failures of the committed-value and repeat checks, and what was checked."""
    failures = []
    if workload.repeats_inputs:
        failures += [
            f"unit {i} differs from unit 0 on identical inputs"
            for i, out in enumerate(outputs[1:], start=1)
            if not _same(out, outputs[0])
        ]
        if expected is None:
            expected = workload.reference()
            basis = "reference computed in this run" if expected is not None else None
        else:
            basis = "committed values"
        if expected is not None:
            failures += workloads.mismatches("unit 0", outputs[0], expected)
        return failures, basis or "repeat and cross-path checks only (no committed values)"
    expected = expected or []
    for i, (out, want) in enumerate(zip(outputs, expected)):
        failures += workloads.mismatches(f"unit {i}", out, want)
    checked = min(len(outputs), len(expected))
    basis = f"committed values for {checked} of {len(outputs)} units, cross-path checks for all"
    return failures, basis


def _end_to_end(tally, setup_s: float, rss: float) -> dict[str, float]:
    return {
        "setup_s": setup_s,
        "wall_s": statistics.median(tally.unit_walls),
        "sim_cycles_per_s": tally.cycles / tally.sim_seconds,
        "flit_hops_per_s": tally.hops / tally.sim_seconds,
        "points_per_s": tally.rate("primary"),
        "replay_points_per_s": tally.rate("replay"),
        "remote_points_per_s": tally.rate("remote"),
        "peak_rss_mb": rss,
        "ok_frac": 1.0 - tally.failed / tally.attempted,
    }


def run_one(args, clock) -> int:
    wall0, reference0 = time.perf_counter(), clock.now()
    workloads = _import_workloads()
    cls = workloads.WORKLOADS[args.workload]
    WORKDIR.mkdir(exist_ok=True)
    workload = cls(args.seed, WORKDIR)
    if args.setup_probe:
        workload.setup()
        print(f"ready {time.perf_counter() - wall0!r} {clock.now() - reference0!r}", flush=True)
        workload.close()
        return 0

    tally = workloads.Tally(clock)
    outputs: list[dict] = []
    problems: list[str] = []
    layer = None
    workload.setup()
    try:
        if args.trace:
            layer = _traced_units(workload, workloads, clock, tally, outputs, problems, args)
        else:
            start = clock.now()
            count = workload.unit_count(args.seconds)
            if args.record:
                count = RECORD_UNITS if count is not None else 1

            def more() -> bool:
                if count is not None:
                    return len(outputs) < count
                return len(outputs) < MIN_UNITS or clock.now() - start < args.seconds

            while more():
                results, mismatches = workload.run_unit(len(outputs), tally)
                outputs.append(results)
                problems += mismatches
    except Exception:
        traceback.print_exc()
        problems.append("a unit raised an error (traceback on stderr)")
        tally.add("error", 1, 0.0, failed=1)
    finally:
        workload.close()
    rss = _peak_rss_mb()

    if args.record and outputs and not problems:
        return _record(workload, outputs)

    expected = _load_expected(cls.name, args.seed)
    failures, basis = _check(workloads, workload, outputs, expected) if outputs else ([], "none")
    failures = problems + failures
    for line in workload.paper(outputs[0]) if outputs else []:
        print(f"{cls.name}: {line}")
    print(f"{cls.name}: output check basis: {basis}")
    for failure in failures:
        print(f"{cls.name}: CHECK FAILED: {failure}")

    if layer is not None:
        units = _units("per_layer")
        metrics = {k: {"value": v, "unit": units[k]} for k, v in layer.items()}
    else:
        values = _end_to_end(tally, _setup_seconds(cls.name, args.seed), rss) if outputs else {}
        units = _units("end_to_end")
        metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    for key, m in metrics.items():
        print(f"{cls.name}: {key} = {m['value']!r} {m['unit']}")
    correct = not failures and bool(outputs)
    print(json.dumps({
        "correct": correct,
        "attempted": max(tally.attempted, 1),
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


def _traced_units(workload, workloads, clock, tally, outputs, problems, args) -> dict[str, float]:
    """One untraced unit, then the same unit traced; the per-layer metrics."""
    import tracing

    reference = workloads.Tally(clock)
    results, mismatches = workload.run_unit(0, reference)
    outputs.append(results)
    problems += mismatches
    tracer = tracing.Tracer(run_id=f"{workload.name}-seed{args.seed}")
    tracer.install()
    try:
        results, mismatches = workload.run_unit(0, tally)
    finally:
        tracer.uninstall()
    problems += mismatches
    if not _same(results, outputs[0]):
        problems.append("the traced unit's results differ from the untraced unit's")
    tracer.write_jsonl(WORKDIR / f"trace-{workload.name}-seed{args.seed}.jsonl")
    from repro.service.client import ServiceClient

    with ServiceClient(workload.service.host, workload.service.port) as client:
        stats = client.info()["stats"]
    workers = getattr(workload, "WORKERS", 1)
    layer = tracing.per_layer(tracer, workers=workers)
    layer["service.requeued"] = stats["leases_expired"]
    layer["trace.overhead_frac"] = tally.unit_walls[0] / reference.unit_walls[0] - 1.0
    return layer


def _record(workload, outputs: list[dict]) -> int:
    if workload.repeats_inputs:
        value = workload.reference() or outputs[0]
        if not _same(value, outputs[0]):
            print(f"{workload.name}: reference differs from the measured results; not recorded")
            return 1
    else:
        value = outputs
    path = _expected_path(workload.name)
    EXPECTED_DIR.mkdir(exist_ok=True)
    table = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    table[str(workload.seed)] = value
    path.write_text(
        json.dumps(dict(sorted(table.items(), key=lambda kv: int(kv[0]))), indent=1, sort_keys=True)
        + "\n",
        encoding="utf-8",
    )
    print(f"{workload.name}: recorded seed {workload.seed} -> {path.relative_to(ROOT)}")
    return 0


def run_all(args) -> int:
    """Every workload in a fresh process; one table of metrics; non-zero on any failure."""
    worst = 0
    rows = []
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(line)
        worst = max(worst, proc.returncode)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            rows.append((name, "(no result)", "", ""))
            worst = max(worst, 1)
            continue
        for key, m in result["metrics"].items():
            rows.append((name, key, m["value"], m["unit"]))
        failed = f"{result['failed']}/{result['attempted']} failed"
        rows.append((name, "correct", result["correct"], failed))
    print()
    for name, key, value, unit in rows:
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"{name:28s} {key:34s} {shown:>14s} {unit}")
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="rewrite the committed check values for this seed")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    toggles = [name for name in PATH_TOGGLES if os.environ.get(name)]
    if toggles:
        print(f"refusing to run: {', '.join(toggles)} changes the program's code path",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    clock = HostClock().start()
    try:
        return run_one(args, clock)
    except ImportError as exc:
        print(f"cannot import the program from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    finally:
        clock.stop()


if __name__ == "__main__":
    sys.exit(main())
