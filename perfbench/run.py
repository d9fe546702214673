#!/usr/bin/env python3
"""One benchmark for the SMI simulator: end-to-end and per-layer metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload stream_p2p --seed 1 --trace 0
    python3 perfbench/run.py --workload all --seed 1  # one process each
    python3 perfbench/run.py --write-spec  # BENCHMARK.json, layers.json

A run builds the workload's inputs from ``--seed``, discards one warm-up
simulation, then simulates back to back for ``--seconds`` seconds; every
simulation is checked (pinned cycle counts, outputs against their
references) and a failure is counted, not raised. ``--trace 0`` reports
the end-to-end metrics; ``--trace 1`` adds one simulation under
``cProfile`` and reports the per-layer metrics instead. The last line of
standard output is the JSON result; the lines before it name every
metric with its unit and the result of every check.

Simulated time is the modelled FPGA time; host time is what the
simulator takes. Every ``*_s`` metric here is host time.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass
from functools import reduce
from pathlib import Path
from time import perf_counter

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent

RUN_SECONDS = 30

#: (name, unit, better, bound): the bound is the share of the parent's
#: median by which a metric may worsen before a change is a regression.
#: Host time gets the widest bound allowed: on a shared 2-core machine
#: the host's speed drifts by up to 1.7x over minutes, and the quartile
#: spread of ten 30 s runs' medians measured 0.12-0.32 of the median.
END_TO_END = (
    ("wall_s", "s", "lower", 0.25),
    ("sim_cycles_per_s", "cycles/s", "higher", 0.25),
    ("flits_per_s", "flits/s", "higher", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.10),
)


def _layer_time(layer: str) -> list[tuple[str, str, str]]:
    return [(f"{layer}.self_s", "s", "lower"),
            (f"{layer}.share", "fraction", "lower")]


PER_LAYER = (
    _layer_time("engine") + [("engine.steps", "count", "lower")]
    + _layer_time("fifo") + [
        ("fifo.pushes", "count", "lower"),
        ("fifo.pops", "count", "lower"),
        ("fifo.burst_items", "count", "higher")]
    + _layer_time("arbiter")
    + _layer_time("planner") + [
        ("planner.attempts", "count", "lower"),
        ("planner.windows", "count", "higher"),
        ("planner.hit_rate", "fraction", "higher"),
        ("planner.takes", "count", "higher"),
        ("planner.bulk_frac", "ratio", "higher"),
        ("planner.replications", "count", "higher"),
        ("planner.replication_hit_rate", "fraction", "higher"),
        ("planner.cruise_rounds", "count", "higher"),
        ("planner.ff_jumps", "count", "higher"),
        ("planner.ff_disarms", "count", "lower")]
    + _layer_time("channel") + [("channel.opens", "count", "lower")]
    + _layer_time("link") + [
        ("link.packets", "count", "lower"),
        ("link.utilization", "fraction", "higher")]
    + _layer_time("collectives")
    + _layer_time("memory")
    + _layer_time("setup") + [
        ("setup.routes_s", "s", "lower"),
        ("setup.plan_s", "s", "lower"),
        ("setup.transport_s", "s", "lower")]
    + _layer_time("shard") + [
        ("shard.compute_s", "s", "lower"),
        ("shard.serialize_s", "s", "lower"),
        ("shard.ipc_wait_s", "s", "lower"),
        ("shard.inner_rounds", "count", "lower"),
        ("shard.outer_rounds", "count", "lower"),
        ("shard.compute_inflation", "ratio", "lower")]
    + _layer_time("app")
    + _layer_time("interp")
    + [("trace.overhead", "ratio", "lower")]
)

@dataclass
class Sample:
    """One simulation: host timings, simulated work, failed checks."""

    wall_s: float
    setup: dict
    cycles: tuple
    packets: int
    shard: dict
    errors: list


def _link_stats(results) -> tuple[int, float]:
    """Packets over all links, and mean utilisation of the busy links.

    A link's FIFO is pushed once per packet staged on it; the FIFO
    counters reach the coordinator from the sharded backend too, where
    the links themselves stay in the workers.
    """
    packets = busy_cycles = 0
    for res in results:
        per_link = [s["pushes"] for name, s in res.engine.fifo_stats().items()
                    if name.startswith("link.")]
        packets += sum(per_link)
        busy_cycles += sum(1 for p in per_link if p) * res.cycles
    return packets, (packets / busy_cycles if busy_cycles else 0.0)


def _shard_totals(results) -> dict:
    """Worker timing summed over shards (all zero off the process backend)."""
    from repro.trace import TIMING_FIELDS

    totals = dict.fromkeys(TIMING_FIELDS, 0)
    for res in results:
        for timing in getattr(res.transport, "shard_timing", []) or []:
            for key in TIMING_FIELDS:
                totals[key] += (timing or {}).get(key) or 0
    return totals


def run_once(workload, inputs, probe, config=None,
             profiler=None) -> tuple[Sample, list]:
    """Simulate once; the failure of a run is recorded, not raised."""
    probe.reset()
    gc.collect()
    start = perf_counter()
    if profiler is not None:
        profiler.enable()
    try:
        outputs = workload.run(inputs, config or workload.config)
        errors = []
    except Exception as exc:  # a failed run counts; the benchmark goes on
        outputs = None
        errors = ["run failed: " + "".join(
            traceback.format_exception_only(exc)).strip()]
    finally:
        if profiler is not None:
            profiler.disable()
    wall = perf_counter() - start
    results = probe.results
    cycles = tuple(res.cycles for res in results)
    if outputs is not None:
        errors += [f"run ended with reason {res.reason!r}"
                   for res in results if not res.completed]
        if cycles != workload.pin:
            errors.append(f"cycles {cycles} != pinned {workload.pin}")
        errors += workload.check(inputs, outputs)
    packets, _ = _link_stats(results)
    return Sample(wall, dict(probe.setup), cycles, packets,
                  _shard_totals(results), errors), results


def _median(values) -> float:
    return float(statistics.median(values))


def _spread(values) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    return f"n={len(values)}, min {min(values):.6g}, max {max(values):.6g}"


def end_to_end(samples: list[Sample]) -> dict:
    good = [s for s in samples if not s.errors] or samples
    walls = [s.wall_s for s in good]
    sim_cycles = [sum(s.cycles) / s.wall_s for s in good]
    flits = [s.packets / s.wall_s for s in good]
    setups = [sum(s.setup.values()) for s in good]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {
        "wall_s": (_median(walls), _spread(walls)),
        "sim_cycles_per_s": (_median(sim_cycles), _spread(sim_cycles)),
        "flits_per_s": (_median(flits), _spread(flits)),
        "setup_s": (_median(setups), _spread(setups)),
        "peak_rss_mb": (rss_mb, "ru_maxrss of this process"),
    }


def per_layer(workload, inputs, probe, timed, extra) -> dict:
    """The traced run, plus counters and timings from public objects.

    Host timings come from the untraced samples ``timed``; the traced
    run, and the sequential run of a sharded workload, are appended to
    ``extra`` so that their checks count.
    """
    from repro.simulation.stats import PlannerStats, collect_planner_stats

    import layers

    profiler = cProfile.Profile()
    # A forked shard worker inherits the profiler; switch it off there so
    # the workers run at full speed (their time shows as shard.compute_s).
    os.register_at_fork(after_in_child=profiler.disable)
    traced, results = run_once(workload, inputs, probe, profiler=profiler)
    extra.append(traced)
    prof = layers.attribute(profiler)

    values: dict[str, tuple[float, str]] = {}
    for name in layers.LAYER_NAMES:
        values[f"{name}.self_s"] = (prof.self_s[name], "traced run")
        values[f"{name}.share"] = (prof.share(name), "traced run")
    fifo = [s for res in results for s in res.engine.fifo_stats().values()]
    packets, utilization = _link_stats(results)
    planner = reduce(PlannerStats.merge,
                     (collect_planner_stats(r.transport) for r in results),
                     PlannerStats())
    note = "count, traced run"
    values.update({
        "engine.steps": (prof.engine_steps, "profiled calls of Engine._step"),
        "fifo.pushes": (sum(s["pushes"] for s in fifo), note),
        "fifo.pops": (sum(s["pops"] for s in fifo), note),
        "fifo.burst_items": (sum(s["burst_items"] for s in fifo), note),
        "planner.attempts": (planner.attempts, note),
        "planner.windows": (planner.windows, note),
        "planner.hit_rate": (planner.hit_rate, note),
        "planner.takes": (planner.takes, note),
        "planner.bulk_frac": (planner.takes / packets if packets else 0.0,
                              "planner.takes / link.packets"),
        "planner.replications": (planner.replications, note),
        "planner.replication_hit_rate": (planner.replication_hit_rate, note),
        "planner.cruise_rounds": (planner.cruise_rounds, note),
        "planner.ff_jumps": (planner.ff_jumps, note),
        "planner.ff_disarms": (planner.ff_disarms, note),
        "channel.opens": (prof.channel_opens,
                          "profiled calls of SMIContext.open_*_channel"),
        "link.packets": (packets, note),
        "link.utilization": (utilization, "packets / (busy links x cycles)"),
    })
    good = [s for s in timed if not s.errors] or timed
    for phase in ("routes", "plan", "transport"):
        values[f"setup.{phase}_s"] = (
            _median([s.setup[phase] for s in good]), "median, untraced runs")
    for key in good[0].shard:
        values[f"shard.{key}"] = (
            _median([s.shard[key] for s in good]),
            "median over untraced runs of the sum over shards")
    inflation = 0.0
    if workload.reference_config.backend != workload.config.backend:
        seq, _ = run_once(workload, inputs, probe, workload.reference_config)
        extra.append(seq)
        inflation = values["shard.compute_s"][0] / seq.wall_s
    values["shard.compute_inflation"] = (
        inflation, "summed worker compute_s / sequential wall")
    wall_median = _median([s.wall_s for s in good])
    values["trace.overhead"] = (traced.wall_s / wall_median,
                                "traced wall / untraced median wall_s")
    return {name: values[name] for name, _, _ in PER_LAYER}


def measure(name: str, seed: int, seconds: float, trace: bool) -> int:
    from probe import Probe
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    inputs = workload.make_inputs(np.random.default_rng(seed))
    samples: list[Sample] = []
    with Probe() as probe:
        samples.append(run_once(workload, inputs, probe)[0])  # warm-up
        deadline = perf_counter() + seconds
        timed: list[Sample] = []
        while not timed or perf_counter() < deadline:
            timed.append(run_once(workload, inputs, probe)[0])
        samples += timed
        if trace:
            metrics = per_layer(workload, inputs, probe, timed, samples)
            units = {m[0]: m[1] for m in PER_LAYER}
        else:
            metrics = end_to_end(timed)
            units = {m[0]: m[1] for m in END_TO_END}

    failed = sum(1 for s in samples if s.errors)
    print(f"workload {name}, seed {seed}: {len(samples)} runs attempted "
          f"(1 warm-up), {failed} failed, error_rate "
          f"{failed / len(samples):.4g}")
    print(f"check cycles == pinned {workload.pin}: "
          + ("ok" if all(s.cycles == workload.pin for s in samples)
             else "FAILED"))
    errors = sorted({e for s in samples for e in s.errors})
    print("check completion and outputs == reference: "
          + ("ok" if not errors else "FAILED"))
    for error in errors:
        print(f"  {error}")
    if workload.paper_rel_err is None:
        print("paper_rel_err: unvalidated (no anchor in harness/paperdata.py)")
    else:
        err, detail = workload.paper_rel_err(workload.pin)
        print(f"paper_rel_err = {abs(err):.4f}  ({err:+.1%}: {detail})")
    for key, (value, how) in metrics.items():
        print(f"{key} = {value:.6g} {units[key]}  ({how})")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {key: {"value": value, "unit": units[key]}
                    for key, (value, _) in metrics.items()},
    }))
    return 0


def write_spec() -> None:
    """Write BENCHMARK.json and layers.json from the definitions here."""
    import layers
    from workloads import WORKLOADS

    spec = {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why}
                      for w in WORKLOADS.values()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, u, b in PER_LAYER],
    }
    (ROOT / "BENCHMARK.json").write_text(json.dumps(spec, indent=2) + "\n")
    table = [{
        "name": layer.name,
        "modules": ([f"src/repro/{m}" for m in layer.modules]
                    + list(layer.also)),
        "metrics": [n for n, _, _ in PER_LAYER
                    if n.startswith(layer.name + ".")],
        "moves": layer.moves,
    } for layer in layers.LAYERS]
    (BENCH / "layers.json").write_text(json.dumps(table, indent=2) + "\n")


def _reap_children() -> None:
    """Stop and wait for every process this one started.

    Shard workers are joined by the simulator; the shared-memory rings
    of the process backend also start multiprocessing's resource
    tracker, which would otherwise outlive this process unreaped.
    """
    import multiprocessing

    for child in multiprocessing.active_children():
        child.terminate()
        child.join()
    tracker = sys.modules.get("multiprocessing.resource_tracker")
    if tracker is not None:
        tracker._resource_tracker._stop()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-spec", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        sys.exit(f"perfbench: no simulator sources at {SRC / 'repro'}")
    sys.path.insert(0, str(SRC))
    if args.write_spec:
        write_spec()
        return 0
    from workloads import WORKLOADS

    if args.workload == "all":
        # A fresh process per workload, so peak_rss_mb is its own.
        status = 0
        for name in WORKLOADS:
            status |= subprocess.run(
                [sys.executable, __file__, "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)]).returncode
        return status
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)} or all")
    try:
        return measure(args.workload, args.seed, args.seconds,
                       bool(args.trace))
    finally:
        _reap_children()


if __name__ == "__main__":
    sys.exit(main())
