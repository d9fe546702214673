"""The simulator's layers, and how a traced run is attributed to them.

A layer is a set of modules under ``src/repro``. The traced run profiles
one simulation with the standard-library ``cProfile`` and sums each
function's self time into the layer that owns its file. NumPy and this
benchmark's kernels belong to ``app``; builtins and every module not
listed belong to ``interp``, so the shares of all layers sum to 1.
``cProfile`` adds a cost per Python call, which inflates call-heavy
layers: use the shares to rank layers, and the untraced end-to-end
metrics to measure them.

``moves`` records, before any change is measured, which end-to-end
metric each layer's metrics should move and on which workload; the
shares quoted there were measured with ``cProfile`` on a 2-core
machine.
"""

from __future__ import annotations

import pstats
from dataclasses import dataclass
from pathlib import Path

import repro

PACKAGE_DIR = Path(repro.__file__).resolve().parent
BENCH_DIR = Path(__file__).resolve().parent


@dataclass(frozen=True)
class Layer:
    name: str
    modules: tuple[str, ...]   # under src/repro; directories end in "/"
    moves: str
    also: tuple[str, ...] = ()  # owners outside the package, for layers.json


LAYERS = (
    Layer("engine", ("simulation/engine.py", "simulation/conditions.py"),
          "wall_s on collectives (32% share); no change on stream_p2p "
          "(4%)"),
    Layer("fifo", ("simulation/fifo.py",),
          "wall_s on stream_p2p and collectives (22-26%)"),
    Layer("arbiter", ("transport/arbiter.py", "transport/ck.py"),
          "wall_s on collectives (11%); no change on stream_p2p (1%)"),
    Layer("planner", ("transport/planner.py",),
          "wall_s and sim_cycles_per_s on stream_p2p (49%); no change on "
          "collectives (1%, the bypass)"),
    Layer("channel", ("core/channel.py", "core/credited.py",
                      "core/context.py", "transport/packing.py"),
          "wall_s on gesummv"),
    Layer("link", ("network/link.py", "network/fabric.py",
                   "network/packet.py"),
          "about 1% everywhere; tracked so that it stays small"),
    Layer("collectives", ("transport/collectives.py",
                          "transport/tree_collectives.py",
                          "core/coll_channels.py"),
          "wall_s on collectives (11%); idle elsewhere"),
    Layer("memory", ("simulation/memory.py", "apps/blas.py"),
          "wall_s on gesummv (32%); idle elsewhere"),
    Layer("setup", ("core/program.py", "transport/builder.py",
                    "network/routing.py", "network/topology.py",
                    "codegen/"),
          "setup_s on every workload"),
    Layer("shard", ("shard/",),
          "wall_s on sharded_stream only"),
    Layer("app", ("apps/gesummv.py",),
          "wall_s on gesummv (NumPy and kernel code)",
          also=("perfbench/workloads.py", "numpy")),
    Layer("interp", (), "the rest of the host time",
          also=("builtins", "every module not listed above")),
)

INTERP = "interp"
LAYER_NAMES = tuple(layer.name for layer in LAYERS)


def _owner_table() -> list[tuple[str, str]]:
    table = []
    for layer in LAYERS:
        for module in layer.modules:
            # Path() drops a directory's trailing "/"; matching needs it.
            path = str(PACKAGE_DIR / module)
            if module.endswith("/"):
                path += "/"
            table.append((path, layer.name))
    table.append((str(BENCH_DIR / "workloads.py"), "app"))
    return table


_OWNERS = _owner_table()


def layer_of(filename: str, funcname: str) -> str:
    """The layer that owns a profiled function."""
    if filename == "~":  # a builtin: attribute NumPy's to the app
        return "app" if "numpy" in funcname else INTERP
    if "/numpy/" in filename:
        return "app"
    for path, name in _OWNERS:
        if filename == path or (path.endswith("/")
                                and filename.startswith(path)):
            return name
    return INTERP


@dataclass
class LayerProfile:
    """Self time per layer and the profiled call counts the counters use."""

    self_s: dict[str, float]
    total_s: float
    engine_steps: int
    channel_opens: int

    def share(self, layer: str) -> float:
        return self.self_s[layer] / self.total_s if self.total_s else 0.0


def attribute(profiler) -> LayerProfile:
    """Group a finished ``cProfile.Profile``'s self time by layer."""
    stats = pstats.Stats(profiler).stats
    self_s = dict.fromkeys(LAYER_NAMES, 0.0)
    steps = opens = 0
    engine_file = str(PACKAGE_DIR / "simulation/engine.py")
    context_file = str(PACKAGE_DIR / "core/context.py")
    for (filename, _, func), (_, calls, tottime, _, _) in stats.items():
        self_s[layer_of(filename, func)] += tottime
        if filename == engine_file and func == "_step":
            steps += calls
        elif (filename == context_file and func.startswith("open_")
              and func.endswith("_channel")):
            opens += calls
    return LayerProfile(self_s, sum(self_s.values()), steps, opens)
