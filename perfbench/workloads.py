"""The benchmark's four workloads, built on the simulator's public API.

Each workload turns a seeded random generator into inputs (and the
reference outputs they must produce), runs one simulation of them, and
checks the outputs. The simulated cycle counts are pinned in ``pin``:
they are a property of the program, not of the inputs' values, and
``check_pins.py`` re-derives them from the per-flit data plane (or the
sequential backend, for the sharded workload).

All workloads use the default data plane (burst planner on,
macro-cruise off). Each is a closed loop with one client: one
simulation at a time from one process; only ``sharded_stream`` forks,
into two shard workers.

The Fig. 15 halo stencil is not a workload. On a shared 2-core host
the speed of the machine drifts, and a longer run averages more of
that drift; the time allowed for all runs fits four workloads
of 30 s, and these four are the fewest that measure every layer. The
stencil exercises no layer that they do not.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.apps import gesummv
from repro.codegen.metadata import OpDecl
from repro.core.config import NOCTUA, NOCTUA_DEEP, HardwareConfig
from repro.core.datatypes import SMI_FLOAT
from repro.core.ops import SMI_ADD
from repro.core.program import SMIProgram
from repro.harness import paperdata
from repro.network.topology import bus, noctua_bus

#: Generous cycle cap: a deadlocked or runaway plane fails the run
#: instead of hanging the benchmark.
MAX_CYCLES = 50_000_000

STREAM_ELEMENTS = 1 << 17
STREAM_HOPS = 4
COLL_ELEMENTS = 4096
COLL_RANKS = 4
GESUMMV_N = 2048
SHARD_RANKS = 16
SHARD_ELEMENTS = 1 << 14


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``make_inputs(rng)`` returns a dict of inputs plus the references the
    outputs are checked against; ``run(inputs, config)`` simulates once
    and returns the outputs; ``check(inputs, outputs)`` returns a list of
    failed-check messages (empty when correct). ``pin`` holds the
    simulated cycles of each ``SMIProgram.run`` the workload makes, in
    call order. ``paper_rel_err(cycles)`` is the relative error of the
    simulated result against the paper's anchor, or ``None`` when the
    repository holds no anchor for the workload.
    """

    name: str
    why: str
    config: HardwareConfig
    reference_config: HardwareConfig
    pin: tuple[int, ...]
    make_inputs: Callable[[np.random.Generator], dict]
    run: Callable[[dict, HardwareConfig], dict]
    check: Callable[[dict, dict], list[str]]
    paper_rel_err: Callable[[tuple[int, ...]], tuple[float, str]] | None = None


def _mismatch(label: str, ok: bool) -> list[str]:
    return [] if ok else [f"{label} differs from the reference"]


# ----------------------------------------------------------------------
# stream_p2p — Fig. 9 bandwidth stream
# ----------------------------------------------------------------------
def _stream_inputs(rng):
    return {"data": rng.standard_normal(STREAM_ELEMENTS).astype(np.float32)}


def _stream_run(inputs, config):
    data = inputs["data"]
    n = len(data)
    prog = SMIProgram(noctua_bus(), config=config)

    def snd(smi):
        ch = smi.open_send_channel(n, SMI_FLOAT, STREAM_HOPS, 0)
        yield from ch.push_vec(data, width=8)

    def rcv(smi):
        ch = smi.open_recv_channel(n, SMI_FLOAT, 0, 0)
        smi.store("out", (yield from ch.pop_vec(n, width=8)))

    prog.add_kernel(snd, rank=0,
                    ops=[OpDecl("send", 0, SMI_FLOAT, peer=STREAM_HOPS)])
    prog.add_kernel(rcv, rank=STREAM_HOPS,
                    ops=[OpDecl("recv", 0, SMI_FLOAT, peer=0)])
    res = prog.run(max_cycles=MAX_CYCLES)
    return {"out": res.store(STREAM_HOPS, "out")}


def _stream_check(inputs, outputs):
    return _mismatch("received stream",
                     np.array_equal(outputs["out"], inputs["data"]))


def _stream_paper(cycles):
    secs = NOCTUA.cycles_to_seconds(cycles[0])
    gbits = STREAM_ELEMENTS * SMI_FLOAT.size * 8 / secs / 1e9
    anchor = paperdata.FIG9_SMI_PLATEAU_GBITS
    return (gbits - anchor) / anchor, (
        f"{gbits:.2f} Gbit/s simulated vs FIG9_SMI_PLATEAU_GBITS "
        f"{anchor:.2f} (approximate curve read)")


# ----------------------------------------------------------------------
# collectives — Fig. 10 broadcast then Fig. 11 reduce
# ----------------------------------------------------------------------
def _coll_inputs(rng):
    # Integer-valued floats: every partial sum is exact in float32, so
    # the reduction's result does not depend on its summation order.
    contrib = rng.integers(-1024, 1024, size=(COLL_RANKS, COLL_ELEMENTS))
    contrib = contrib.astype(np.float32)
    return {
        "bcast": rng.standard_normal(COLL_ELEMENTS).astype(np.float32),
        "contrib": contrib,
        "sum": contrib.sum(axis=0, dtype=np.float64),
    }


def _bcast_run(values, config):
    n = len(values)
    prog = SMIProgram(noctua_bus(), config=config)
    members = list(range(COLL_RANKS))

    def kernel(smi):
        comm = smi.comm_world.sub(members)
        if not comm.contains(smi.rank):
            return
            yield  # pragma: no cover
        chan = smi.open_bcast_channel(n, SMI_FLOAT, 0, 0, comm)
        got = np.empty(n, dtype=np.float32)
        for i in range(n):
            got[i] = yield from chan.bcast(
                values[i] if smi.rank == 0 else None)
        smi.store("got", got)

    prog.add_kernel(kernel, ranks="all", ops=[OpDecl("bcast", 0, SMI_FLOAT)])
    res = prog.run(max_cycles=MAX_CYCLES)
    return [res.store(r, "got") for r in members]


def _reduce_run(contrib, config):
    n = contrib.shape[1]
    prog = SMIProgram(noctua_bus(), config=config)
    members = list(range(COLL_RANKS))

    def kernel(smi):
        comm = smi.comm_world.sub(members)
        if not comm.contains(smi.rank):
            return
            yield  # pragma: no cover
        chan = smi.open_reduce_channel(n, SMI_FLOAT, SMI_ADD, 0, 0, comm)
        mine = contrib[smi.rank]
        got = np.empty(n, dtype=np.float64)
        for i in range(n):
            got[i] = yield from chan.reduce(mine[i])
        if smi.rank == 0:
            smi.store("sum", got)

    prog.add_kernel(kernel, ranks="all",
                    ops=[OpDecl("reduce", 0, SMI_FLOAT, reduce_op=SMI_ADD)])
    res = prog.run(max_cycles=MAX_CYCLES)
    return res.store(0, "sum")


def _coll_run(inputs, config):
    return {"bcast": _bcast_run(inputs["bcast"], config),
            "sum": _reduce_run(inputs["contrib"], config)}


def _coll_check(inputs, outputs):
    errors = []
    for rank, got in enumerate(outputs["bcast"]):
        errors += _mismatch(f"bcast at rank {rank}",
                            np.array_equal(got, inputs["bcast"]))
    errors += _mismatch("reduce sum at the root",
                        np.array_equal(outputs["sum"], inputs["sum"]))
    return errors


# ----------------------------------------------------------------------
# gesummv — Fig. 13 distributed GESUMMV (the DRAM model)
# ----------------------------------------------------------------------
def _gesummv_inputs(rng):
    n = GESUMMV_N
    alpha, beta = rng.uniform(0.5, 2.0, size=2)
    A = rng.random((n, n), dtype=np.float32)
    B = rng.random((n, n), dtype=np.float32)
    x = rng.random(n, dtype=np.float32)
    return {"alpha": float(alpha), "beta": float(beta), "A": A, "B": B,
            "x": x, "reference": gesummv.reference(alpha, beta, A, B, x)}


def _gesummv_run(inputs, config):
    y, _us = gesummv.run_distributed_sim(
        inputs["alpha"], inputs["beta"], inputs["A"], inputs["B"],
        inputs["x"], config=config)
    return {"y": y}


def _gesummv_check(inputs, outputs):
    ok = np.allclose(outputs["y"], inputs["reference"], rtol=1e-4, atol=0.0)
    return _mismatch("y (vs gesummv.reference)", ok)


def _gesummv_paper(cycles):
    ms = NOCTUA.cycles_to_us(cycles[0]) / 1e3
    anchor = paperdata.FIG13_SQUARE_TIMES_MS[GESUMMV_N]
    return (ms - anchor) / anchor, (
        f"{ms:.4f} ms simulated vs FIG13_SQUARE_TIMES_MS[{GESUMMV_N}] "
        f"{anchor} ms")


# ----------------------------------------------------------------------
# sharded_stream — 16-rank uniform-load stream on the process backend
# ----------------------------------------------------------------------
def _uniform_inputs(rng):
    data = rng.standard_normal((SHARD_RANKS - 1, SHARD_ELEMENTS))
    return {"data": data.astype(np.float32)}


def _uniform_run(inputs, config):
    data = inputs["data"]
    n = data.shape[1]
    prog = SMIProgram(bus(SHARD_RANKS), config=config)

    # Concurrent sender and receiver kernels per rank, all rightward:
    # every shard of a contiguous cut stays busy for the whole run.
    def sender(smi):
        snd = smi.open_send_channel(n, SMI_FLOAT, smi.rank + 1, 0)
        yield from snd.push_vec(data[smi.rank], width=8)

    def receiver(smi):
        rcv = smi.open_recv_channel(n, SMI_FLOAT, smi.rank - 1, 0)
        smi.store("out", (yield from rcv.pop_vec(n, width=8)))

    for rank in range(SHARD_RANKS):
        if rank < SHARD_RANKS - 1:
            prog.add_kernel(sender, rank=rank, name="stream_tx",
                            ops=[OpDecl("send", 0, SMI_FLOAT, peer=rank + 1)])
        if rank > 0:
            prog.add_kernel(receiver, rank=rank, name="stream_rx",
                            ops=[OpDecl("recv", 0, SMI_FLOAT, peer=rank - 1)])
    res = prog.run(max_cycles=MAX_CYCLES)
    return {"out": [res.store(r, "out") for r in range(1, SHARD_RANKS)]}


def _uniform_check(inputs, outputs):
    errors = []
    for rank, got in enumerate(outputs["out"], start=1):
        errors += _mismatch(f"stream into rank {rank}",
                            np.array_equal(got, inputs["data"][rank - 1]))
    return errors


_SHARDED = NOCTUA_DEEP.with_(backend="process", shards=2)

WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload(
        "stream_p2p",
        "Fig. 9 stream, 128 Ki floats over 4 hops: the burst planner does "
        "half the work; collectives, memory and shard stay idle",
        NOCTUA, NOCTUA.with_(burst_mode=False), (38369,),
        _stream_inputs, _stream_run, _stream_check, _stream_paper),
    Workload(
        "collectives",
        "Fig. 10 bcast then Fig. 11 reduce, 4096 floats on 4 bus ranks: "
        "engine, FIFOs, arbiter and collective kernels; the planner misses",
        NOCTUA, NOCTUA.with_(burst_mode=False), (6144, 42824),
        _coll_inputs, _coll_run, _coll_check),
    Workload(
        "gesummv",
        "Fig. 13 distributed GESUMMV, n=2048 on 2 FPGAs: the only workload "
        "on the DRAM model, with scalar per-element pushes",
        NOCTUA, NOCTUA.with_(burst_mode=False), (67839,),
        _gesummv_inputs, _gesummv_run, _gesummv_check, _gesummv_paper),
    Workload(
        "sharded_stream",
        "16-rank uniform stream, 16 Ki floats per link, deep buffers, "
        "process backend at 2 shards: the only workload on shard/",
        _SHARDED, NOCTUA_DEEP, (4931,),
        _uniform_inputs, _uniform_run, _uniform_check),
)}
