"""Unit tests for the DRAM bank bandwidth model."""

import numpy as np
import pytest

from repro.apps.blas import gemv_kernel
from repro.core.errors import ConfigurationError, SimulationError
from repro.simulation import Engine, WaitCycles
from repro.simulation.memory import BoardMemory, MemoryBank, MemoryPort, stream


def test_single_reader_rate_limited_by_bank_width():
    eng = Engine()
    bank = MemoryBank(eng, "b0", width_elements=16)
    port = MemoryPort(bank, "r0")
    data = np.arange(1600, dtype=np.float32)
    out = {}

    def reader():
        chunk = yield from port.read(data, 0, 1600)
        out["chunk"] = chunk
        out["cycles"] = eng.cycle

    eng.spawn(reader, "r")
    eng.run()
    np.testing.assert_array_equal(out["chunk"], data)
    # 1600 elements at 16/cycle = 100 cycles.
    assert out["cycles"] == 100


def test_two_readers_share_bank_bandwidth():
    eng = Engine()
    bank = MemoryBank(eng, "b0", width_elements=16)
    data = np.arange(800, dtype=np.float32)
    ends = {}

    def reader(tag):
        port = MemoryPort(bank, tag)

        def proc():
            yield from port.read(data, 0, 800)
            ends[tag] = eng.cycle

        return proc

    eng.spawn(reader("a"), "a")
    eng.spawn(reader("b"), "b")
    eng.run()
    # Two streams of 800 elements over a 16/cycle bank: first come takes
    # the whole budget, so a finishes at 50 and b, starved until then,
    # at 100 — the bank stays saturated for the full 100 cycles.
    assert ends == {"a": 50, "b": 100}
    assert (bank.total_granted, bank.busy_cycles) == (1600, 100)


def test_two_banks_are_independent():
    eng = Engine()
    board = BoardMemory(eng, rank=0, num_banks=2, width_elements=16)
    data = np.arange(800, dtype=np.float32)
    ends = {}

    def reader(bank_idx, tag):
        port = board.port(bank_idx, tag)

        def proc():
            yield from port.read(data, 0, 800)
            ends[tag] = eng.cycle

        return proc

    eng.spawn(reader(0, "a"), "a")
    eng.spawn(reader(1, "b"), "b")
    eng.run()
    # No contention: both finish in 50 cycles.
    assert ends == {"a": 50, "b": 50}
    for bank in board.banks:
        assert (bank.total_granted, bank.busy_cycles) == (800, 50)


def test_write_stores_values_at_bandwidth():
    eng = Engine()
    bank = MemoryBank(eng, "b0", width_elements=8)
    port = MemoryPort(bank, "w0")
    dest = np.zeros(64, dtype=np.float32)
    values = np.arange(64, dtype=np.float32)
    cycles = {}

    def writer():
        yield from port.write(dest, 0, values)
        cycles["end"] = eng.cycle

    eng.spawn(writer, "w")
    eng.run()
    np.testing.assert_array_equal(dest, values)
    assert cycles["end"] == 8  # 64 / 8 per cycle


def test_read_returns_copy():
    eng = Engine()
    bank = MemoryBank(eng, "b0", width_elements=4)
    port = MemoryPort(bank, "r0")
    data = np.arange(8, dtype=np.int32)
    out = {}

    def reader():
        chunk = yield from port.read(data, 0, 8)
        out["chunk"] = chunk

    eng.spawn(reader, "r")
    eng.run()
    out["chunk"][0] = 999
    assert data[0] == 0


def test_out_of_bounds_access_rejected():
    eng = Engine()
    bank = MemoryBank(eng, "b0", width_elements=4)
    port = MemoryPort(bank, "r0")
    data = np.zeros(10)

    def bad_reader():
        yield from port.read(data, 5, 10)

    eng.spawn(bad_reader, "r")
    with pytest.raises(SimulationError, match="out of bounds"):
        eng.run()


def test_bank_utilization_metric():
    eng = Engine()
    bank = MemoryBank(eng, "b0", width_elements=10)
    port = MemoryPort(bank, "r0")
    data = np.zeros(50)

    def reader():
        yield from port.read(data, 0, 50)

    eng.spawn(reader, "r")
    eng.run()
    assert bank.total_granted == 50
    assert bank.utilization(eng.cycle) == pytest.approx(1.0)
    assert bank.utilization(0) == 0.0


def test_port_used_by_second_process_rejected():
    eng = Engine()
    port = MemoryPort(MemoryBank(eng, "b0", width_elements=4), "r0")
    data = np.zeros(8)

    def reader():
        yield from port.read(data, 0, 8)

    eng.spawn(reader, "first")
    eng.spawn(reader, "second")
    with pytest.raises(SimulationError, match="belongs to process 'first'"):
        eng.run()


def test_port_opened_after_bank_streamed_rejected():
    eng = Engine()
    bank = MemoryBank(eng, "b0", width_elements=4)
    port = MemoryPort(bank, "r0")

    def reader():
        yield from port.read(np.zeros(8), 0, 8)

    eng.spawn(reader, "r")
    eng.run()
    with pytest.raises(ConfigurationError, match="already streamed 8"):
        MemoryPort(bank, "late")


def test_port_listed_twice_shares_its_bank_per_cycle():
    eng = Engine()
    bank = MemoryBank(eng, "b0", width_elements=4)
    port = MemoryPort(bank, "r0")

    def reader():
        yield from stream([port, port], [6, 5])

    eng.spawn(reader, "r")
    eng.run()
    # 11 elements through one 4/cycle bank, however they are split.
    assert eng.cycle == 3
    assert (bank.total_granted, bank.busy_cycles, port.elements_read) == (11, 3, 11)


# ----------------------------------------------------------------------
# Closed-form streaming vs the per-cycle reference
# ----------------------------------------------------------------------
# A bank with one port of one process streams in closed form; opening an
# idle second port on every bank makes it shared, which forces the
# per-cycle grant loop. Both must agree on every cycle and counter.
def _bank_state(banks):
    return [(b.total_granted, b.busy_cycles, b._budget_cycle, b._budget)
            for b in banks]


def _run_gemv(rows, cols, banks, width, capacity, stalls, shared, seed):
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(rows, cols)).astype(np.float32)
    x = rng.normal(size=cols).astype(np.float32)
    eng = Engine()
    board = BoardMemory(eng, rank=0, num_banks=banks, width_elements=width)
    ports = [board.port(i, f"gemv{i}") for i in range(banks)]
    if shared:
        for i in range(banks):
            board.port(i, f"idle{i}")
    out = eng.fifo("y", capacity=capacity)
    popped = []

    def consumer():
        for stall in stalls:
            value = yield from out.pop()
            popped.append((value, eng.cycle))
            if stall:
                yield WaitCycles(stall)

    eng.spawn(gemv_kernel(ports, A, x, out, scale=0.5), "gemv", daemon=True)
    eng.spawn(consumer, "consumer")
    eng.run()
    np.testing.assert_allclose([v for v, _ in popped], 0.5 * (A @ x),
                               rtol=1e-4, atol=1e-4)
    return (eng.cycle, popped, _bank_state(board.banks),
            [p.elements_read for p in ports])


@pytest.mark.parametrize("seed", range(40))
def test_gemv_closed_form_matches_per_cycle_reference(seed):
    rng = np.random.default_rng(seed)
    rows = int(rng.integers(1, 13))
    case = dict(rows=rows, cols=int(rng.integers(1, 90)),
                banks=int(rng.integers(1, 5)), width=int(rng.integers(1, 20)),
                capacity=int(rng.integers(1, 4)),
                stalls=[int(s) for s in rng.integers(0, 3, size=rows)],
                seed=seed)
    bulk = _run_gemv(shared=False, **case)
    reference = _run_gemv(shared=True, **case)
    assert bulk == reference


def _run_read_write(size, width, pre_granted, shared):
    eng = Engine()
    bank = MemoryBank(eng, "b0", width_elements=width)
    port = MemoryPort(bank, "rw")
    if shared:
        MemoryPort(bank, "idle")
    src = np.arange(size, dtype=np.float32)
    dest = np.zeros(size, dtype=np.float32)
    ends = []

    def proc():
        bank.grant(pre_granted)  # part of this cycle's budget already gone
        chunk = yield from port.read(src, 0, size)
        ends.append(eng.cycle)
        yield from port.write(dest, 0, chunk + 1)
        ends.append(eng.cycle)

    eng.spawn(proc, "rw")
    eng.run()
    np.testing.assert_array_equal(dest, src + 1)
    return (ends, _bank_state([bank]), port.elements_read,
            port.elements_written)


@pytest.mark.parametrize("width", [1, 4, 7])
@pytest.mark.parametrize("size", ["zero", "below", "exact", "above", "many"])
@pytest.mark.parametrize("pre", ["none", "some", "all"])
def test_read_write_closed_form_matches_per_cycle_reference(width, size, pre):
    n = {"zero": 0, "below": width - 1, "exact": width, "above": width + 1,
         "many": 3 * width + 2}[size]
    pre_granted = {"none": 0, "some": width // 2, "all": width}[pre]
    bulk = _run_read_write(n, width, pre_granted, shared=False)
    assert bulk == _run_read_write(n, width, pre_granted, shared=True)
    assert bulk[2:] == (n, n)
