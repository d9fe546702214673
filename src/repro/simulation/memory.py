"""Off-chip DRAM bank model.

The applications of §5.4 are memory-bandwidth-bound. This module models an
FPGA board's DDR banks at the granularity the paper uses: a bank delivers a
fixed number of elements per kernel cycle to the modules reading from it
(e.g. "16 elements per cycle from a single DDR bank", §5.4.2), and
concurrent readers of the same bank share that budget — which is exactly why
the single-FPGA GESUMMV is bottlenecked when two GEMV kernels contend for the
same board's bandwidth (§5.4.1).

The model is deliberately simple (streaming access, per-cycle budget,
first-come arbitration) because the paper's kernels stream sequentially; no
row/bank conflicts are modelled.

All traffic goes through :func:`stream`. On a bank that one port of one
process owns (*exclusive*), nobody else can take from its budget, so the
per-cycle grant loop is worked out in closed form and the process sleeps
one ``WaitCycles`` per burst. A bank with several ports keeps the
per-cycle first-come loop, because which process asks first within a
cycle decides the result. Exclusivity is observed, not configured; two
rules keep it knowable before a burst commits: a port belongs to the
first process that streams through it, and a bank takes no new port once
it has granted elements.
"""

from __future__ import annotations

from typing import Generator

import numpy as np

from ..core.errors import ConfigurationError, SimulationError
from .conditions import TICK, WaitCycles


class MemoryBank:
    """One DDR bank with a per-cycle element budget shared by its ports."""

    __slots__ = ("engine", "name", "width_elements", "_budget_cycle", "_budget",
                 "total_granted", "busy_cycles", "num_ports")

    def __init__(self, engine, name: str, width_elements: int) -> None:
        if width_elements < 1:
            raise ConfigurationError("width_elements must be >= 1")
        self.engine = engine
        self.name = name
        self.width_elements = width_elements
        self._budget_cycle = -1
        self._budget = 0
        self.total_granted = 0
        self.busy_cycles = 0
        self.num_ports = 0

    def grant(self, requested: int) -> int:
        """Grant up to ``requested`` elements from this cycle's budget."""
        if requested < 0:
            raise SimulationError("negative memory request")
        cycle = self.engine.cycle
        if cycle != self._budget_cycle:
            self._budget_cycle = cycle
            self._budget = self.width_elements
            self.busy_cycles += 1
        granted = min(requested, self._budget)
        self._budget -= granted
        self.total_granted += granted
        return granted

    def commit(self, count: int) -> int:
        """Grant ``count`` elements over consecutive cycles from now.

        The closed form of calling :meth:`grant` once per cycle until
        ``count`` is met, valid only while no other requester shares the
        bank. Leaves every counter and the budget state exactly as that
        loop would; returns the number of cycles it spans.
        """
        cycle = self.engine.cycle
        width = self.width_elements
        if cycle == self._budget_cycle:
            first = self._budget
        else:
            first = width
            self.busy_cycles += 1
        extra = 0 if count <= first else -(-(count - first) // width)
        self._budget_cycle = cycle + extra
        self._budget = first + extra * width - count
        self.busy_cycles += extra
        self.total_granted += count
        return 1 + extra

    def utilization(self, cycles: int) -> float:
        """Fraction of peak bandwidth used over ``cycles`` cycles."""
        if cycles <= 0:
            return 0.0
        return self.total_granted / (cycles * self.width_elements)

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"MemoryBank({self.name}, {self.width_elements}/cycle)"


class MemoryPort:
    """A kernel-side streaming port into a :class:`MemoryBank`.

    ``read``/``write`` are generators that consume simulation cycles
    according to the bank's bandwidth (and contention from other ports).
    A port belongs to the first process that streams through it.
    """

    __slots__ = ("bank", "name", "elements_read", "elements_written", "owner")

    def __init__(self, bank: MemoryBank, name: str) -> None:
        if bank.total_granted:
            raise ConfigurationError(
                f"port {name!r}: bank {bank.name!r} has already streamed "
                f"{bank.total_granted} elements; open every port before "
                "the first access"
            )
        bank.num_ports += 1
        self.bank = bank
        self.name = name
        self.elements_read = 0
        self.elements_written = 0
        self.owner = None

    def read(self, array: np.ndarray, start: int, count: int) -> Generator:
        """Stream ``count`` elements from ``array[start:]``; returns a copy."""
        if start < 0 or start + count > len(array):
            raise SimulationError(
                f"port {self.name!r}: read [{start}, {start + count}) out of "
                f"bounds for array of length {len(array)}"
            )
        yield from stream([self], [count])
        return np.array(array[start : start + count], copy=True)

    def write(self, array: np.ndarray, start: int, values: np.ndarray) -> Generator:
        """Stream ``values`` into ``array[start:]`` at bank bandwidth."""
        count = len(values)
        if start < 0 or start + count > len(array):
            raise SimulationError(
                f"port {self.name!r}: write [{start}, {start + count}) out of "
                f"bounds for array of length {len(array)}"
            )
        yield from stream([self], [count], write=True)
        array[start : start + count] = values


def stream(ports: list[MemoryPort], counts: list[int],
           write: bool = False) -> Generator:
    """Move ``counts[p]`` elements through ``ports[p]``, all concurrently.

    Each cycle every port with elements left takes up to its bank's
    remaining budget; the stream ends one cycle after the last grant.
    When every bank involved is exclusive (one port, used by this
    process alone, and no other port of this call on it) the loop runs
    in closed form and the caller sleeps a single ``WaitCycles``.
    """
    if not ports:
        return
    proc = ports[0].bank.engine._current_proc
    for port, count in zip(ports, counts):
        if count < 0:
            raise SimulationError(f"port {port.name!r}: negative memory request")
        if port.owner is not proc:
            if port.owner is not None:
                raise SimulationError(
                    f"port {port.name!r} belongs to process "
                    f"{port.owner.name!r}; {getattr(proc, 'name', None)!r} "
                    "cannot stream through it"
                )
            port.owner = proc
    for port, count in zip(ports, counts):
        if write:
            port.elements_written += count
        else:
            port.elements_read += count
    banks = [port.bank for port in ports]
    if all(bank.num_ports == 1 for bank in banks) and \
            len(set(banks)) == len(banks):
        cycles = max((bank.commit(count)
                      for bank, count in zip(banks, counts) if count),
                     default=0)
        if cycles:
            yield WaitCycles(cycles)
        return
    remaining = list(counts)
    while any(remaining):
        for p, bank in enumerate(banks):
            if remaining[p]:
                remaining[p] -= bank.grant(remaining[p])
        yield TICK


class BoardMemory:
    """All DDR banks of one FPGA board."""

    def __init__(self, engine, rank: int, num_banks: int, width_elements: int) -> None:
        self.rank = rank
        self.banks = [
            MemoryBank(engine, f"rank{rank}.ddr{i}", width_elements)
            for i in range(num_banks)
        ]

    def port(self, bank_index: int, name: str) -> MemoryPort:
        """Open a named streaming port on one bank."""
        return MemoryPort(self.banks[bank_index], name)

    @property
    def total_width_elements(self) -> int:
        """Aggregate elements/cycle across all banks."""
        return sum(b.width_elements for b in self.banks)
