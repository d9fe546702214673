"""Benchmark-side instrumentation: setup timers and result capture.

Nothing under ``src/`` knows about the benchmark. ``Probe`` wraps, from
this file, the calls that make up a simulation's set-up — route
computation, ``SMIProgram.build_plan``, transport construction and, on
the sharded backend, the fabric partition and the fork of each shard
worker — and captures every ``ProgramResult`` that ``SMIProgram.run``
returns, including those the application runners keep to themselves.
The wrappers cost two clock reads per set-up call, so the untraced runs
keep them on.
"""

from __future__ import annotations

import functools
from time import perf_counter

from repro.core import program
from repro.shard import backend

#: Set-up phases, in the order a run meets them.
SETUP_PHASES = ("routes", "plan", "transport", "partition", "fork")


class Probe:
    """Installs the wrappers on entry and restores the originals on exit.

    ``setup`` accumulates host seconds per phase and ``results`` the
    captured results, both since the last :meth:`reset`.
    """

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        self.setup = dict.fromkeys(SETUP_PHASES, 0.0)
        self.results: list = []

    def _timed(self, owner, name: str, phase: str) -> None:
        fn = getattr(owner, name)
        self._saved.append((owner, name, fn))

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.setup[phase] += perf_counter() - start

        setattr(owner, name, timed)

    def __enter__(self) -> "Probe":
        # Both modules bind the set-up functions by name at import, so
        # each binding is wrapped where it is looked up.
        for owner in (program, backend):
            self._timed(owner, "compute_routes", "routes")
            self._timed(owner, "build_transport", "transport")
        self._timed(program.SMIProgram, "build_plan", "plan")
        self._timed(backend, "resolve_partition", "partition")
        # Constructing a ProcessHandle forks the shard's worker.
        self._timed(backend, "ProcessHandle", "fork")

        run = program.SMIProgram.run
        self._saved.append((program.SMIProgram, "run", run))

        @functools.wraps(run)
        def capture(prog, *args, **kwargs):
            result = run(prog, *args, **kwargs)
            self.results.append(result)
            return result

        program.SMIProgram.run = capture
        return self

    def __exit__(self, *exc) -> None:
        for owner, name, fn in reversed(self._saved):
            setattr(owner, name, fn)
        self._saved.clear()
