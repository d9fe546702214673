"""Derive each workload's pinned cycle counts from the reference plane.

The benchmark fails any run whose simulated cycles differ from
``Workload.pin``. This check re-derives those counts the slow way: from
the per-flit data plane (``burst_mode=False``) for the sequential
workloads, and from the sequential backend for ``sharded_stream``. The
outputs of the reference run are checked too. Run it after any change
to the simulator's timing model, from the repository root::

    python3 perfbench/check_pins.py [workload ...]

or under pytest (``python -m pytest perfbench/check_pins.py``; the file
name keeps it out of the default test collection). It takes about a
minute.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from probe import Probe  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def reference_errors(name: str, seed: int = 0) -> list[str]:
    """Failed checks of one reference-plane run of workload ``name``."""
    workload = WORKLOADS[name]
    inputs = workload.make_inputs(np.random.default_rng(seed))
    with Probe() as probe:
        outputs = workload.run(inputs, workload.reference_config)
        cycles = tuple(res.cycles for res in probe.results)
    errors = workload.check(inputs, outputs)
    if cycles != workload.pin:
        errors.append(f"{name}: reference plane ran {cycles} cycles, "
                      f"pinned {workload.pin}")
    return errors


def test_pins_match_reference_plane():
    for name in WORKLOADS:
        assert reference_errors(name) == []


def main(names) -> int:
    status = 0
    for name in names or WORKLOADS:
        errors = reference_errors(name)
        print(f"{name}: pin {WORKLOADS[name].pin} "
              + ("ok" if not errors else "FAILED"))
        for error in errors:
            print(f"  {error}")
        status |= bool(errors)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
