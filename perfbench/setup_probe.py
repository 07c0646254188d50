"""Time the program's set-up in a fresh interpreter.

Usage: python3 setup_probe.py SRC_DIR CLI_ARGS...

Set-up runs from importing ``signaltwin`` to the first simulation step of
the CLI command: the imports (numpy among them), config loading, network
build, demand resolution and the first ``Simulation`` construction.  The
first step stops the command.  The host's speed is probed just before and
just after (see host_speed.py); probes during set-up would wait on its
imports.  The last line printed holds the wall time and the reference
time, in seconds.
"""

import sys
from pathlib import Path
from time import perf_counter

from host_speed import HostSpeed

PROBES = 20  # timed just before and just after set-up


class _FirstStep(BaseException):
    """Raised at the first simulation step; the CLI does not catch it."""


def main() -> int:
    src, argv = Path(sys.argv[1]).resolve(), sys.argv[2:]
    sys.path.insert(0, str(src))
    host = HostSpeed()
    host.sample(PROBES)
    t0 = perf_counter()
    import signaltwin.cli as cli
    from signaltwin.traffic import Simulation

    if not Path(cli.__file__).resolve().is_relative_to(src):
        print(f"signaltwin was imported from {cli.__file__}, not {src}", file=sys.stderr)
        return 2

    def first_step(self):
        raise _FirstStep(perf_counter())

    Simulation.step = first_step
    try:
        code = cli.main(argv)
    except _FirstStep as stop:
        wall = stop.args[0] - t0
        host.sample(PROBES)
        print(repr(wall), repr(host.reference_s(wall)))
        return 0
    print(f"the command ended (exit {code}) before its first step", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
