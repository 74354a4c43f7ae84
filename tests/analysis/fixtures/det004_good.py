"""DET004 negative fixture: concurrency modelled as simulator events."""

from repro.simkernel import Timeout


def daemon_loop(cycle_s):
    while True:
        yield Timeout(cycle_s)
