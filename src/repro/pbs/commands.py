"""The PBS command-line surface: what the paper's Perl tools invoke.

``PbsCommands`` renders the two listings the detector tooling reads
from one server, so that code reads like the original shell usage::

    pbs = PbsCommands(server)
    print(pbs.pbsnodes())        # Figure 7 text
    print(pbs.qstat_f())         # Figure 8 text
"""

from __future__ import annotations

from repro.pbs.formats import render_pbsnodes, render_qstat_full
from repro.pbs.server import PbsServer


class PbsCommands:
    """CLI-flavoured facade over a :class:`PbsServer`."""

    def __init__(self, server: PbsServer) -> None:
        self.server = server

    def qstat_f(self) -> str:
        """``qstat -f`` full listing (Figure 8)."""
        return render_qstat_full(self.server)

    def pbsnodes(self) -> str:
        """``pbsnodes`` full node listing (Figure 7)."""
        return render_pbsnodes(self.server)
