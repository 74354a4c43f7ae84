"""The PBS command-line surface: what the paper's Perl tools invoke.

``PbsCommands`` bundles the user-facing commands against one server so
that detector code (and the examples) reads like the original shell
usage::

    pbs = PbsCommands(server)
    pbs.qsub(script_text)        # -> "1185.eridani.qgg.hud.ac.uk"
    print(pbs.pbsnodes())        # Figure 7 text
    print(pbs.qstat_f())         # Figure 8 text
"""

from __future__ import annotations

from typing import Optional

from repro.pbs.formats import render_pbsnodes, render_qstat_brief, render_qstat_full
from repro.pbs.script import JobSpec
from repro.pbs.server import PbsServer


class PbsCommands:
    """CLI-flavoured facade over a :class:`PbsServer`."""

    def __init__(self, server: PbsServer, default_user: str = "sliang") -> None:
        self.server = server
        self.default_user = default_user

    def qsub(self, script_or_spec, user: Optional[str] = None) -> str:
        """Submit a script (text) or a :class:`JobSpec`; returns the jobid."""
        return self.server.qsub(script_or_spec, owner=user or self.default_user)

    def qdel(self, jobid: str) -> None:
        self.server.qdel(jobid)

    def qhold(self, jobid: str) -> None:
        self.server.qhold(jobid)

    def qrls(self, jobid: str) -> None:
        self.server.qrls(jobid)

    def qstat(self) -> str:
        """Plain ``qstat`` table."""
        return render_qstat_brief(self.server)

    def qstat_f(self, include_completed: bool = False) -> str:
        """``qstat -f`` full listing (Figure 8)."""
        return render_qstat_full(self.server, include_completed=include_completed)

    def pbsnodes(self) -> str:
        """``pbsnodes`` full node listing (Figure 7)."""
        return render_pbsnodes(self.server)
