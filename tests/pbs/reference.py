"""The readable reference PBS allocator that the indexed one is held to.

:class:`repro.pbs.scheduler.NodeIndex` is the placement the server
ships.  :func:`allocate_fifo` here re-sorts the whole node table on
every call, as TORQUE's nodes-file scan reads.  The property tests in
``tests/pbs/test_scheduler_index.py`` and the whole-experiment test in
``tests/experiments/test_index_equivalence.py`` hold the two equal.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.pbs.job import PbsJob
from repro.pbs.nodes import PbsNodeRecord


def allocate_fifo(
    job: PbsJob, nodes: Dict[str, PbsNodeRecord]
) -> Optional[List[Tuple[PbsNodeRecord, int]]]:
    """Try to place *job*: ``job.nodes`` distinct nodes × ``job.ppn`` cores.

    Returns ``[(node_record, ppn), ...]`` or ``None`` when the job does not
    fit.  Candidate nodes are scanned from the **highest** hostname down —
    TORQUE's nodes-file order, visible in Figure 8 where a 1-node job
    lands on ``node16``.
    """
    candidates = [
        record
        for _, record in sorted(nodes.items(), reverse=True)
        if record.online and record.available_cores >= job.ppn
    ]
    if len(candidates) < job.nodes:
        return None
    return [(record, job.ppn) for record in candidates[: job.nodes]]
