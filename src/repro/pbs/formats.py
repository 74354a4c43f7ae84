"""Text renderings of ``pbsnodes`` and ``qstat -f`` (Figures 7–8).

These strings are *interfaces*, not decoration: the paper's dualboot-oscar
detector parses them ("Several Perl programs had been written for parsing
the output of PBS commands", §III.B.3), and
:func:`repro.core.detector.qstat_report` reproduces that parse, so the
field layout follows the paper's listings.

Simulated time is mapped onto a fixed calendar epoch (the paper's logs are
from April 2010) so that ``qtime`` strings look like TORQUE's.
"""

from __future__ import annotations

import datetime

from repro.pbs.job import PbsJob
from repro.pbs.nodes import PbsNodeRecord
from repro.pbs.server import PbsServer

#: Simulation t=0 in calendar terms — Fri Apr 16 17:55:40 2010 appears in
#: Figure 8; we start the clock that morning.
EPOCH = datetime.datetime(2010, 4, 16, 8, 0, 0)

#: Unix timestamp of the epoch (rectime in pbsnodes is a unix time).
EPOCH_UNIX = 1271404800


# Fixed C-locale name tables: strftime's %a/%b expand through LC_TIME,
# so an embedding process calling locale.setlocale would change qtime
# strings and break byte-identical exports (reprolint DET005).
_DAY_ABBR = ("Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun")
_MONTH_ABBR = ("Jan", "Feb", "Mar", "Apr", "May", "Jun",
               "Jul", "Aug", "Sep", "Oct", "Nov", "Dec")


def render_time(sim_seconds: float) -> str:
    """``qtime``-style timestamp: ``Fri Apr 16 17:55:40 2010``."""
    stamp = EPOCH + datetime.timedelta(seconds=sim_seconds)
    return (
        f"{_DAY_ABBR[stamp.weekday()]} {_MONTH_ABBR[stamp.month - 1]} "
        f"{stamp.day:02d} {stamp.hour:02d}:{stamp.minute:02d}:"
        f"{stamp.second:02d} {stamp.year}"
    )


def render_unix_time(sim_seconds: float) -> int:
    return EPOCH_UNIX + int(sim_seconds)


def render_pbsnodes_entry(record: PbsNodeRecord, now: float) -> str:
    """One node's stanza in ``pbsnodes`` output (Figure 7)."""
    lines = [record.hostname]
    state = record.pbs_state.value
    lines.append(f"     state = {state}")
    lines.append(f"     np = {record.cores}")
    lines.append(f"     properties = {','.join(record.properties)}")
    lines.append("     ntype = cluster")
    if record.core_jobs:
        jobs = ", ".join(
            f"{core}/{jobid}" for core, jobid in sorted(record.core_jobs.items())
        )
        lines.append(f"     jobs = {jobs}")
    if record.online:
        idle = int(now - record.last_state_change)
        status = (
            f"opsys=linux,uname=Linux {record.hostname} {record.kernel} "
            f"#1 SMP x86_64,sessions=? 0,nsessions=? 0,nusers=0,"
            f"idletime={idle},totmem={record.totmem_kb}kb,"
            f"availmem={record.totmem_kb - 55844}kb,"
            f"physmem={record.physmem_kb}kb,ncpus={record.cores},loadave=0.00,"
            f"netload=154924801596,state={state},"
            f"jobs={'? 0' if not record.core_jobs else ','.join(sorted(set(record.core_jobs.values())))},"
            f"rectime={render_unix_time(now)}"
        )
        lines.append(f"     status = {status}")
    return "\n".join(lines)


def render_pbsnodes(server: PbsServer) -> str:
    """Full ``pbsnodes`` output: every node, stanzas separated by blanks."""
    entries = [
        render_pbsnodes_entry(record, server.sim.now)
        for _, record in sorted(server.nodes.items())
    ]
    return "\n\n".join(entries) + "\n"


def render_qstat_full_entry(job: PbsJob, server_name: str) -> str:
    """One job's stanza in ``qstat -f`` output (Figure 8)."""
    lines = [f"Job Id: {job.job_id}"]

    def attr(name: str, value: str) -> None:
        lines.append(f"    {name} = {value}")

    attr("Job_Name", job.name)
    attr("Job_Owner", job.owner)
    attr("job_state", job.state.value)
    attr("queue", job.queue)
    attr("server", server_name)
    if job.join_oe:
        attr("Join_Path", "oe")
    if job.output_path:
        attr("Output_Path", f"{server_name}:{job.output_path}")
    if job.exec_slots:
        attr("exec_host", job.exec_host_string())
    attr("Priority", str(job.priority))
    attr("qtime", render_time(job.submitted_at))
    attr("Rerunable", "True" if job.rerunnable else "False")
    attr("Resource_List.nodes", f"{job.nodes}:ppn={job.ppn}")
    if job.walltime_s is not None:
        total = int(job.walltime_s)
        attr(
            "Resource_List.walltime",
            f"{total // 3600:02d}:{(total % 3600) // 60:02d}:{total % 60:02d}",
        )
    if job.start_time is not None:
        attr("start_time", render_time(job.start_time))
    if job.exit_status is not None:
        attr("exit_status", str(job.exit_status))
    owner_user = job.owner.split("@")[0]
    variables = [
        f"PBS_O_HOME=/home/{owner_user}",
        "PBS_O_LANG=en_US.UTF-8",
        "PBS_O_PATH=/usr/kerberos/bin:/usr/local/bin:/usr/bin:/bin:/usr/X11R6/bin",
    ] + [f"{k}={v}" for k, v in sorted(job.variables.items())]
    attr("Variable_List", ",".join(variables))
    return "\n".join(lines)


def render_qstat_full(server: PbsServer) -> str:
    """Full ``qstat -f`` output: the active jobs, by jobid."""
    # O(active): the jobs dict keeps every job ever submitted, and
    # scanning it each detector cycle dominated large runs.
    jobs = server.active_jobs_by_seq()
    return "\n\n".join(
        render_qstat_full_entry(job, server.server_name) for job in jobs
    ) + ("\n" if jobs else "")
