"""A tiny batch-script interpreter.

The paper's OS-switch actions are *scripts* — the Figure-4 PBS bash job,
and the Windows/Linux batch scripts that replace Carter's universal Perl
script (§III.B.1).  To keep artefact fidelity, the middleware generates
real script text and this interpreter executes it, supporting exactly the
command repertoire those scripts use:

====================  =====================================================
``echo T >> F``       append a line (job logging)
``echo T > F``        overwrite a file
``sleep N``           suspend N seconds (the Figure-4 ``sleep 10``)
``sudo CMD``          privilege no-op (stripped, CMD executed)
``reboot``            request a node reboot (delivered via OS context)
``shutdown /r /t 0``  Windows flavour of the same
``ren A B``           Windows rename (B is a name in A's directory)
``mv A B``            POSIX rename
``/path/prog ARGS``   run a registered binary (e.g. ``bootcontrol.pl``)
====================  =====================================================

Scripts run as simulation processes: spawn ``run_script(...)``, or drive
it with ``yield from`` inside another process; it returns a
:class:`ShellResult` (the spawned process keeps it as its ``result``).
Failures stop the script
and set a non-zero exit code — they do not raise, because a batch system
reports failure through the exit status.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.errors import ReproError, StorageError
from repro.oslayer.base import OSInstance
from repro.simkernel import Timeout


class ScriptError(ReproError):
    """Structural misuse of the interpreter (not a script-level failure)."""


@dataclass
class ShellResult:
    """Exit status and captured output of a script run."""

    exit_code: int = 0
    output: List[str] = field(default_factory=list)
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.exit_code == 0


_VAR_RE = re.compile(r"\\?\$(\w+)")


def expand_variables(text: str, env: Dict[str, str]) -> str:
    """Expand ``$VAR`` / ``\\$VAR`` using *env* (missing vars → empty).

    The Figure-4 script writes ``\\$PBS_JOBID`` (escaped in the paper's
    listing); both spellings expand.
    """
    return _VAR_RE.sub(lambda m: env.get(m.group(1), ""), text)


def _strip_inline_comment(line: str) -> str:
    """Drop a trailing `` # ...`` comment (Figure 4 annotates most lines)."""
    idx = line.find(" #")
    return line[:idx].rstrip() if idx >= 0 else line


def _is_comment(line: str) -> bool:
    lower = line.lower()
    return (
        line.startswith("#")
        or line.startswith("::")
        or lower.startswith("rem ")
        or lower == "rem"
        or lower == "@echo off"
    )


def run_script(
    os_instance: OSInstance,
    text: str,
    env: Optional[Dict[str, str]] = None,
):
    """Generator process executing *text* on *os_instance*.

    Yields a :class:`~repro.simkernel.Timeout` per ``sleep``; returns a
    :class:`ShellResult`.
    """
    env = dict(env or {})
    result = ShellResult()
    for raw in text.splitlines():
        line = raw.strip()
        if not line or _is_comment(line):
            continue
        line = _strip_inline_comment(expand_variables(line, env))
        try:
            waited = yield from _execute_line(os_instance, line, result)
        except StorageError as exc:
            result.exit_code = 1
            result.error = f"{line!r}: {exc}"
            return result
        except ScriptError as exc:
            result.exit_code = 127
            result.error = str(exc)
            return result
        del waited
    return result


def _execute_line(os_instance: OSInstance, line: str, result: ShellResult):
    tokens = line.split()
    verb = tokens[0].lower()

    if verb == "sudo":
        yield from _execute_line(os_instance, line[len(tokens[0]):].strip(), result)
        return

    if verb == "echo":
        _do_echo(os_instance, line, result)
        return

    if verb == "sleep":
        if len(tokens) != 2:
            raise ScriptError(f"sleep: bad arguments in {line!r}")
        try:
            delay = float(tokens[1])
        except ValueError:
            raise ScriptError(f"sleep: non-numeric delay in {line!r}") from None
        yield Timeout(delay)
        return

    if verb == "reboot" or (verb == "shutdown" and "/r" in tokens):
        node = os_instance.context.get("node")
        if node is None:
            raise ScriptError(
                f"{os_instance.hostname}: reboot requested but no power "
                "control wired into this OS instance"
            )
        node.request_reboot()
        result.output.append("reboot requested")
        return

    if verb == "ren":
        if len(tokens) != 3:
            raise ScriptError(f"ren: bad arguments in {line!r}")
        src = tokens[1]
        directory = src.replace("\\", "/").rsplit("/", 1)[0]
        os_instance.rename(src, f"{directory}/{tokens[2]}")
        result.output.append(f"renamed {src}")
        return

    if verb == "mv":
        if len(tokens) != 3:
            raise ScriptError(f"mv: bad arguments in {line!r}")
        os_instance.rename(tokens[1], tokens[2])
        result.output.append(f"renamed {tokens[1]}")
        return

    # binary invocation by path
    binary = os_instance.find_binary(tokens[0])
    if binary is not None:
        out = binary(os_instance, tokens[1:])
        if out:
            result.output.append(str(out))
        return
    raise ScriptError(f"{os_instance.hostname}: command not found: {tokens[0]}")
    yield  # pragma: no cover - makes this a generator in all paths


def _do_echo(os_instance: OSInstance, line: str, result: ShellResult) -> None:
    body = line[len("echo"):].strip()
    if ">>" in body:
        text, _, target = body.partition(">>")
        os_instance.append(target.strip(), text.strip() + "\n")
    elif ">" in body:
        text, _, target = body.partition(">")
        os_instance.write(target.strip(), text.strip() + "\n")
    else:
        result.output.append(body)
