"""Parser for real ``strace -f -T -ttt`` text output.

Typical lines::

    12345 1699999999.123456 openat(AT_FDCWD, "/etc/hosts", O_RDONLY) = 3 <0.000034>
    12345 1699999999.123999 read(3, "127.0.0.1 ..."..., 4096) = 212 <0.000017>
    12345 1699999999.124100 write(1, "hi\\n", 3) = 3 <0.000008>
    12345 1699999999.124500 close(3) = 0 <0.000005>
    12345 1699999999.125000 exit_group(0) = ?
    12345 1699999999.124800 wait4(-1,  <unfinished ...>

Unfinished/resumed pairs are matched by (pid, syscall name); lines that
do not look like syscalls (signals, exits) are skipped.  Parsed events
use the library's shared model, with names normalized to the simulated
spelling (``openat`` → ``SYS_open``) so downstream tools (summaries,
pseudo-app builders) treat real and simulated traces identically.

Real strace output is hostile input: interleaved ``<unfinished ...>`` /
``<... resumed>`` pairs, interrupted syscalls returning ``?``, signal
and exit markers, and path arguments that are not valid UTF-8 (strace
octal-escapes them, but a capture file can also simply contain raw
bytes).  :func:`parse_strace` therefore **never raises**: every line
either parses, or is skipped under a counted warning —
:class:`StraceParseResult.warnings` is the per-category tally, and the
crash corpus under ``tests/host/corpus/`` pins the contract.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

from repro.trace.events import IO_DATA_SYSCALLS, EventLayer, TraceEvent

__all__ = [
    "StraceParseResult",
    "parse_strace",
]

_LINE_RE = re.compile(
    r"^(?:(?P<pid>\d+)\s+)?"
    r"(?P<ts>\d+\.\d+)\s+"
    r"(?P<name>[a-zA-Z_][a-zA-Z0-9_]*)"
    r"\((?P<args>.*?)"
    r"(?:\)\s*=\s*(?P<result>-?\d+|0x[0-9a-f]+|\?)(?:\s+(?P<errno>E[A-Z]+)[^<]*)?"
    r"(?:\s*<(?P<dur>\d+\.\d+)>)?"
    r"|\s*<unfinished \.\.\.>)\s*$"
)

_RESUMED_RE = re.compile(
    r"^(?:(?P<pid>\d+)\s+)?"
    r"(?P<ts>\d+\.\d+)\s+"
    r"<\.\.\. (?P<name>[a-zA-Z_][a-zA-Z0-9_]*) resumed>.*?"
    r"=\s*(?P<result>-?\d+|0x[0-9a-f]+|\?)(?:\s+(?P<errno>E[A-Z]+)[^<]*)?"
    r"(?:\s*<(?P<dur>\d+\.\d+)>)?\s*$"
)

#: Signal deliveries and process exits — expected non-syscall lines.
_NOISE_RE = re.compile(r"^(?:(?:\d+)\s+)?(?:\d+\.\d+\s+)?(?:---|\+\+\+)")

#: real syscall name -> this library's canonical spelling
_NAME_MAP = {
    "open": "SYS_open",
    "openat": "SYS_open",
    "creat": "SYS_open",
    "close": "SYS_close",
    "read": "SYS_read",
    "pread64": "SYS_pread64",
    "write": "SYS_write",
    "pwrite64": "SYS_pwrite64",
    "lseek": "SYS__llseek",
    "_llseek": "SYS__llseek",
    "stat": "SYS_stat64",
    "stat64": "SYS_stat64",
    "newfstatat": "SYS_stat64",
    "lstat": "SYS_stat64",
    "fstat": "SYS_fstat64",
    "fstat64": "SYS_fstat64",
    "unlink": "SYS_unlink",
    "unlinkat": "SYS_unlink",
    "mkdir": "SYS_mkdir",
    "mkdirat": "SYS_mkdir",
    "getdents64": "SYS_getdents64",
    "rename": "SYS_rename",
    "renameat": "SYS_rename",
    "statfs": "SYS_statfs64",
    "statfs64": "SYS_statfs64",
    "fsync": "SYS_fsync",
    "fdatasync": "SYS_fsync",
    "fcntl": "SYS_fcntl64",
    "fcntl64": "SYS_fcntl64",
    "mmap": "SYS_mmap2",
    "mmap2": "SYS_mmap2",
}

_PATH_RE = re.compile(r'"((?:[^"\\]|\\.)*)"')


@dataclass
class StraceParseResult:
    """Outcome of a whole-output parse: events plus a warning tally.

    ``warnings`` maps category → count.  Categories:

    * ``undecodable_bytes`` — lines that were not valid UTF-8 (decoded
      with backslash escapes so path bytes survive round trips);
    * ``unmapped_syscall`` — well-formed syscall lines whose name has no
      simulated counterpart (``futex``, ``exit_group``, ...);
    * ``unparsed_line`` — lines matching no known strace shape;
    * ``unmatched_resumed`` — ``<... resumed>`` with no pending
      ``<unfinished ...>`` partner (capture started mid-syscall);
    * ``unresolved_unfinished`` — ``<unfinished ...>`` never resumed
      (capture ended mid-syscall);
    * ``non_finite_time`` — syscalls whose timestamp, ``<duration>`` or
      end time (their sum) does not fit a float (an over-long number
      parses to infinity, which no trace can store or report on);
    * ``line_error`` — lines whose parse raised; the line is skipped,
      the parse continues.
    """

    events: List[TraceEvent] = field(default_factory=list)
    warnings: Dict[str, int] = field(default_factory=dict)
    n_lines: int = 0

    def warn(self, category: str) -> None:
        """Count one skipped line under ``category``."""
        self.warnings[category] = self.warnings.get(category, 0) + 1

    @property
    def n_events(self) -> int:
        return len(self.events)


def _extract_path(name: str, argtext: str) -> Optional[str]:
    if name in ("SYS_open", "SYS_stat64", "SYS_unlink", "SYS_mkdir", "SYS_rename",
                "SYS_statfs64"):
        m = _PATH_RE.search(argtext)
        if m:
            return m.group(1)
    return None


def _extract_fd(name: str, argtext: str) -> Optional[int]:
    if name in IO_DATA_SYSCALLS or name in ("SYS_close", "SYS_fstat64",
                                            "SYS_fcntl64", "SYS__llseek",
                                            "SYS_fsync"):
        first = argtext.split(",", 1)[0].strip()
        try:
            return int(first)
        except ValueError:
            return None
    return None


def _parse_result(result_text: str, errno: Optional[str]) -> object:
    if result_text == "?":
        # Interrupted syscall (killed mid-call, or exit_group): no
        # return value ever materialized.
        return None
    try:
        result: object = int(result_text, 0)
    except ValueError:
        result = result_text
    if errno:
        result = "-1 %s" % errno
    return result


def _build_event(
    name: str,
    ts: float,
    dur: Optional[str],
    argtext: str,
    result: object,
    pid: int,
) -> Optional[TraceEvent]:
    """The syscall's event, or None when its times are not finite."""
    duration = float(dur) if dur else 0.0
    if not math.isfinite(ts + duration):  # either is inf, or the end is
        return None
    nbytes: Optional[int] = None
    if name in IO_DATA_SYSCALLS and isinstance(result, int) and result >= 0:
        nbytes = result
    return TraceEvent(
        timestamp=ts,
        duration=duration,
        layer=EventLayer.SYSCALL,
        name=name,
        args=(argtext,),
        result=result,
        pid=pid,
        path=_extract_path(name, argtext),
        fd=_extract_fd(name, argtext),
        nbytes=nbytes,
    )


def _parse_complete_line(line: str) -> Tuple[Optional[TraceEvent], Optional[str]]:
    """(event, None) on success; (None, warning-category) otherwise."""
    m = _LINE_RE.match(line.strip())
    if not m or m.group("result") is None:
        return None, "unparsed_line"
    raw_name = m.group("name")
    name = _NAME_MAP.get(raw_name)
    if name is None:
        return None, "unmapped_syscall"
    result = _parse_result(m.group("result"), m.group("errno"))
    event = _build_event(
        name=name,
        ts=float(m.group("ts")),
        dur=m.group("dur"),
        argtext=m.group("args") or "",
        result=result,
        pid=int(m.group("pid")) if m.group("pid") else 0,
    )
    if event is None:
        return None, "non_finite_time"
    return event, None


def _decode_lines(data: Union[str, bytes], result: StraceParseResult) -> List[str]:
    if isinstance(data, str):
        return data.splitlines()
    lines: List[str] = []
    for raw in data.splitlines():
        try:
            lines.append(raw.decode("utf-8"))
        except UnicodeDecodeError:
            # Raw path bytes in the capture: keep the line, escape the
            # bytes (matching strace's own octal-escape habit), count it.
            result.warn("undecodable_bytes")
            lines.append(raw.decode("utf-8", errors="backslashreplace"))
    return lines


def parse_strace(data: Union[str, bytes]) -> StraceParseResult:
    """Parse a whole strace output; never raises (see class docstring).

    Accepts text or raw bytes (``strace`` output files are not
    guaranteed to be valid UTF-8 — paths are arbitrary bytes).
    Unfinished/resumed pairs are stitched by (pid, syscall name);
    everything unparseable is skipped under a counted warning.
    """
    result = StraceParseResult()
    pending: Dict[Tuple[int, str], Tuple[float, str]] = {}
    for line in _decode_lines(data, result):
        stripped = line.strip()
        if not stripped:
            continue
        result.n_lines += 1
        try:
            _parse_one(stripped, pending, result)
        except Exception:
            # A single hostile line must never kill a whole-capture
            # parse; skip it, count it, keep going.
            result.warn("line_error")
    for _key in pending:
        result.warn("unresolved_unfinished")
    return result


def _parse_one(
    stripped: str,
    pending: Dict[Tuple[int, str], Tuple[float, str]],
    result: StraceParseResult,
) -> None:
    resumed = _RESUMED_RE.match(stripped)
    if resumed:
        raw_name = resumed.group("name")
        pid = int(resumed.group("pid")) if resumed.group("pid") else 0
        start = pending.pop((pid, raw_name), None)
        if start is None:
            result.warn("unmatched_resumed")
            return
        name = _NAME_MAP.get(raw_name)
        if name is None:
            result.warn("unmapped_syscall")
            return
        ts, argtext = start
        res = _parse_result(resumed.group("result"), resumed.group("errno"))
        event = _build_event(
            name=name,
            ts=ts,
            dur=resumed.group("dur"),
            argtext=argtext,
            result=res,
            pid=pid,
        )
        if event is None:
            result.warn("non_finite_time")
        else:
            result.events.append(event)
        return
    if stripped.endswith("<unfinished ...>"):
        m = _LINE_RE.match(stripped)
        if m:
            pid = int(m.group("pid")) if m.group("pid") else 0
            pending[(pid, m.group("name"))] = (
                float(m.group("ts")),
                m.group("args") or "",
            )
        else:
            result.warn("unparsed_line")
        return
    if _NOISE_RE.match(stripped):
        # Signal delivery / process exit markers: expected, not warned.
        return
    event, reason = _parse_complete_line(stripped)
    if event is not None:
        result.events.append(event)
    elif reason is not None:
        result.warn(reason)
