"""Parsers for what the usched commands write: `solve` stdout, the
`--trace` JSONL log, `run fig3` CSV files and instance files.

Numbers the CLI prints are kept as the strings it printed, so checks can
compare them with the in-process replay's values at the CLI's own
precision; callers convert with float() where they need a number.
"""

import csv
import io
import json
import re

_NUM = r"(-?(?:[0-9.]+(?:e[-+]?[0-9]+)?|inf|nan))"

_HEADER = re.compile(
    r"^(?P<algo>.+) on (?P<file>\S+): C_max = " + _NUM
    + r" \(lower bound " + _NUM + r", ratio <= " + _NUM + r"\)$",
    re.M,
)
_REPLICAS = re.compile(r"^replicas/task max (\d+), Mem_max " + _NUM + "$", re.M)
_MACHINE_ROW = re.compile(r"^m\d+ +(\d+) ", re.M)
_FAULTY = re.compile(
    r"^completed (\d+)/(\d+) tasks(?: \(stranded: ([0-9; ]+)\))?, "
    r"effective C_max = " + _NUM,
    re.M,
)
_REREPLICATIONS = re.compile(r"^recovery .*: (\d+) re-replication\(s\)", re.M)
_STREAM = re.compile(
    r"^stream replay \((?P<arrival>[^,]+), offered load " + _NUM
    + r"[^)]*\): completed (\d+)/(\d+)",
    re.M,
)
_LATENCY = re.compile(
    r"latency p50 " + _NUM + " p95 " + _NUM + " p99 " + _NUM + r" \(mean " + _NUM + r"\)"
)


def solve_stdout(text):
    """Fields of one `usched solve` stdout.

    Always present: algo, cmax, lower_bound, ratio, replicas_max, mem_max,
    and machine_tasks (the sum of the per-machine task column). When the
    run had a faulty replay: faulty = {completed, n, stranded, cmax} and,
    under recovery, rereplications. When it had a stream replay:
    stream = {arrival, offered_load, completed, n, p50, p95, p99, mean}.
    Raises ValueError when a mandatory line is missing.
    """
    head = _HEADER.search(text)
    reps = _REPLICAS.search(text)
    if head is None or reps is None:
        raise ValueError("solve stdout has no C_max / replicas header")
    out = {
        "algo": head.group("algo"),
        "cmax": head.group(3),
        "lower_bound": head.group(4),
        "ratio": head.group(5),
        "replicas_max": int(reps.group(1)),
        "mem_max": reps.group(2),
        "machine_tasks": sum(int(t) for t in _MACHINE_ROW.findall(text)),
    }
    faulty = _FAULTY.search(text)
    if faulty:
        stranded = faulty.group(3)
        out["faulty"] = {
            "completed": int(faulty.group(1)),
            "n": int(faulty.group(2)),
            "stranded": [int(s) for s in stranded.split(";")] if stranded else [],
            "cmax": faulty.group(4),
        }
        rerep = _REREPLICATIONS.search(text)
        if rerep:
            out["faulty"]["rereplications"] = int(rerep.group(1))
    stream = _STREAM.search(text)
    if stream:
        lat = _LATENCY.search(text, stream.end())
        if lat is None:
            raise ValueError("stream replay has no latency line")
        out["stream"] = {
            "arrival": stream.group("arrival"),
            "offered_load": stream.group(2),
            "completed": int(stream.group(3)),
            "n": int(stream.group(4)),
            "p50": lat.group(1),
            "p95": lat.group(2),
            "p99": lat.group(3),
            "mean": lat.group(4),
        }
    return out


def trace_outcome(lines):
    """The `outcome` record of a `solve --trace` JSONL log (an iterable of
    lines), or None when the log has none. Only lines that can be that
    record are decoded, so a multi-megabyte log is cheap to scan."""
    for line in lines:
        if line.startswith('{"type":"outcome"'):
            return json.loads(line)
    return None


def fig3_csv(text):
    """Rows of one fig3 CSV: replication and groups_k as ints, guarantee as
    a float, measured_worst as a float or None for unmeasured rows."""
    rows = []
    for row in csv.DictReader(io.StringIO(text)):
        worst = row["measured_worst"]
        rows.append({
            "replication": int(row["replication"]),
            "groups_k": int(row["groups_k"]),
            "guarantee": float(row["guarantee"]),
            "measured_worst": float(worst) if worst else None,
        })
    return rows


def instance_shape(text):
    """(m, mean estimate) of a usched instance file."""
    lines = text.splitlines()
    header = re.match(r"# usched-instance m=(\d+)", lines[0])
    if header is None:
        raise ValueError("not a usched instance file")
    ests = [float(l.split(",")[1]) for l in lines[1:] if l[:1].isdigit()]
    if not ests:
        raise ValueError("instance has no tasks")
    return int(header.group(1)), sum(ests) / len(ests)
