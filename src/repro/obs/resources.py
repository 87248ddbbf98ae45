"""Per-process resource sampling from ``/proc`` — CPU%, RSS, ctx switches.

The live resource plane needs no agent inside the observed process: on
Linux, ``/proc/<pid>/stat`` and ``/proc/<pid>/status`` expose cumulative
CPU ticks, resident-set size and context-switch counts to any reader.
The executor therefore samples its *workers* from the parent — reads are
piggybacked on the replies already draining the result pipes and on
``health()`` polls, so liveness-plus-resources costs **zero new protocol
traffic** — and the telemetry server samples its own serving process on
every ``/metrics`` scrape.

CPU% is a two-point estimate: the sampler remembers the previous
``(cpu_ticks, wall_ns)`` per pid and converts the deltas into percent of
one core (200.0 = two cores busy).  The first sample of a pid has no
baseline and reports ``cpu_percent=None``; callers treat ``None`` as
"unknown", never as zero — the distinction matters to the watchdog's
busy-but-progressing classification.

Everything degrades gracefully off Linux (or on a hardened ``/proc``):
sampling returns ``None`` and every consumer keeps its previous
behaviour, so the resource plane is strictly additive.
"""

from __future__ import annotations

import os

from repro.obs.trace import wall_now_ns

__all__ = [
    "CPU_GAUGE",
    "RSS_GAUGE",
    "CTX_GAUGE",
    "ResourceSampler",
    "diff_resources",
    "read_proc_sample",
    "record_resource_gauges",
    "resources_from_snapshot",
]

#: CPU percent of one core, per worker (two-point /proc estimate).
CPU_GAUGE = "repro_worker_cpu_percent"
#: Resident-set size in bytes, per worker.
RSS_GAUGE = "repro_worker_rss_bytes"
#: Cumulative context switches, per worker, labelled voluntary/involuntary.
CTX_GAUGE = "repro_worker_ctx_switches"

_CLK_TCK = os.sysconf("SC_CLK_TCK") if hasattr(os, "sysconf") else 100
_PAGE_SIZE = os.sysconf("SC_PAGE_SIZE") if hasattr(os, "sysconf") else 4096


def read_proc_sample(pid: int) -> dict | None:
    """One raw ``/proc/<pid>`` reading, or ``None`` when unavailable.

    Returns ``{"cpu_ticks", "rss_bytes", "voluntary_ctx",
    "involuntary_ctx", "t_ns"}`` — cumulative user+system clock ticks,
    resident-set bytes, cumulative context switches, and the wall stamp
    the reading was taken at.  ``None`` on any failure (no ``/proc``,
    pid gone, permission): resource sampling is best-effort by contract.
    """
    try:
        with open(f"/proc/{pid}/stat", "rb") as fh:
            stat = fh.read().decode("ascii", "replace")
        # The comm field is parenthesised and may itself contain spaces
        # or parens; everything after the *last* ')' is fixed-position.
        fields = stat[stat.rindex(")") + 2 :].split()
        # Post-comm indices (0-based): utime=11, stime=12, rss pages=21.
        utime, stime = int(fields[11]), int(fields[12])
        rss_bytes = int(fields[21]) * _PAGE_SIZE
        voluntary = involuntary = 0
        with open(f"/proc/{pid}/status", "rb") as fh:
            for line in fh:
                if line.startswith(b"voluntary_ctxt_switches:"):
                    voluntary = int(line.split()[1])
                elif line.startswith(b"nonvoluntary_ctxt_switches:"):
                    involuntary = int(line.split()[1])
    except (OSError, ValueError, IndexError):
        return None
    return {
        "cpu_ticks": utime + stime,
        "rss_bytes": rss_bytes,
        "voluntary_ctx": voluntary,
        "involuntary_ctx": involuntary,
        "t_ns": wall_now_ns(),
    }


class ResourceSampler:
    """Two-point CPU%/RSS/ctx-switch sampler over a set of pids.

    ``sample(pid)`` returns ``None`` off Linux, else a dict with
    ``cpu_percent`` (``None`` on the pid's first reading — no baseline
    yet), ``rss_bytes``, ``voluntary_ctx`` and ``involuntary_ctx``.
    State is one small dict entry per pid; :meth:`forget` drops a pid
    when its process is replaced so a recycled pid cannot inherit a
    stale baseline.
    """

    def __init__(self) -> None:
        self._last: dict[int, dict] = {}

    def sample(self, pid: int) -> dict | None:
        raw = read_proc_sample(pid)
        if raw is None:
            return None
        last = self._last.get(pid)
        self._last[pid] = raw
        cpu_percent = None
        if last is not None and raw["t_ns"] > last["t_ns"]:
            dt_s = (raw["t_ns"] - last["t_ns"]) / 1e9
            dcpu_s = (raw["cpu_ticks"] - last["cpu_ticks"]) / _CLK_TCK
            cpu_percent = max(0.0, 100.0 * dcpu_s / dt_s)
        return {
            "cpu_percent": cpu_percent,
            "rss_bytes": raw["rss_bytes"],
            "voluntary_ctx": raw["voluntary_ctx"],
            "involuntary_ctx": raw["involuntary_ctx"],
        }

    def forget(self, pid: int) -> None:
        self._last.pop(pid, None)


def record_resource_gauges(registry, sample: dict, labels: dict) -> None:
    """Mirror one resource ``sample`` into the per-worker gauges.

    ``cpu_percent=None`` (first reading) records nothing for the CPU
    gauge — a gauge must never claim 0% for "unknown".
    """
    if sample.get("cpu_percent") is not None:
        registry.gauge(CPU_GAUGE, labels).set(sample["cpu_percent"])
    registry.gauge(RSS_GAUGE, labels).set(sample["rss_bytes"])
    for kind in ("voluntary", "involuntary"):
        registry.gauge(CTX_GAUGE, {**labels, "kind": kind}).set(
            sample[f"{kind}_ctx"]
        )


def resources_from_snapshot(entries: list[dict]) -> dict:
    """The per-worker resource table hiding in a metrics snapshot.

    Reassembles the ``repro_worker_*`` gauge families (as recorded by
    the executor and parsed back by ``parse_prometheus_snapshot``) into
    ``{"workers": {worker_label: {cpu_percent, rss_bytes,
    ctx_switches: {voluntary, involuntary}, sample_ms}}}`` — the shape
    the ``repro-obs`` report and its resource diff consume.  Empty dict
    when the snapshot carries no resource gauges.
    """
    workers: dict[str, dict] = {}

    def worker_entry(labels: dict) -> dict | None:
        worker = labels.get("worker")
        if worker is None:
            return None
        return workers.setdefault(
            worker, {"cpu_percent": None, "rss_bytes": None, "ctx_switches": {}}
        )

    for entry in entries:
        if entry.get("kind") != "gauge":
            continue
        name, labels = entry["name"], entry.get("labels", {})
        target = worker_entry(labels)
        if target is None:
            continue
        if name == CPU_GAUGE:
            target["cpu_percent"] = entry["value"]
        elif name == RSS_GAUGE:
            target["rss_bytes"] = entry["value"]
        elif name == CTX_GAUGE and "kind" in labels:
            target["ctx_switches"][labels["kind"]] = entry["value"]
        else:
            continue
        if "sample_ms" in entry:
            target["sample_ms"] = max(target.get("sample_ms", 0), entry["sample_ms"])
    return {"workers": dict(sorted(workers.items()))} if workers else {}


def diff_resources(base: dict, current: dict) -> dict:
    """Per-worker deltas between two resource tables (``repro-obs`` diff).

    Workers present on only one side keep their single reading with no
    delta — a changed pool size is itself worth surfacing, not an error.
    """
    base_workers = base.get("workers", {})
    current_workers = current.get("workers", {})
    out: dict[str, dict] = {}
    for worker in sorted(set(base_workers) | set(current_workers)):
        b, c = base_workers.get(worker), current_workers.get(worker)
        entry: dict = {"base": b, "current": c}
        if b is not None and c is not None:
            if b.get("rss_bytes") is not None and c.get("rss_bytes") is not None:
                entry["rss_delta_bytes"] = c["rss_bytes"] - b["rss_bytes"]
            if b.get("cpu_percent") is not None and c.get("cpu_percent") is not None:
                entry["cpu_delta_percent"] = c["cpu_percent"] - b["cpu_percent"]
        out[worker] = entry
    return {"workers": out}
