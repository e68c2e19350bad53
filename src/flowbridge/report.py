"""Run reports: summary tables, link utilization, bridge inventory,
and comparison of two finished runs from their metric exports."""

from __future__ import annotations

import csv
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Sequence

from .monitor import MetricsRegistry, ordered_sum
from .topology import Topology


def percentile(sorted_values: list[float], q: float) -> float:
    """Linear-interpolated percentile of an ascending list, q in [0, 100]."""
    if not sorted_values:
        raise ValueError("percentile of empty list")
    if not 0 <= q <= 100:
        raise ValueError("q must be within [0, 100]")
    pos = (len(sorted_values) - 1) * q / 100.0
    lo = int(pos)
    frac = pos - lo
    if lo + 1 >= len(sorted_values):
        return sorted_values[-1]
    return sorted_values[lo] * (1 - frac) + sorted_values[lo + 1] * frac


def write_csv(path: str | Path, fieldnames: list[str], rows: Iterable[Sequence]) -> None:
    """Write a header and ``rows``, each a sequence in header order."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(fieldnames)
        writer.writerows(rows)


def _fmt(x: float) -> str:
    if isinstance(x, float):
        return f"{x:.6g}"
    return str(x)


# -- per-run tables ---------------------------------------------------------


def latency_by_topic(registry: MetricsRegistry) -> dict[str, list[float]]:
    """Observed end-to-end latencies (ms) pooled across consumer nodes,
    in label order (by node within a topic): the mean's float sum
    depends on the order, so it must not depend on which node heard
    first."""
    pools: dict[str, list[float]] = {}
    for labels, cell in sorted(registry.gauge_sets("mon.msg_latency_ms").items()):
        topic = dict(labels).get("topic", "")
        pools.setdefault(topic, []).extend(cell.values)
    return pools


def conservation_totals(registry: MetricsRegistry) -> list[dict[str, float]]:
    """Per-topic totals of offered, delivered and the three drop reasons
    (loss, dedupe, limiter); once drained, offered splits exactly into
    the other four."""
    return [registry.totals(name, "topic") for name in (
        "flow.offered", "flow.delivered", "flow.drop.loss",
        "flow.drop.dedupe", "flow.drop.limiter")]


def summary_rows(registry: MetricsRegistry, duration_s: float) -> list[dict]:
    """One row per topic: delivery rate, latency stats, drop breakdown."""
    offered, delivered, loss, dedupe, limiter = conservation_totals(registry)
    pools = latency_by_topic(registry)
    rows = []
    for topic in sorted(offered.keys() | delivered.keys()):
        n_delivered = delivered.get(topic, 0)
        lats = pools.get(topic, [])
        ordered = sorted(lats)
        rows.append({
            "topic": topic,
            "offered": int(offered.get(topic, 0)),
            "delivered": int(n_delivered),
            "delivered_hz": _fmt(n_delivered / duration_s),
            "latency_mean_ms": _fmt(ordered_sum(lats) / len(lats)) if lats else "",
            "latency_p50_ms": _fmt(percentile(ordered, 50)) if lats else "",
            "latency_p95_ms": _fmt(percentile(ordered, 95)) if lats else "",
            "latency_p99_ms": _fmt(percentile(ordered, 99)) if lats else "",
            "drop_loss": int(loss.get(topic, 0)),
            "drop_dedupe": int(dedupe.get(topic, 0)),
            "drop_limiter": int(limiter.get(topic, 0)),
        })
    return rows


SUMMARY_FIELDS = [
    "topic", "offered", "delivered", "delivered_hz",
    "latency_mean_ms", "latency_p50_ms", "latency_p95_ms", "latency_p99_ms",
    "drop_loss", "drop_dedupe", "drop_limiter",
]


def write_summary(path: str | Path, registry: MetricsRegistry,
                  duration_s: float) -> list[dict]:
    """Write summary.csv; returns its rows."""
    rows = summary_rows(registry, duration_s)
    write_csv(path, SUMMARY_FIELDS, map(itemgetter(*SUMMARY_FIELDS), rows))
    return rows


def link_rows(registry: MetricsRegistry, topology: Topology,
              duration_s: float) -> list[tuple]:
    """One row per link that carried traffic, in `LINK_FIELDS` order:
    volume and utilization."""
    link_bytes = registry.totals("link.bytes", "link")
    link_msgs = registry.totals("link.msgs", "link")
    rows = []
    for name in sorted(link_bytes):
        nbytes = link_bytes[name]
        msgs = link_msgs.get(name, 0)
        mbps = nbytes * 8.0 / duration_s / 1e6
        bandwidth = topology.links[name].bandwidth_mbps
        util = _fmt(mbps / bandwidth) if bandwidth > 0 else ""
        rows.append((name, int(nbytes), int(msgs), _fmt(mbps), util))
    return rows


LINK_FIELDS = ["link", "bytes", "msgs", "throughput_mbps", "utilization"]


def write_links(path: str | Path, registry: MetricsRegistry, topology: Topology,
                duration_s: float) -> None:
    write_csv(path, LINK_FIELDS, link_rows(registry, topology, duration_s))


BRIDGE_FIELDS = ["at_ms", "event", "layer", "topic", "source", "dest"]


def write_bridges(path: str | Path, events: list[tuple]) -> None:
    """Write bridges.csv, the bridge inventory over time, from a world's
    ``Network.bridge_events`` as they happened."""
    write_csv(path, BRIDGE_FIELDS, ((_fmt(at / 1e6), *rest) for at, *rest in events))


def placement_rows(tag: str, rows: list[dict]) -> list[dict]:
    """Summary rows labeled with the placement they came from."""
    return [{"placement": tag, **row} for row in rows]


def write_placement_compare(path: str | Path, rows: list[dict]) -> None:
    fields = ["placement"] + SUMMARY_FIELDS
    write_csv(path, fields, map(itemgetter(*fields), rows))


def digest_lines(rows: list[dict]) -> list[str]:
    """Human-readable per-topic digest of summary rows, for the log."""
    lines = []
    for row in rows:
        lat = row["latency_mean_ms"]
        lat_part = f" mean={lat}ms" if lat else ""
        drops = row["drop_loss"] + row["drop_dedupe"] + row["drop_limiter"]
        lines.append(
            f"{row['topic']}: delivered {row['delivered']} "
            f"({row['delivered_hz']} Hz){lat_part} drops={drops}"
        )
    return lines


# -- run-to-run comparison ----------------------------------------------------


class MetricsParseError(ValueError):
    """Raised when a metrics export cannot be parsed back."""


def parse_metrics(path: str | Path) -> dict[str, str]:
    """Read a metrics export into {metric line key: value part}.

    Counter lines keep their value; gauge lines keep the stat fields.
    Timestamps are dropped so two runs can be compared on substance.
    """
    out: dict[str, str] = {}
    text = Path(path).read_text(encoding="utf-8")
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line or line.startswith("#"):
            continue
        try:
            kind, rest = line.split(" ", 1)
            if kind not in ("counter", "gauge"):
                raise ValueError(kind)
            if "{" in rest:
                end = rest.rindex("}")
                key, tail = rest[: end + 1], rest[end + 2:]
            else:
                key, tail = rest.split(" ", 1)
            value = tail.rsplit(" ", 1)[0]  # strip trailing timestamp
        except ValueError:
            raise MetricsParseError(
                f"{path}:{lineno}: unrecognized line {line!r}") from None
        out[f"{kind} {key}"] = value
    return out


def diff_runs(dir_a: str | Path, dir_b: str | Path) -> tuple[bool, list[str]]:
    """Compare two run directories by their metric exports.

    Returns (identical, report lines). Timestamps are ignored; counter
    values and gauge statistics are compared exactly.
    """
    path_a = Path(dir_a) / "metrics.txt"
    path_b = Path(dir_b) / "metrics.txt"
    a = parse_metrics(path_a)
    b = parse_metrics(path_b)
    lines = []
    only_a = sorted(set(a) - set(b))
    only_b = sorted(set(b) - set(a))
    changed = sorted(k for k in set(a) & set(b) if a[k] != b[k])
    for key in only_a:
        lines.append(f"only in {dir_a}: {key} = {a[key]}")
    for key in only_b:
        lines.append(f"only in {dir_b}: {key} = {b[key]}")
    for key in changed:
        lines.append(f"differs: {key}: {a[key]} != {b[key]}")
    identical = not lines
    if identical:
        lines.append(f"runs match: {len(a)} metrics identical")
    return identical, lines
