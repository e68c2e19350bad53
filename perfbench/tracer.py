"""Outside-in span tracer for one flowbridge process.

`install(tracer)` wraps public functions and methods of the flowbridge
modules at run time, from this file, so no program file changes. Each
wrapped call of a *span* boundary records one span (name, start, end,
parent) into flat in-memory arrays; *count* boundaries only bump a
counter (and, for a few, record a value) because they are too small and
too frequent to time without drowning the numbers in tracer cost.

A span's self time is its duration minus the durations of its direct
children. Spans nest exactly (one thread, strict call order), so the
self times of all spans sum to the duration of the root span, which is
`runner.run_scenario`. Time no named span covers is the root's own self
time, reported as the residual.

Deployment-layer attribution happens when a span opens:

* `compute_required_bridges` -> `flow.reconcile.<layer>`, by the engine
  whose table it scans;
* `HierarchicalLimiter.try_acquire` -> `ratelimit.acquire.<layer>`, by
  the layer of the limiter's traffic client (`node:<n>` or `layer:<l>`);
* `BrokerEndpoint.invoke` by the handle's public kind and owner: bridge
  -> `flow.bridge.<layer>`, flow-engine control -> `flow.control`,
  `__config*` control -> `configstore.control`, user -> `sdk.deliver`.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from pathlib import Path

class Tracer:
    """Span arrays, boundary counters, and the run's attribution maps."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.stack = [-1]
        self.counts: dict[str, int] = {}
        self.xlink_wait_ms: list[float] = []
        self.table_layer: dict[int, str] = {}
        self.node_layer: dict[str, str] = {}
        self.last_required: dict[int, object] = {}  # table id -> previous bridge set

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def bump(self, key: str, by: int | float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + by

    # -- wrappers ----------------------------------------------------------

    def span(self, fn, name, after=None):
        """Wrap fn so each call records a span.

        ``name`` is a fixed span name, or a callable taking the call's
        positional arguments and returning one. ``after(args, result)``
        runs once the span has closed.
        """
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self.stack
        clock = time.perf_counter_ns
        fixed = None if callable(name) else self.name_id(name)
        name_id = self.name_id

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(fixed if fixed is not None else name_id(name(args)))
            parents.append(stack[-1])
            starts.append(0)
            ends.append(0)
            stack.append(idx)
            starts[idx] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def count(self, fn, key, before=None, after=None):
        """Wrap fn so each call bumps ``key`` (no span, no timing)."""
        counts = self.counts
        counts.setdefault(key, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            if before is not None:
                before(args)
            result = fn(*args, **kwargs)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    # -- attribution ---------------------------------------------------------

    def register_world(self, world) -> None:
        """Learn a freshly built world's tables and node layers."""
        for layer, engine in world.engines.items():
            self.table_layer[id(engine.table)] = layer
        for node in world.topology.nodes:
            self.node_layer[node.name] = node.layer

    def client_layer(self, client: str) -> str:
        kind, _, name = client.partition(":")
        return name if kind == "layer" else self.node_layer.get(name, "unknown")

    # -- analysis --------------------------------------------------------------

    def span_totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds."""
        n = len(self.span_start)
        starts, ends, parents = self.span_start, self.span_end, self.span_parent
        child = [0] * n
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        totals = {name: [0, 0, 0] for name in self.names}
        for i in range(n):
            dur = ends[i] - starts[i]
            row = totals[self.names[self.span_name[i]]]
            row[0] += 1
            row[1] += dur
            row[2] += dur - child[i]
        return {name: {"calls": c, "incl_s": incl / 1e9, "self_s": own / 1e9}
                for name, (c, incl, own) in sorted(totals.items())}

    def write_spans(self, out_dir: Path) -> None:
        """Write the raw spans: an index file plus four flat arrays."""
        out_dir.mkdir(parents=True, exist_ok=True)
        with open(out_dir / "spans.bin", "wb") as fh:
            for arr in (self.span_name, self.span_parent, self.span_start, self.span_end):
                arr.tofile(fh)
        index = {"count": len(self.span_start), "names": self.names,
                 "layout": ["name:int32", "parent:int32", "start_ns:int64", "end_ns:int64"],
                 "byteorder": sys.byteorder}
        (out_dir / "spans.json").write_text(json.dumps(index, indent=1) + "\n")


def _invoke_name(args) -> str:
    handle = args[1]
    owner = handle.owner or ""
    if handle.kind == "bridge":
        # owner is "__flow-engine/<layer>:<src>-><dst>"
        return "flow.bridge." + owner.partition("/")[2].partition(":")[0]
    if owner.startswith("__flow-engine/"):
        return "flow.control"
    if owner.startswith("__config"):
        return "configstore.control"
    return "sdk.deliver"


def _replace_function(original, wrapper) -> None:
    """Point every flowbridge module attribute bound to original at wrapper."""
    for name, mod in list(sys.modules.items()):
        if name == "flowbridge" or name.startswith("flowbridge."):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)


def install(tr: Tracer) -> None:
    """Wrap the public boundaries of every flowbridge module."""
    from flowbridge import broker, codec, configstore, flow, monitor, ratelimit
    from flowbridge import report, runner, scenario, sdk, simnet, topology, tracing

    def method(cls, attr, make):
        setattr(cls, attr, make(getattr(cls, attr)))

    def function(mod, attr, make):
        original = getattr(mod, attr)
        _replace_function(original, make(original))

    span, count, bump = tr.span, tr.count, tr.bump

    # runner: phases of each world
    function(runner, "run_scenario", lambda f: span(f, "runner.run_scenario"))
    function(scenario, "load_scenario", lambda f: span(f, "scenario.parse"))
    function(topology, "build_topology", lambda f: span(f, "topology.build"))
    world_init = runner.World.__init__

    @functools.wraps(world_init)
    def init_and_register(self, *args, **kwargs):
        world_init(self, *args, **kwargs)
        tr.register_world(self)

    runner.World.__init__ = span(init_and_register, "runner.world_init")
    method(runner.World, "start", lambda f: span(f, "runner.world_start"))
    method(runner.World, "setup_scenario", lambda f: span(f, "runner.setup_scenario"))
    method(runner.World, "run_for", lambda f: span(f, "runner.run_for"))
    method(runner.World, "drain", lambda f: span(
        f, "runner.drain", after=lambda a, r: bump("runner.drain_events", r)))
    method(runner.World, "issues", lambda f: span(f, "runner.issues"))

    # simnet: event loop, dispatch under publish, scheduling, links
    method(simnet.SimClock, "run_until", lambda f: span(f, "simnet.loop"))
    method(simnet.SimClock, "run_until_idle", lambda f: span(f, "simnet.loop"))
    method(simnet.SimClock, "schedule", lambda f: count(f, "simnet.schedule_calls"))

    def before_charge(args):
        link, nbytes, now = args
        bump("simnet.link_bytes", nbytes)
        if "->" in link.name:
            tr.xlink_wait_ms.append(max(0, link.busy_until - now) / 1e6)

    method(simnet.LinkState, "charge", lambda f: count(
        f, "simnet.charge_calls", before=before_charge))

    # broker
    method(broker.BrokerEndpoint, "publish", lambda f: span(
        f, "simnet.dispatch", after=lambda a, r: bump("broker.fanout_total", r)))
    method(broker.BrokerEndpoint, "snapshot", lambda f: span(f, "broker.snapshot"))
    method(broker.BrokerEndpoint, "invoke", lambda f: span(f, _invoke_name))

    def after_subscribe(args, handle):
        if handle.kind == broker.SUB_BRIDGE:
            bump("flow.bridges_installed")

    def after_unsubscribe(args, removed):
        if removed and args[1].kind == broker.SUB_BRIDGE:
            bump("flow.bridges_removed")

    method(broker.BrokerEndpoint, "subscribe", lambda f: count(
        f, "broker.subscribe_calls", after=after_subscribe))
    method(broker.BrokerEndpoint, "unsubscribe", lambda f: count(
        f, "broker.unsubscribe_calls", after=after_unsubscribe))

    # flow: reconcile by engine layer, table, dedupe
    def reconcile_name(args):
        return "flow.reconcile." + tr.table_layer.get(id(args[0]), "unknown")

    def after_reconcile(args, required):
        table = args[0]
        bump("flow.reconcile_entries_scanned", len(table.entries))
        if tr.last_required.get(id(table)) != required:
            bump("flow.reconcile_useful")
        tr.last_required[id(table)] = required

    function(flow, "compute_required_bridges",
             lambda f: span(f, reconcile_name, after=after_reconcile))

    def after_store(args, changed):
        bump("flow.store_calls")
        bump("flow.store_changed", int(changed))

    method(flow.FlowTable, "store", lambda f: span(f, "flow.table", after=after_store))
    for attr in ("remove_contributor", "lookup", "topics", "contributions", "advertisers_at"):
        method(flow.FlowTable, attr, lambda f: span(f, "flow.table"))
    method(flow.DedupeWindow, "test_and_record", lambda f: count(
        f, "flow.dedupe_checks", after=lambda a, r: bump("flow.dedupe_drops", int(not r))))

    # ratelimit: admission by client layer, allocation, registration sync
    def acquire_name(args):
        return "ratelimit.acquire." + tr.client_layer(args[0].client)

    def after_acquire(args, granted):
        bump("ratelimit.grants", int(granted))
        bump(f"ratelimit.client.{args[0].client}.acquire_calls")

    method(ratelimit.HierarchicalLimiter, "try_acquire",
           lambda f: span(f, acquire_name, after=after_acquire))
    method(ratelimit.HierarchicalLimiter, "sync_publishers", lambda f: span(
        f, "ratelimit.sync", after=lambda a, r: bump("ratelimit.sync_changed", int(r))))
    method(ratelimit.HierarchicalLimiter, "observe_size",
           lambda f: span(f, "ratelimit.observe_size"))
    function(ratelimit, "allocate", lambda f: span(f, "ratelimit.allocate"))

    # codec
    def after_compress(args, result):
        blob, orig = result
        bump("codec.bytes_in", orig)
        bump("codec.bytes_out", len(blob))
        bump("codec.kept", int(len(blob) < orig))

    function(codec, "compress", lambda f: span(f, "codec.compress", after=after_compress))
    function(codec, "decompress", lambda f: span(f, "codec.decompress"))

    # scenario: workload generation inside the run
    function(scenario, "make_payload", lambda f: span(
        f, "scenario.payload", after=lambda a, r: bump("scenario.payload_bytes", len(r))))

    # monitor
    method(monitor.MetricsRegistry, "inc", lambda f: span(f, "monitor.inc"))
    method(monitor.MetricsRegistry, "observe", lambda f: span(f, "monitor.observe"))
    function(monitor, "export_metrics", lambda f: span(f, "monitor.export"))

    # sdk
    method(sdk.ServiceHost, "publish", lambda f: span(f, "sdk.publish"))
    method(sdk.ServiceHost, "start_service", lambda f: span(f, "sdk.start_service"))
    method(sdk.ServiceHost, "stop_service", lambda f: span(f, "sdk.stop_service"))

    # configstore
    method(configstore.ConfigWorker, "sync_now", lambda f: span(f, "configstore.sync"))
    method(configstore.ConfigWorker, "apply_snapshot", lambda f: span(f, "configstore.apply"))
    method(configstore.ConfigWorker, "get_config", lambda f: span(f, "configstore.get"))

    # tracing (the program's own event trace)
    method(tracing.Trace, "record", lambda f: span(f, "tracing.record"))

    # topology: envelope builds and declaration decodes
    method(topology.MessageEnvelope, "__post_init__",
           lambda f: count(f, "topology.envelopes"))
    from_obj = topology.FlowDeclaration.__dict__["from_obj"].__func__
    topology.FlowDeclaration.from_obj = classmethod(count(from_obj, "topology.decl_decodes"))

    # report
    function(report, "write_summary", lambda f: span(f, "report.summary"))
    function(report, "write_links", lambda f: span(f, "report.links"))
    function(report, "write_bridges", lambda f: span(f, "report.bridges"))
    for attr in ("placement_rows", "digest_lines", "write_placement_compare"):
        function(report, attr, lambda f: span(f, "report.other"))


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an already sorted list (0 when empty)."""
    if not sorted_values:
        return 0.0
    rank = max(1, -(-len(sorted_values) * q // 100))
    return sorted_values[int(rank) - 1]


def layer_metrics(tr: Tracer, worlds: list,
                  layers=("edge", "fog", "cloud")) -> tuple[dict, dict]:
    """The per-layer metrics of one traced process (see README.md), and
    the per-span-name totals they were computed from."""
    spans = tr.span_totals()
    c = tr.counts

    def calls(prefix: str) -> int:
        return sum(v["calls"] for k, v in spans.items() if k == prefix or k.startswith(prefix + "."))

    def self_s(prefix: str) -> float:
        return sum(v["self_s"] for k, v in spans.items() if k == prefix or k.startswith(prefix + "."))

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    publish_calls = calls("simnet.dispatch")
    reconcile_calls = calls("flow.reconcile")
    acquire_calls = calls("ratelimit.acquire")
    compress_calls = calls("codec.compress")
    gauge_samples = 0
    for w in worlds:
        reg = w.registry
        for name in {p.name for p in reg.snapshot() if p.kind == "gauge"}:
            gauge_samples += sum(len(s) for s in reg.gauge_sets(name).values())
    waits = sorted(tr.xlink_wait_ms)
    root = spans.get("runner.run_scenario", {"incl_s": 0.0, "self_s": 0.0})

    m = {
        "simnet.events": sum(w.clock.events_processed for w in worlds),
        "simnet.loop_self_s": self_s("simnet.loop"),
        "simnet.dispatch_self_s": self_s("simnet.dispatch"),
        "simnet.schedule_calls": c.get("simnet.schedule_calls", 0),
        "simnet.link_bytes": c.get("simnet.link_bytes", 0),
        "simnet.xlink_wait_ms_p50": percentile(waits, 50),
        "simnet.xlink_wait_ms_p99": percentile(waits, 99),
        "broker.publish_calls": publish_calls,
        "broker.snapshot_calls": calls("broker.snapshot"),
        "broker.snapshot_s": self_s("broker.snapshot"),
        "broker.fanout_mean": ratio(c.get("broker.fanout_total", 0), publish_calls),
        "flow.reconcile_calls": reconcile_calls,
        "flow.reconcile_s": self_s("flow.reconcile"),
        "flow.reconcile_useful_frac": ratio(c.get("flow.reconcile_useful", 0), reconcile_calls),
        "flow.reconcile_entries_scanned": c.get("flow.reconcile_entries_scanned", 0),
        "flow.store_calls": c.get("flow.store_calls", 0),
        "flow.store_changed_frac": ratio(c.get("flow.store_changed", 0), c.get("flow.store_calls", 0)),
        "flow.table_s": self_s("flow.table"),
        "flow.control_s": self_s("flow.control"),
        "flow.bridge_s": self_s("flow.bridge"),
        "flow.dedupe_checks": c.get("flow.dedupe_checks", 0),
        "flow.dedupe_drop_frac": ratio(c.get("flow.dedupe_drops", 0), c.get("flow.dedupe_checks", 0)),
        "flow.bridges_installed": c.get("flow.bridges_installed", 0),
        "flow.bridges_removed": c.get("flow.bridges_removed", 0),
    }
    for layer in layers:
        m[f"flow.{layer}.reconcile_s"] = self_s(f"flow.reconcile.{layer}")
    for layer in layers:
        m[f"flow.{layer}.bridge_s"] = self_s(f"flow.bridge.{layer}")
    m.update({
        "ratelimit.acquire_calls": acquire_calls,
        "ratelimit.grant_frac": ratio(c.get("ratelimit.grants", 0), acquire_calls),
        "ratelimit.acquire_s": self_s("ratelimit.acquire"),
        "ratelimit.allocate_calls": calls("ratelimit.allocate"),
        "ratelimit.allocate_s": self_s("ratelimit.allocate"),
        "ratelimit.sync_calls": calls("ratelimit.sync"),
        "ratelimit.sync_changed_frac": ratio(c.get("ratelimit.sync_changed", 0), calls("ratelimit.sync")),
        "codec.compress_calls": compress_calls,
        "codec.compress_s": self_s("codec.compress"),
        "codec.bytes_in": c.get("codec.bytes_in", 0),
        "codec.saved_frac": ratio(c.get("codec.bytes_in", 0) - c.get("codec.bytes_out", 0),
                                  c.get("codec.bytes_in", 0)),
        "codec.kept_frac": ratio(c.get("codec.kept", 0), compress_calls),
        "codec.decompress_calls": calls("codec.decompress"),
        "codec.decompress_s": self_s("codec.decompress"),
        "scenario.payload_calls": calls("scenario.payload"),
        "scenario.payload_bytes": c.get("scenario.payload_bytes", 0),
        "scenario.payload_s": self_s("scenario.payload"),
        "scenario.parse_s": self_s("scenario.parse"),
        "monitor.inc_calls": calls("monitor.inc"),
        "monitor.inc_s": self_s("monitor.inc"),
        "monitor.observe_calls": calls("monitor.observe"),
        "monitor.observe_s": self_s("monitor.observe"),
        "monitor.gauge_samples": gauge_samples,
        "monitor.export_s": self_s("monitor.export"),
        "sdk.publish_calls": calls("sdk.publish"),
        "sdk.publish_s": self_s("sdk.publish"),
        "sdk.deliver_s": self_s("sdk.deliver"),
        "sdk.received": sum(h.received for w in worlds for h in w.handles.values()),
        "sdk.duplicates": sum(len(w.host.violations) for w in worlds),
        "sdk.start_service_s": self_s("sdk.start_service"),
        "configstore.sync_calls": calls("configstore.sync"),
        "configstore.apply_s": self_s("configstore.apply"),
        "configstore.control_s": self_s("configstore.control"),
        "tracing.records": calls("tracing.record"),
        "tracing.record_s": self_s("tracing.record"),
        "topology.envelopes": c.get("topology.envelopes", 0),
        "topology.decl_decodes": c.get("topology.decl_decodes", 0),
        "report.summary_s": self_s("report.summary"),
        "report.links_s": self_s("report.links"),
        "report.bridges_s": self_s("report.bridges"),
        "runner.issues_s": self_s("runner.issues"),
        "runner.drain_events": c.get("runner.drain_events", 0),
        "trace.total_s": root["incl_s"],
        "trace.residual_s": root["self_s"],
    })
    return m, spans
