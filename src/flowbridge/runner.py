"""Scenario execution: wire a world together, run it, write reports.

`World` assembles a complete deployment over the simulated network: one
flow engine, heartbeat registry and config worker per layer, the main
config store on the most central layer, and a service host for user
services.  `run_scenario` drives one or more worlds (one per placement
when the scenario sweeps a service across nodes) and writes metrics,
trace, and summary files into the output directory.
"""

from __future__ import annotations

import logging
import random
from pathlib import Path

from . import report
from .configstore import ConfigWorker, MainConfigService, MainConfigStore
from .flow import FlowEngine
from .monitor import (
    PING_TOPIC,
    PONG_TOPIC,
    HeartbeatRegistry,
    MetricsRegistry,
    PingProbe,
    export_metrics,
)
from .scenario import ProbesSpec, Scenario, ServiceSpec, StreamSpec, load_scenario, make_payload
from .sdk import READY, Advertise, ServiceHandle, ServiceHost
from .simnet import SECOND, Network, SimClock, ns_from_s
from .topology import SequenceCounter, Topology, build_topology, load_topology
from .tracing import Trace

log = logging.getLogger(__name__)

# hard ceiling on post-run drain work; a healthy world goes idle in a
# tiny fraction of this, so hitting it means runaway forwarding
DRAIN_EVENT_BUDGET = 5_000_000

PROBE_PAYLOAD_SIZE = 128


class WorldError(RuntimeError):
    """Raised when a world cannot be assembled or run."""


class _StreamDriver:
    """Publishes one advertised stream at its declared rate.

    A ``random`` or ``zeros`` stream draws one frame, on its first tick,
    and publishes that same frame every tick after. The stream's RNG feeds
    nothing else, and nothing downstream reads such a frame's bytes:
    dedupe, accounting and the limiter key on topic, origin, sequence and
    size, and a random frame does not compress, so the original bytes are
    shipped either way. A ``compressible`` stream draws a fresh frame per
    tick, because its compressed sizes reach the metrics.
    """

    def __init__(self, world: "World", service: str, stream: StreamSpec,
                 rng: random.Random, stop_at: int | None):
        self.world = world
        self.service = service
        self.stream = stream
        self.rng = rng
        self.stop_at = stop_at
        self.period_ns = max(1, round(SECOND / stream.rate_hz))
        self.sent = 0
        self.frame: bytes | None = None  # the frame every tick reuses, once drawn

    def tick(self) -> None:
        world = self.world
        if not world.running:
            return
        handle = world.handles.get(self.service)
        if handle is None or handle.state != READY:
            return
        now = world.clock.now
        if self.stop_at is not None and now > self.stop_at:
            return
        payload = self.frame
        if payload is None:
            payload = make_payload(self.stream.payload, self.stream.size, self.rng)
            if self.stream.payload != "compressible":
                self.frame = payload
        world.host.publish(handle, self.stream.topic, payload)
        self.sent += 1
        world.clock.call_in(self.period_ns, self.tick)


class World:
    """A fully wired simulated deployment."""

    def __init__(
        self,
        topology: Topology,
        links: dict | None = None,
        seed: int = 0,
        config: dict | None = None,
        trace_path: str | Path | None = None,
    ):
        self.topology = topology
        self.seed = seed
        self.clock = SimClock()
        self.rng = random.Random(seed)
        self.trace = Trace()
        self.registry = MetricsRegistry(self.clock)
        self.network = Network(topology, self.clock, self.rng,
                               self.registry, self.trace, links)
        self.heartbeats = {
            l.name: HeartbeatRegistry(self.clock, self.registry, self.trace, l.name)
            for l in topology.layers
        }
        self.seqs = {n.name: SequenceCounter() for n in topology.nodes}

        self.store = MainConfigStore(topology, layer_defaults=config)
        home = topology.most_central_layer.name
        self.config_main = MainConfigService(
            self.store, self.network, self._system_seq(home))
        self.workers: dict[str, ConfigWorker] = {}
        self.engines: dict[str, FlowEngine] = {}
        for l in topology.layers:
            worker = ConfigWorker(l.name, self.network, self._system_seq(l.name),
                                  layer_defaults=config)
            self.workers[l.name] = worker
            self.engines[l.name] = FlowEngine(
                l.name, self.network, self.heartbeats[l.name],
                self._system_seq(l.name),
                config=lambda w=worker, ln=l.name: w.get_config("layer", ln).body,
            )
        self.host = ServiceHost(
            self.network, self.engines, self.heartbeats, self.seqs,
            flow_config=lambda ln: self.workers[ln].get_config("layer", ln).body["flow"],
        )
        self.handles: dict[str, ServiceHandle] = {}
        self.drivers: list[_StreamDriver] = []
        self.probes: list[PingProbe] = []
        self.running = False
        self._started = False
        self.trace.open(trace_path)  # last: a world that rejects its input leaves no file

    def _system_seq(self, layer: str) -> SequenceCounter:
        return self.seqs[self.topology.system_node(layer).name]

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        if self._started:
            return
        self._started = True
        self.running = True
        self.config_main.start()
        for layer in self.engines:
            self.engines[layer].start()
            self.workers[layer].start()

    def run_for(self, duration_s: float) -> None:
        self.clock.run_until(self.clock.now + ns_from_s(duration_s))

    def drain(self, max_events: int = DRAIN_EVENT_BUDGET) -> int:
        """Wind the world down and let the event queue empty out.

        Recurring timers are gated off but nothing unsubscribes, so every
        in-flight message still lands somewhere it gets accounted.
        """
        self.running = False
        self.host.active = False
        for engine in self.engines.values():
            engine.running = False
        for worker in self.workers.values():
            worker.running = False
        processed = self.clock.run_until_idle(max_events)
        self.trace.close()
        return processed

    # -- scenario assembly ---------------------------------------------------

    def setup_scenario(self, scenario: Scenario,
                       placement: dict[str, str] | None = None) -> None:
        """Install the scenario's services; `placement` maps service names
        to overriding node names (used by sweeps)."""
        for spec in scenario.services:
            node = (placement or {}).get(spec.name, spec.node)
            seeds = [self.rng.randrange(2**63) for _ in spec.advertises]
            if spec.start_s <= 0:
                self._start_spec(spec, node, seeds)
            else:
                self.clock.schedule(ns_from_s(spec.start_s),
                                    self._start_spec, spec, node, seeds)
            if spec.stop_s is not None:
                self.clock.schedule(ns_from_s(spec.stop_s),
                                    self._stop_named, spec.name)
        if scenario.probes is not None:
            self.enable_probes(scenario.probes)

    def _start_spec(self, spec: ServiceSpec, node: str, seeds: list[int]) -> None:
        handle = self.host.start_service(
            node, spec.name,
            advertises=[Advertise(s.topic, s.rate_hz, s.size) for s in spec.advertises],
            requests=spec.requests,
            external=spec.external,
        )
        self.handles[spec.name] = handle
        stop_at = None if spec.stop_s is None else ns_from_s(spec.stop_s)
        for stream, seed in zip(spec.advertises, seeds):
            if stream.rate_hz <= 0:
                continue
            driver = _StreamDriver(self, spec.name, stream,
                                   random.Random(seed), stop_at)
            self.drivers.append(driver)
            self.clock.call_in(driver.period_ns, driver.tick)

    def _stop_named(self, name: str) -> None:
        handle = self.handles.get(name)
        if handle is not None and handle.state == READY:
            self.host.stop_service(handle)

    def enable_probes(self, probes: ProbesSpec) -> None:
        """Run one latency probe per node, riding the regular topic fabric."""
        names = list(probes.nodes) or [n.name for n in self.topology.nodes]
        nodes = [self.topology.node(n) for n in names]
        period = ns_from_s(probes.ping_period_s)
        timeout = ns_from_s(probes.ping_timeout_s)
        per_cycle = max(1, len(nodes) - 1)
        count = len(nodes)
        for i, node in enumerate(nodes):
            service = f"__probe/{node.name}"
            targets = [t for t in nodes if t != node]
            # diagonal schedule: no node sends a burst, and no node's
            # replies burst either, so probe traffic never trips the
            # per-message grant budget of the bridges it rides
            offsets = [
                ((i - j - 1) % count) * period // count
                for j, t in enumerate(nodes) if t != node
            ]
            probe = PingProbe(
                node, targets,
                publish=(lambda topic, payload, s=service:
                         self.host.publish(self.handles[s], topic, payload)),
                clock=self.clock, registry=self.registry,
                period_ns=period, timeout_ns=timeout, offsets=offsets,
            )
            rate = per_cycle / probes.ping_period_s
            self.handles[service] = self.host.start_service(
                node.name, service,
                advertises=[Advertise(PING_TOPIC, rate, PROBE_PAYLOAD_SIZE),
                            Advertise(PONG_TOPIC, rate, PROBE_PAYLOAD_SIZE)],
                requests=[PING_TOPIC, PONG_TOPIC],
                on_message={PING_TOPIC: probe.on_ping, PONG_TOPIC: probe.on_pong},
                internal=True,
            )
            self.probes.append(probe)
            # first cycle one period in, once announcements have settled
            self.clock.call_in(period, self._probe_tick, probe)

    def _probe_tick(self, probe: PingProbe) -> None:
        if not self.running:
            return
        probe.cycle()
        self.clock.call_in(probe.period_ns, self._probe_tick, probe)

    # -- verification ---------------------------------------------------------

    def accounting(self) -> list[dict]:
        """Per-topic conservation: offered splits exactly into delivered
        plus the three drop reasons. Only valid after drain()."""
        totals = [self.registry.totals(name, "topic") for name in (
            "flow.offered", "flow.delivered", "flow.drop.loss",
            "flow.drop.dedupe", "flow.drop.limiter")]
        rows = []
        for topic in sorted(totals[0]):
            offered, delivered, loss, dedupe, limiter = (t.get(topic, 0) for t in totals)
            rows.append({
                "topic": topic, "offered": offered, "delivered": delivered,
                "loss": loss, "dedupe": dedupe, "limiter": limiter,
                "balance": offered - delivered - loss - dedupe - limiter,
            })
        return rows

    def issues(self) -> list[str]:
        """Invariant violations observed by this world; empty when clean."""
        out = []
        for scope, topic, err in self.network.endpoint_errors():
            out.append(f"callback error on {scope} topic {topic!r}: {err}")
        for v in self.host.violations:
            out.append(
                f"duplicate delivery to {v['service']}@{v['node']}: "
                f"topic {v['topic']} origin {v['origin']} seq {v['seq']}"
            )
        for row in self.accounting():
            if row["balance"] != 0:
                out.append(
                    "accounting imbalance on {topic}: offered {offered} != "
                    "delivered {delivered} + loss {loss} + dedupe {dedupe} "
                    "+ limiter {limiter}".format(**row)
                )
        return out


def _resolve_topology(topology_ref: str | None,
                      scenario: Scenario) -> tuple[Topology, dict]:
    if topology_ref:
        return load_topology(topology_ref)
    if scenario.topology is not None:
        topology = build_topology(scenario.topology)
        return topology, scenario.topology.get("links", {})
    raise WorldError(
        "no topology given and the scenario does not embed one")


def run_scenario(
    topology_ref: str | None,
    scenario_ref: str,
    seed: int | None = None,
    out_dir: str = ".",
    duration_override: float | None = None,
) -> int:
    """Run a scenario (all placements when it sweeps); returns an exit code:
    0 for a clean run, 3 when an invariant was violated."""
    scenario = load_scenario(scenario_ref)
    topology, links = _resolve_topology(topology_ref, scenario)
    run_seed = scenario.seed if seed is None else seed
    duration = duration_override if duration_override else scenario.duration_s
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    if scenario.sweep is not None:
        placements: list[str | None] = list(scenario.sweep.nodes)
    else:
        placements = [None]

    all_issues: list[str] = []
    compare_rows: list[dict] = []
    for placement in placements:
        run_dir = out if placement is None else out / f"placement-{placement}"
        run_dir.mkdir(parents=True, exist_ok=True)
        override = None
        if placement is not None:
            override = {scenario.sweep.service: placement}
        log.info("run %s seed=%d duration=%.3fs placement=%s",
                 scenario.name, run_seed, duration, placement or "default")

        trace_path = run_dir / "trace.jsonl"
        world = World(topology, links, run_seed, config=scenario.config,
                      trace_path=trace_path)
        world.start()
        world.setup_scenario(scenario, override)
        world.run_for(duration)
        world.drain()

        issues = world.issues()
        tag = placement or "default"
        all_issues.extend(f"[{tag}] {msg}" for msg in issues)

        with open(run_dir / "metrics.txt", "wb") as fh:
            export_metrics(world.registry, fh)
        report.write_summary(run_dir / "summary.csv", world.registry, duration)
        report.write_links(run_dir / "links.csv", world.registry,
                           world.network, duration)
        report.write_bridges(run_dir / "bridges.csv", trace_path)
        compare_rows.extend(report.placement_rows(tag, world.registry, duration))
        for line in report.digest_lines(world.registry, duration):
            log.info("  %s", line)
        for msg in issues:
            log.error("  invariant: %s", msg)

    if scenario.sweep is not None:
        report.write_placement_compare(out / "placement_compare.csv", compare_rows)

    return 3 if all_issues else 0
