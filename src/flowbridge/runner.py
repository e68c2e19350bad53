"""Scenario execution: wire a world together, run it, write reports.

`World` assembles a complete deployment over the simulated network: one
flow engine (which holds the layer's heartbeat registry) and config
worker per layer, the main config store on the most central layer, and
a service host for user services.  `run_scenario` binds the scenario to
its topology once, in a `plan`, and runs one world per placement of it
(one per node when the scenario sweeps a service across nodes), writing
metrics, trace, and summary files into the output directory.
"""

from __future__ import annotations

import logging
import random
from functools import partial
from pathlib import Path
from typing import NamedTuple

from . import report
from .configstore import ConfigWorker, MainConfigService, MainConfigStore, resolve_layer_config
from .flow import FlowEngine
from .monitor import MetricsRegistry, PingProbe, export_metrics, ping_topic, pong_topic
from .scenario import (
    ProbesSpec, Scenario, ScenarioError, ServiceSpec, StreamSpec, load_scenario, make_payload,
)
from .sdk import READY, Advertise, ServiceHandle, ServiceHost
from .simnet import SECOND, Network, SimClock, ns_from_s
from .topology import MAX_NS, MAX_S, Topology, TopologyError, build_topology, load_topology
from .tracing import Trace

log = logging.getLogger(__name__)

# hard ceiling on post-run drain work, in clock events: the copies of one
# publish that share a link and an arrival time are one event, so this
# counts events, not copies; a healthy world goes idle in a tiny fraction
# of this, so hitting it means runaway forwarding
DRAIN_EVENT_BUDGET = 5_000_000

PROBE_PAYLOAD_SIZE = 128


class WorldError(RuntimeError):
    """Raised for a scenario that does not fit its topology, or has none."""


class Plan(NamedTuple):
    """A scenario bound to its topology: every layer's resolved config, shared
    read-only by the run's worlds, and each world's overriding service nodes by tag."""

    configs: dict[str, dict]
    placements: dict[str, dict[str, str]]
    duration_s: float


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

    def __init__(self, host: ServiceHost, handle: ServiceHandle, stream: StreamSpec,
                 rng: random.Random):
        self.host = host
        self.handle = handle
        self.stream = stream
        self.rng = rng
        self.period_ns = round(SECOND / stream.rate_hz)  # >= 1: see StreamSpec
        self.frame: bytes | None = None  # the frame every tick reuses, once drawn

    def tick(self) -> int | None:
        if self.handle.state != READY:
            return None
        payload = self.frame
        if payload is None:
            payload = make_payload(self.stream.payload, self.stream.size, self.rng)
            if self.stream.payload != "compressible":
                self.frame = payload
        self.host.publish(self.handle, self.stream.topic, payload)
        return self.period_ns


class World:
    """A fully wired simulated deployment.

    Each component takes its shared context from the `Network`: the
    clock, metrics, trace and every node's sequence counter
    (``network.seqs``). Each layer's `FlowEngine` owns the layer's
    `HeartbeatRegistry` and reads the layer's config through its
    `ConfigWorker`; the `ServiceHost` takes only the network and the
    engines.
    """

    def __init__(
        self,
        topology: Topology,
        seed: int = 0,
        configs: dict[str, dict] | None = None,
        trace_path: str | Path | None = None,
    ):
        """``configs``: every layer's resolved config (`Plan.configs`); None for defaults."""
        self.topology = topology
        self.clock = SimClock()
        self.rng = random.Random(seed)
        self.trace = Trace()
        self.registry = MetricsRegistry(self.clock)
        self.network = Network(topology, self.clock, self.rng, self.registry, self.trace)

        configs = configs or {l: resolve_layer_config({}) for l in topology.layers}
        self.store = MainConfigStore(topology)
        self.config_main = MainConfigService(self.store, self.network)
        self.workers: dict[str, ConfigWorker] = {}
        self.engines: dict[str, FlowEngine] = {}
        for l in topology.layers:
            worker = self.workers[l] = ConfigWorker(l, self.network, configs[l])
            self.engines[l] = FlowEngine(
                l, self.network, config=lambda w=worker: w.get_config().body)
        self.host = ServiceHost(self.network, self.engines)
        self.handles: dict[str, ServiceHandle] = {}
        self.trace.open(trace_path)  # last: a world that rejects its input leaves no file

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        """Start the control plane; call once."""
        self.config_main.start()
        for layer in self.engines:
            self.engines[layer].start()
            self.workers[layer].start()

    def run_for(self, duration_s: float) -> None:
        self.clock.run_until(self.clock.now + ns_from_s(duration_s))

    def drain(self, max_events: int = DRAIN_EVENT_BUDGET) -> int:
        """Wind the world down and let the event queue empty out.

        The clock ends every recurring timer, but nothing unsubscribes, so
        every in-flight message still lands somewhere it gets accounted.
        """
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
        for stream, seed in zip(spec.advertises, seeds):
            if stream.rate_hz <= 0:
                continue
            driver = _StreamDriver(self.host, handle, stream, random.Random(seed))
            self.clock.every(driver.period_ns, driver.tick)

    def _stop_named(self, name: str) -> None:
        self.host.stop_service(self.handles[name])

    def enable_probes(self, probes: ProbesSpec) -> None:
        """Run one latency probe per node, riding the regular topic fabric."""
        names = list(probes.nodes) or [n.name for n in self.topology.nodes]
        nodes = [self.topology.node(n) for n in names]
        period = ns_from_s(probes.ping_period_s)
        timeout = ns_from_s(probes.ping_timeout_s)
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
                node, targets, publish=None,  # bound below, to the probe's own service
                clock=self.clock, registry=self.registry,
                period_ns=period, timeout_ns=timeout, offsets=offsets,
            )
            # one ping and one pong per peer and cycle, each on a topic
            # only the addressed probe requests
            rate = 1 / probes.ping_period_s
            own_ping, own_pong = ping_topic(node.key), pong_topic(node.key)
            handle = self.handles[service] = self.host.start_service(
                node.name, service,
                advertises=[Advertise(topic, rate, PROBE_PAYLOAD_SIZE) for t in targets
                            for topic in (ping_topic(t.key), pong_topic(t.key))],
                requests=[own_ping, own_pong],
                on_message={own_ping: probe.on_ping, own_pong: probe.on_pong},
                internal=True,
            )
            probe.publish = partial(self.host.publish, handle)
            # first cycle one period in, once announcements have settled
            self.clock.every(period, probe.cycle)

    # -- verification ---------------------------------------------------------

    def accounting(self) -> list[dict]:
        """Per-topic conservation: offered splits exactly into delivered
        plus the three drop reasons. Only valid after drain()."""
        totals = report.conservation_totals(self.registry)
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
        if self.clock.now > MAX_NS:
            # a link so slow that a message outlasts the clock's range:
            # nothing else fails at such a time, so this is the one report
            out.append(f"virtual time ran to {self.clock.now} ns, past the clock's "
                       f"range of {MAX_NS} ns")
        for scope, topic, err, n in self.network.endpoint_errors():
            out.append(f"callback error on {scope} topic {topic!r}: {err} ({n}x)")
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


def _resolve_topology(topology_ref: str | None, scenario: Scenario) -> Topology:
    if topology_ref:
        return load_topology(topology_ref)
    if scenario.topology is not None:
        return build_topology(scenario.topology)
    raise WorldError(
        "no topology given and the scenario does not embed one")


def plan(scenario: Scenario, topology: Topology, duration_s: float) -> Plan:
    """Bind ``scenario`` to ``topology`` for worlds of ``duration_s``: the
    one place that checks the two documents against each other. Rejects,
    before any world runs, a scenario naming a node or a config layer the
    topology lacks or an external scope its layer does not have, or
    starting a service after the run's end. A stop after the end lands in
    the drain."""
    if unknown := sorted(set(scenario.config) - set(topology.layers)):
        raise WorldError(f"config for unknown layers: {unknown}")
    for spec in scenario.services:
        if ns_from_s(spec.start_s) > ns_from_s(duration_s):
            raise WorldError(f"service {spec.name!r}: start_s {spec.start_s:g} is "
                             f"after the run's end at {duration_s:g} s")
    sweep = scenario.sweep
    placements = ({node: {sweep.service: node} for node in sweep.nodes} if sweep
                  else {"default": {}})
    placed = [(f"service {spec.name!r}", placement.get(spec.name, spec.node), spec.external)
              for placement in placements.values() for spec in scenario.services]
    if scenario.probes is not None:
        placed += [("probes", node, False) for node in scenario.probes.nodes]
    for where, name, external in placed:
        try:
            node = topology.node(name)
            if external:
                topology.external_scope(node.layer)
        except TopologyError as exc:
            raise WorldError(f"{where}: {exc}") from None
    configs = {l: scenario.config.get(l) or resolve_layer_config({}) for l in topology.layers}
    return Plan(configs, placements, duration_s)


def run_scenario(
    topology_ref: str | None,
    scenario_ref: str,
    seed: int | None = None,
    out_dir: str = ".",
    duration_override: float | None = None,
) -> int:
    """Run a scenario (all placements when it sweeps); returns an exit code:
    0 for a clean run, 3 when an invariant was violated."""
    if duration_override is not None and not 0 < duration_override <= MAX_S:
        raise ScenarioError(f"--duration-override must be a finite number > 0 and at most "
                            f"{MAX_S:.4g} s")
    scenario = load_scenario(scenario_ref)
    topology = _resolve_topology(topology_ref, scenario)
    run = plan(scenario, topology,
               scenario.duration_s if duration_override is None else duration_override)
    run_seed = scenario.seed if seed is None else seed
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    all_issues: list[str] = []
    compare_rows: list[dict] = []
    for tag, placement in run.placements.items():
        run_dir = out / f"placement-{tag}" if placement else out
        run_dir.mkdir(parents=True, exist_ok=True)
        log.info("run %s seed=%d duration=%.3fs placement=%s",
                 scenario.name, run_seed, run.duration_s, tag)

        world = World(topology, run_seed, run.configs, trace_path=run_dir / "trace.jsonl")
        world.start()
        world.setup_scenario(scenario, placement)
        world.run_for(run.duration_s)
        world.drain()

        issues = world.issues()
        all_issues.extend(f"[{tag}] {msg}" for msg in issues)

        with open(run_dir / "metrics.txt", "wb") as fh:
            export_metrics(world.registry, fh)
        rows = report.write_summary(run_dir / "summary.csv", world.registry, run.duration_s)
        report.write_links(run_dir / "links.csv", world.registry, topology, run.duration_s)
        report.write_bridges(run_dir / "bridges.csv", world.network.bridge_events)
        compare_rows.extend(report.placement_rows(tag, rows))
        for line in report.digest_lines(rows):
            log.info("  %s", line)
        for msg in issues:
            log.error("  invariant: %s", msg)

    if scenario.sweep is not None:
        report.write_placement_compare(out / "placement_compare.csv", compare_rows)

    return 3 if all_issues else 0
