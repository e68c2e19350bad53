"""Distributed configuration: main store, per-layer workers, notices.

The main store lives on the most central layer and owns one versioned
document per layer: that layer's whole config. Each layer runs a worker
that pulls its layer's document over the inter-layer bus each sync
period and serves reads locally. Until a stored document arrives, a
worker serves its layer's resolved config at revision 0. After applying
a newer revision the worker publishes one change notice on its layer's
intra-layer scope listing the changed key paths, which is what drives
live reconfiguration (for example the flow engine re-running its
rate-limit allocation).
"""

from __future__ import annotations

import json
import logging
from typing import Any, Iterable

from .ratelimit import RateLimitConfig
from .simnet import Network, ns_from_s
from .topology import (
    CONFIG_NOTICE,
    CONFIG_REPLY,
    CONFIG_REQUEST,
    MAX_S,
    MIN_PERIOD_S,
    MessageEnvelope,
    Record,
    Topology,
    control_envelope,
    control_payload,
    finite_number,
)

log = logging.getLogger(__name__)

# periods that re-arm a timer, and the TTL that must cover two of them
_PERIODS = (("flow", "heartbeat_s"), ("flow", "heartbeat_ttl_s"),
            ("flow", "watchdog_s"), ("config", "sync_period_s"))


def default_layer_config() -> dict[str, Any]:
    return {
        "rate_limit": RateLimitConfig().to_obj(),
        "flow": {
            "reannounce_s": 10.0,
            "heartbeat_s": 1.0,
            "heartbeat_ttl_s": 3.0,
            "watchdog_s": 1.0,
        },
        "config": {"sync_period_s": 5.0},
    }


def merge_config(base: dict, override: dict) -> dict:
    """Recursive dict merge; override wins on leaves."""
    out = dict(base)
    for k, v in override.items():
        if isinstance(v, dict) and isinstance(out.get(k), dict):
            out[k] = merge_config(out[k], v)
        else:
            out[k] = v
    return out


class ConfigError(ValueError):
    pass


def resolve_layer_config(overrides: object) -> dict[str, Any]:
    """One layer's config: ``overrides`` merged onto the defaults, checked.

    Every section and key must exist in ``default_layer_config()`` and
    every value must be a finite number (an integer where the default is
    one). Timer periods must be from `topology.MIN_PERIOD_S` (1 ns) to
    `topology.MAX_S`; ``flow.reannounce_s`` may be 0, which switches
    re-announce off.
    ``flow.heartbeat_ttl_s`` must cover both the heartbeat and the
    watchdog period.
    """
    if not isinstance(overrides, dict):
        raise ConfigError(f"layer config must be an object, got {type(overrides).__name__}")
    base = default_layer_config()
    for section, values in overrides.items():
        if section not in base:
            raise ConfigError(f"unknown config section {section!r}")
        if not isinstance(values, dict):
            raise ConfigError(f"{section} must be an object, got {type(values).__name__}")
        for key, value in values.items():
            if key not in base[section]:
                raise ConfigError(f"unknown config key {section}.{key}")
            kind = int if isinstance(base[section][key], int) else (int, float)
            if not finite_number(value, kind):
                raise ConfigError(f"{section}.{key} must be a finite "
                                  f"{'integer' if kind is int else 'number'}, got {value!r}")
    cfg = merge_config(base, overrides)
    for section, key in _PERIODS:
        if cfg[section][key] < MIN_PERIOD_S:
            raise ConfigError(f"{section}.{key} must be at least 1 ns, got {cfg[section][key]!r}")
    for section in ("flow", "config"):  # every key there is a period in seconds
        for key, value in cfg[section].items():
            if value > MAX_S:
                raise ConfigError(f"{section}.{key} must be at most {MAX_S:.4g} s, got {value!r}")
    flow = cfg["flow"]
    if flow["reannounce_s"] != 0 and flow["reannounce_s"] < MIN_PERIOD_S:
        raise ConfigError("flow.reannounce_s must be 0 (off) or at least 1 ns, "
                          f"got {flow['reannounce_s']!r}")
    if flow["heartbeat_ttl_s"] < max(flow["heartbeat_s"], flow["watchdog_s"]):
        raise ConfigError("flow.heartbeat_ttl_s must be >= flow.heartbeat_s and "
                          "flow.watchdog_s, or live heartbeats lapse between refreshes")
    try:
        RateLimitConfig.from_obj(cfg["rate_limit"])
    except ValueError as exc:
        raise ConfigError(f"rate_limit: {exc}") from None
    return cfg


def resolve_layers(topology: Topology,
                   overrides: dict[str, object] | None) -> dict[str, dict[str, Any]]:
    """Every layer's resolved config: ``overrides`` maps layer names to
    `resolve_layer_config` overrides; a layer without an entry gets the
    defaults."""
    overrides = overrides or {}
    unknown = set(overrides) - set(topology.layers)
    if unknown:
        raise ConfigError(f"defaults for unknown layers: {sorted(unknown)}")
    return {l: resolve_layer_config(overrides.get(l, {})) for l in topology.layers}


class ConfigDocument(Record):
    __slots__ = FIELDS = ("layer", "revision", "body")

    def __init__(self, layer: str, revision: int, body: dict) -> None:
        self.layer = layer
        self.revision = revision
        self.body = body

    def to_obj(self) -> dict:
        return {"layer": self.layer, "revision": self.revision, "body": self.body}

    @classmethod
    def from_obj(cls, obj: dict) -> "ConfigDocument":
        return cls(**obj)


def canonical(body: dict) -> str:
    """Canonical JSON text; also validates serializability."""
    try:
        return json.dumps(body, sort_keys=True, separators=(",", ":"))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"config body not JSON-serializable: {exc}") from None


def diff_paths(old: dict, new: dict, prefix: str = "") -> list[str]:
    """Dotted paths whose leaf values differ between two bodies."""
    paths: list[str] = []
    keys = set(old) | set(new)
    for key in sorted(keys):
        path = f"{prefix}{key}"
        a, b = old.get(key), new.get(key)
        if isinstance(a, dict) and isinstance(b, dict):
            paths.extend(diff_paths(a, b, path + "."))
        elif key not in old or key not in new or a != b:
            paths.append(path)
    return paths


class MainConfigStore:
    """Authoritative layer documents with monotonic per-layer revisions."""

    def __init__(self, topology: Topology):
        self.topology = topology
        self.docs: dict[str, ConfigDocument] = {}

    def put(self, layer: str, body: dict) -> ConfigDocument:
        """Store a new revision of a layer's document; a byte-identical body
        is a no-op. The document replaces the layer's whole config, so it
        must be complete and pass `resolve_layer_config` unchanged."""
        self.topology.layer(layer)
        try:
            missing = diff_paths(body, resolve_layer_config(body))
        except ConfigError as exc:
            raise ConfigError(f"layer {layer!r}: {exc}") from None
        if missing:
            raise ConfigError(f"layer {layer!r}: incomplete layer document, "
                              f"missing {', '.join(missing)}")
        text = canonical(body)
        current = self.docs.get(layer)
        if current is not None and canonical(current.body) == text:
            return current
        revision = (current.revision if current else 0) + 1
        doc = ConfigDocument(layer, revision, json.loads(text))
        self.docs[layer] = doc
        log.info("config put %s rev %d", layer, revision)
        return doc


class MainConfigService:
    """Messaging front-end for the main store, living on the home layer."""

    def __init__(self, store: MainConfigStore, network: Network):
        self.store = store
        self.clock = network.clock
        self.registry = network.metrics
        home = store.topology.most_central_layer
        self.node = store.topology.system_node(home)
        self.seq = network.seqs[self.node.name]
        self._endpoint = network.endpoint(store.topology.inter_layer_scope(home))

    def start(self) -> None:
        """Answer pulls from now on; call once."""
        self._endpoint.subscribe(CONFIG_REQUEST, self._on_request, owner="__config-main")

    def _on_request(self, env: MessageEnvelope) -> None:
        req = json.loads(env.payload)
        if req.get("op") != "pull":
            return
        doc = self.store.docs.get(req["layer"])
        reply = {"corr": req["corr"], "docs": [] if doc is None else [doc.to_obj()]}
        self._endpoint.publish(control_envelope(
            CONFIG_REPLY, control_payload(reply), self.node, self.seq, self.clock.now))
        self.registry.inc("config.pulls", {"layer": req["layer"]})


class ConfigWorker:
    """One layer's copy of its document: periodic pull, local reads, change notices."""

    def __init__(self, layer: str, network: Network, layer_config: dict[str, Any]):
        """``layer_config`` is this layer's resolved config (see
        `resolve_layers`), served at revision 0 until a stored layer
        document arrives."""
        topology = network.topology
        self.layer = topology.layer(layer)
        self.doc = ConfigDocument(self.layer, 0, layer_config)
        self.clock = network.clock
        self.registry = network.metrics
        self.trace = network.trace
        self.node = topology.system_node(self.layer)
        self.seq = network.seqs[self.node.name]
        self._pending: dict[str, None] = {}  # unanswered correlation ids, as an ordered set
        self._corr = 0
        self._inter = network.endpoint(topology.inter_layer_scope(self.layer))
        self._intra = network.endpoint(topology.intra_layer_scope(self.layer))

    # -- reads -----------------------------------------------------------

    def get_config(self) -> ConfigDocument:
        """This layer's current document, served without copies: the last
        one pulled, else the resolved config at revision 0."""
        return self.doc

    # -- sync loop ---------------------------------------------------------

    def start(self) -> None:
        """Pull at once, then every sync period; call once."""
        self._inter.subscribe(CONFIG_REPLY, self._on_reply, owner=f"__config-worker/{self.layer}")
        self.clock.every(self._sync_tick(), self._sync_tick)

    def _sync_tick(self) -> int:
        self._pending.clear()  # a reply still missing after a whole period was lost
        self.sync_now()
        # re-read at every pull, so a pushed period applies from the next one
        return ns_from_s(self.get_config().body["config"]["sync_period_s"])

    def sync_now(self) -> str:
        """Issue one pull request; returns its correlation id."""
        self._corr += 1
        corr = f"{self.layer}:{self._corr}"
        self._pending[corr] = None
        body = {"op": "pull", "layer": self.layer, "corr": corr}
        self._inter.publish(control_envelope(
            CONFIG_REQUEST, control_payload(body), self.node, self.seq, self.clock.now))
        return corr

    def _on_reply(self, env: MessageEnvelope) -> None:
        body = json.loads(env.payload)
        if body.get("corr") not in self._pending:
            return  # someone else's pull, or one given up as lost
        del self._pending[body["corr"]]
        docs = [ConfigDocument.from_obj(o) for o in body.get("docs", ())]
        self.apply_snapshot(docs)

    def apply_snapshot(self, docs: Iterable[ConfigDocument]) -> int:
        """Apply newer revisions; emits one notice per applied document."""
        applied = 0
        for doc in docs:
            if doc.revision <= self.doc.revision:
                continue
            changed = diff_paths(self.doc.body, doc.body)
            self.doc = doc
            applied += 1
            self._notify(changed)
        if applied:
            self.registry.inc("config.applied", {"layer": self.layer}, applied)
        return applied

    def _notify(self, changed: list[str]) -> None:
        notice = {"layer": self.layer, "revision": self.doc.revision, "changed_paths": changed}
        self._intra.publish(control_envelope(
            CONFIG_NOTICE, control_payload(notice), self.node, self.seq, self.clock.now))
        self.registry.inc("config.notices", {"layer": self.layer})
        self.trace.record("config_notice", self.clock.now, layer=self.layer,
                          revision=self.doc.revision, changed=changed)
