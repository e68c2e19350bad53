"""Distributed configuration: main store, per-layer workers, notices.

The main store lives on the most central layer and owns versioned
documents keyed by (scope, subject): layer, node, or service configs.
Each layer runs a worker that pulls the relevant documents over the
inter-layer bus each sync period and serves reads locally; reads fall
back to built-in defaults (revision 0) until a stored document arrives.
After applying a newer revision the worker publishes one
ConfigChangeNotice on its layer's intra-layer scope listing the changed
key paths, which is what drives live reconfiguration (for example the
flow engine re-running its rate-limit allocation).
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass
from typing import Any, Iterable

from .broker import SUB_CONTROL
from .ratelimit import RateLimitConfig
from .simnet import Network, ns_from_s
from .topology import (
    CONFIG_NOTICE,
    CONFIG_REPLY,
    CONFIG_REQUEST,
    MessageEnvelope,
    SequenceCounter,
    Topology,
    control_envelope,
)

log = logging.getLogger(__name__)

SCOPES = ("layer", "node", "service")

# periods that re-arm a timer: zero would re-fire at the same instant forever
_POSITIVE = (("flow", "heartbeat_s"), ("flow", "heartbeat_ttl_s"),
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
    one). Timer periods must be > 0; ``flow.reannounce_s`` may be 0,
    which switches re-announce off. ``flow.heartbeat_ttl_s`` must cover
    both the heartbeat and the watchdog period.
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
            if (isinstance(value, bool) or not isinstance(value, kind)
                    or (isinstance(value, float) and not math.isfinite(value))):
                raise ConfigError(f"{section}.{key} must be a finite "
                                  f"{'integer' if kind is int else 'number'}, got {value!r}")
    cfg = merge_config(base, overrides)
    for section, key in _POSITIVE:
        if cfg[section][key] <= 0:
            raise ConfigError(f"{section}.{key} must be > 0")
    flow = cfg["flow"]
    if flow["reannounce_s"] < 0:
        raise ConfigError("flow.reannounce_s must be >= 0 (0 switches it off)")
    if flow["heartbeat_ttl_s"] < max(flow["heartbeat_s"], flow["watchdog_s"]):
        raise ConfigError("flow.heartbeat_ttl_s must be >= flow.heartbeat_s and "
                          "flow.watchdog_s, or live heartbeats lapse between refreshes")
    try:
        RateLimitConfig.from_obj(cfg["rate_limit"])
    except ValueError as exc:
        raise ConfigError(f"rate_limit: {exc}") from None
    return cfg


class _LayerDefaults:
    """Revision-0 bodies: each layer's resolved config, {} for the rest."""

    def __init__(self, topology: Topology, layer_defaults: dict[str, dict] | None):
        overrides = layer_defaults or {}
        unknown = set(overrides) - {l.name for l in topology.layers}
        if unknown:
            raise ConfigError(f"defaults for unknown layers: {sorted(unknown)}")
        self._layer_defaults = {
            l.name: resolve_layer_config(overrides.get(l.name, {}))
            for l in topology.layers
        }

    def default_body(self, scope: str, subject: str) -> dict:
        if scope == "layer":
            defaults = self._layer_defaults.get(subject)
            if defaults is None:
                raise ConfigError(f"unknown layer {subject!r}")
            return json.loads(canonical(defaults))
        return {}


@dataclass(frozen=True)
class ConfigDocument:
    scope: str
    subject: str
    revision: int
    body: dict

    def to_obj(self) -> dict:
        return {"scope": self.scope, "subject": self.subject,
                "revision": self.revision, "body": self.body}

    @classmethod
    def from_obj(cls, obj: dict) -> "ConfigDocument":
        return cls(obj["scope"], obj["subject"], obj["revision"], obj["body"])


@dataclass(frozen=True)
class ConfigChangeNotice:
    scope: str
    subject: str
    revision: int
    changed_paths: tuple[str, ...]

    def to_obj(self) -> dict:
        return {"scope": self.scope, "subject": self.subject,
                "revision": self.revision, "changed_paths": list(self.changed_paths)}


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


class MainConfigStore(_LayerDefaults):
    """Authoritative document set with monotonic per-document revisions."""

    def __init__(self, topology: Topology, layer_defaults: dict[str, dict] | None = None):
        super().__init__(topology, layer_defaults)
        self.topology = topology
        self.docs: dict[tuple[str, str], ConfigDocument] = {}

    def _validate_subject(self, scope: str, subject: str) -> None:
        if scope not in SCOPES:
            raise ConfigError(f"scope must be one of {SCOPES}, got {scope!r}")
        if scope == "layer":
            self.topology.layer(subject)
        elif scope == "node":
            self.topology.node(subject)
        elif not subject:
            raise ConfigError("empty service subject")

    @staticmethod
    def _validate_body(scope: str, subject: str, body: object) -> None:
        """A layer document replaces the layer's whole config, so it must be
        complete and pass `resolve_layer_config` unchanged."""
        if scope != "layer":
            return
        try:
            missing = diff_paths(body, resolve_layer_config(body))
        except ConfigError as exc:
            raise ConfigError(f"layer {subject!r}: {exc}") from None
        if missing:
            raise ConfigError(f"layer {subject!r}: incomplete layer document, "
                              f"missing {', '.join(missing)}")

    def put(self, scope: str, subject: str, body: dict) -> ConfigDocument:
        """Store a new revision; a byte-identical body is a no-op."""
        self._validate_subject(scope, subject)
        self._validate_body(scope, subject, body)
        text = canonical(body)
        current = self.docs.get((scope, subject))
        if current is not None and canonical(current.body) == text:
            return current
        revision = (current.revision if current else 0) + 1
        doc = ConfigDocument(scope, subject, revision, json.loads(text))
        self.docs[(scope, subject)] = doc
        log.info("config put %s/%s rev %d", scope, subject, revision)
        return doc

    def get(self, scope: str, subject: str) -> ConfigDocument:
        self._validate_subject(scope, subject)
        doc = self.docs.get((scope, subject))
        if doc is not None:
            return doc
        return ConfigDocument(scope, subject, 0, self.default_body(scope, subject))

    def snapshot_for_layer(self, layer: str) -> list[ConfigDocument]:
        """Stored documents relevant to one layer: its own, its nodes',
        and every service document."""
        self.topology.layer(layer)
        node_names = {n.name for n in self.topology.nodes_in(layer)}
        out = []
        for (scope, subject), doc in sorted(self.docs.items()):
            if scope == "layer" and subject != layer:
                continue
            if scope == "node" and subject not in node_names:
                continue
            out.append(doc)
        return out


class MainConfigService:
    """Messaging front-end for the main store, living on the home layer."""

    def __init__(self, store: MainConfigStore, network: Network, seq: SequenceCounter):
        self.store = store
        self.network = network
        self.clock = network.clock
        self.seq = seq
        self.registry = network.metrics
        self.home_layer = store.topology.most_central_layer.name
        self.node = store.topology.system_node(self.home_layer)
        self._endpoint = network.endpoint(store.topology.inter_layer_scope(self.home_layer))
        self._sub = None

    def start(self) -> None:
        if self._sub is None:
            self._sub = self._endpoint.subscribe(
                CONFIG_REQUEST, self._on_request, kind=SUB_CONTROL, owner="__config-main")

    def stop(self) -> None:
        if self._sub is not None:
            self._endpoint.unsubscribe(self._sub)
            self._sub = None

    def _on_request(self, env: MessageEnvelope) -> None:
        req = json.loads(env.payload)
        if req.get("op") != "pull":
            return
        docs = self.store.snapshot_for_layer(req["layer"])
        reply = {"corr": req["corr"], "docs": [d.to_obj() for d in docs]}
        self._endpoint.publish(control_envelope(
            CONFIG_REPLY, reply, self.node, self.seq, self.clock.now))
        self.registry.inc("config.pulls", {"layer": req["layer"]})


class ConfigWorker(_LayerDefaults):
    """Per-layer replica: periodic pull, local reads, change notices."""

    def __init__(self, layer: str, network: Network, seq: SequenceCounter,
                 layer_defaults: dict[str, dict] | None = None):
        topology = network.topology
        super().__init__(topology, layer_defaults)
        self.layer = topology.layer(layer).name
        self.topology = topology
        self.network = network
        self.clock = network.clock
        self.seq = seq
        self.registry = network.metrics
        self.trace = network.trace
        self.node = topology.system_node(self.layer)
        self.replica: dict[tuple[str, str], ConfigDocument] = {}
        self.notices_sent = 0
        self.running = False
        self._subs: list = []
        self._pending: dict[str, None] = {}  # unanswered correlation ids, as an ordered set
        self._corr = 0
        self._inter = network.endpoint(topology.inter_layer_scope(self.layer))
        self._intra = network.endpoint(topology.intra_layer_scope(self.layer))

    # -- reads -----------------------------------------------------------

    def get_config(self, scope: str, subject: str) -> ConfigDocument:
        doc = self.replica.get((scope, subject))
        if doc is not None:
            return doc
        return ConfigDocument(scope, subject, 0, self.default_body(scope, subject))

    # -- sync loop ---------------------------------------------------------

    def start(self) -> None:
        if self.running:
            return
        self.running = True
        self._subs.append(self._inter.subscribe(
            CONFIG_REPLY, self._on_reply, kind=SUB_CONTROL, owner=f"__config-worker/{self.layer}"))
        self._sync_tick()

    def stop(self) -> None:
        self.running = False
        for h in self._subs:
            self.network.endpoint(h.scope).unsubscribe(h)
        self._subs.clear()

    def _sync_tick(self) -> None:
        if not self.running:
            return
        self._pending.clear()  # a reply still missing after a whole period was lost
        self.sync_now()
        # re-read at every pull, so a pushed period applies from the next one
        period_s = self.get_config("layer", self.layer).body["config"]["sync_period_s"]
        self.clock.call_in(ns_from_s(period_s), self._sync_tick)

    def sync_now(self) -> str:
        """Issue one pull request; returns its correlation id."""
        self._corr += 1
        corr = f"{self.layer}:{self._corr}"
        self._pending[corr] = None
        body = {"op": "pull", "layer": self.layer, "corr": corr}
        self._inter.publish(control_envelope(
            CONFIG_REQUEST, body, self.node, self.seq, self.clock.now))
        return corr

    def _on_reply(self, env: MessageEnvelope) -> None:
        body = json.loads(env.payload)
        if body.get("corr") not in self._pending:
            return  # someone else's pull, or one given up as lost
        del self._pending[body["corr"]]
        docs = [ConfigDocument.from_obj(o) for o in body.get("docs", ())]
        self.apply_snapshot(docs)

    def apply_snapshot(self, docs: Iterable[ConfigDocument]) -> int:
        """Apply newer revisions; emits one notice per changed document."""
        applied = 0
        for doc in docs:
            key = (doc.scope, doc.subject)
            have = self.replica.get(key)
            if have is not None and have.revision >= doc.revision:
                continue
            old_body = have.body if have is not None else self.default_body(doc.scope, doc.subject)
            changed = diff_paths(old_body, doc.body)
            self.replica[key] = doc
            applied += 1
            self._notify(ConfigChangeNotice(doc.scope, doc.subject, doc.revision, tuple(changed)))
        if applied:
            self.registry.inc("config.applied", {"layer": self.layer}, applied)
        return applied

    def _notify(self, notice: ConfigChangeNotice) -> None:
        self._intra.publish(control_envelope(
            CONFIG_NOTICE, notice.to_obj(), self.node, self.seq, self.clock.now))
        self.notices_sent += 1
        self.registry.inc("config.notices", {"layer": self.layer})
        self.trace.record("config_notice", self.clock.now, layer=self.layer,
                          scope=notice.scope, subject=notice.subject,
                          revision=notice.revision, changed=list(notice.changed_paths))
