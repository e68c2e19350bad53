"""Every flowbridge function is called by some run of the program, or is
listed here with the reason no run calls it. A function that no run
needs and no reason keeps is to be deleted, not listed."""

from census import census

CONFIG_PUSH = "the config push path; no document can push a layer config yet (ROADMAP item 9)"
CRASH = "the crash path; no document can crash a service yet (ROADMAP item 9)"
PERFBENCH = "the benchmark tracer wraps it by name (perfbench/tracer.py)"
DEBUG = "for reading in a debugger or a failed assertion"

UNREACHED = {
    "configstore:MainConfigStore.put": CONFIG_PUSH,
    "configstore:canonical": CONFIG_PUSH,
    "configstore:diff_paths": CONFIG_PUSH,
    "configstore:ConfigDocument.to_obj": CONFIG_PUSH,
    "configstore:ConfigDocument.from_obj": CONFIG_PUSH,
    "configstore:ConfigWorker._notify": CONFIG_PUSH,
    "flow:FlowEngine._on_config_notice": CONFIG_PUSH,
    "ratelimit:HierarchicalLimiter.reconfigure": CONFIG_PUSH,
    "sdk:ServiceHost.kill_service": CRASH,
    "flow:FlowEngine._withdraw_dead": CRASH,
    "flow:FlowTable.contributions": CRASH,
    "flow:DedupeWindow.seen": "the delivery check asks it only when `record` refuses: "
                              "only a duplicate or an out-of-window arrival reaches it",
    "broker:BrokerEndpoint.snapshot": PERFBENCH,
    "flow:FlowTable.lookup": PERFBENCH,
    "flow:FlowTable.topics": PERFBENCH,
    "monitor:MetricsRegistry.snapshot": "perfbench's worker and tracer read the metrics with it",
    "monitor:MetricPoint.__init__": "only `MetricsRegistry.snapshot` builds one",
    "topology:FrozenRecord.__setattr__": "refuses assignment to a node or declaration that "
                                         "engines share; no run assigns to one",
    "broker:SubscriberHandle.__repr__": DEBUG,
    "sdk:ServiceHandle.__repr__": DEBUG,
    "topology:BrokerScope.__str__": DEBUG,
}


def test_every_function_is_called_or_has_a_reason(tmp_path):
    called = census(tmp_path)
    assert not set(UNREACHED) - set(called), "allow-listed names that no longer exist"
    assert sorted(n for n in UNREACHED if called[n]) == [], "called now: take off the list"
    assert sorted(n for n, hit in called.items() if not hit and n not in UNREACHED) == []
