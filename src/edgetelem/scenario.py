"""Scripted end-to-end scenario runs: broker, cloud, store, agent in-process.

All components are wired directly (function calls instead of sockets) and
driven from one logical clock, so a scenario is fully deterministic: the same
spec and seed produce an identical report and byte-identical lake files.
Fault injections cover publish-path outages, corrupted model downloads, and
an ingest delay shim.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from .agent import AgentConfig, DirectPublisher, TelemetryAgent
from .bandwidth import NetTrace, trace_config_from_dict
from .bus import DelaySpec
from .cloud import CloudService, Lake, ModelStore, Transport, rules_from_dict
from .simulator import BUILTIN_MODEL_IDS, Platform, builtin_profiles, config_from_dict, make_model_blob
from .telemetry import DeviceIdentity, from_doc

__all__ = ["ScenarioError", "FaultSpec", "ScenarioSpec", "load_scenario", "run_scenario"]

FAULT_KINDS = ("BrokerDown", "CorruptModelBlob", "DelayShim")


class ScenarioError(ValueError):
    pass


@dataclass(frozen=True)
class FaultSpec:
    """One injected fault.

    ``dist`` is a delay spec string such as ``normal:50:5``; construction
    parses it into ``delay_spec``, an attribute outside the dataclass fields.
    """

    at_tick: int
    kind: str
    duration_ticks: int = 0
    dist: str | None = None

    def __post_init__(self):
        if self.kind not in FAULT_KINDS:
            raise ScenarioError(f"unknown fault kind {self.kind!r}")
        if self.at_tick < 0:
            raise ScenarioError("at_tick must be >= 0")
        if self.kind == "BrokerDown" and self.duration_ticks < 1:
            raise ScenarioError("BrokerDown requires duration_ticks >= 1")
        if self.kind == "DelayShim" and self.dist is None:
            raise ScenarioError("DelayShim requires a delay distribution")
        object.__setattr__(self, "delay_spec", None if self.dist is None else DelaySpec.parse(self.dist))


@dataclass(frozen=True)
class ScenarioSpec:
    name: str
    seed: int
    ticks: int
    trace: dict
    platform: dict = field(default_factory=dict)
    rules: dict = field(default_factory=dict)
    sample_period_ms: int = 1000
    device_id: str = "dev0"
    initial_model_id: str = "yolov3"
    faults: tuple[FaultSpec, ...] = ()

    def __post_init__(self):
        if self.ticks <= 0:
            raise ScenarioError("ticks must be > 0")
        if self.sample_period_ms < 10:
            raise ScenarioError("sample_period_ms must be >= 10")
        if self.initial_model_id not in BUILTIN_MODEL_IDS:
            raise ScenarioError(f"unknown initial_model_id {self.initial_model_id!r}")
        for fault in self.faults:
            if fault.at_tick >= self.ticks:
                raise ScenarioError(
                    f"fault at_tick {fault.at_tick} must be < ticks {self.ticks}"
                )


def _load_ref(ref: str, base_dir: Path, what: str):
    try:
        return json.loads((base_dir / ref).read_text())
    except OSError as e:
        raise ScenarioError(f"{what} ref {ref!r}: {e}") from None
    except json.JSONDecodeError as e:
        raise ScenarioError(f"{what} ref {ref!r} is not valid JSON: {e}") from None


def scenario_from_dict(doc: dict, base_dir: Path, default_name: str = "scenario") -> ScenarioSpec:
    """Build a ScenarioSpec from parsed JSON.

    ``platform``, ``rules`` and ``trace`` may be file names relative to
    ``base_dir``; ``name`` defaults to ``default_name``.
    """
    if isinstance(doc, dict):
        doc = {"name": default_name, **doc}
        for what in ("platform", "rules", "trace"):
            if isinstance(doc.get(what), str):
                doc[what] = _load_ref(doc[what], base_dir, what)
    spec = from_doc(ScenarioSpec, doc, ScenarioError)
    _configs(spec)  # a bad nested document fails the load, before any output
    return spec


def load_scenario(path) -> ScenarioSpec:
    spec_path = Path(path)
    try:
        doc = json.loads(spec_path.read_text())
    except OSError as e:
        raise ScenarioError(f"cannot read scenario spec: {e}") from None
    except json.JSONDecodeError as e:
        raise ScenarioError(f"scenario spec is not valid JSON: {e}") from None
    return scenario_from_dict(doc, spec_path.parent, default_name=spec_path.stem)


def _configs(spec: ScenarioSpec) -> tuple:
    """The spec's ``platform``, ``trace`` and ``rules`` documents, loaded.

    The platform's noise and the trace are seeded from the scenario's seed
    unless the document sets its own.
    """
    loads = (
        ("platform", config_from_dict, {"noise_seed": spec.seed, **spec.platform}),
        ("trace", trace_config_from_dict, {"seed": spec.seed + 1, **spec.trace}),
        ("rules", rules_from_dict, spec.rules),
    )
    configs = []
    for what, load, doc in loads:
        try:
            configs.append(load(doc))
        except ValueError as e:
            raise ScenarioError(f"{what}: {e}") from None
    return tuple(configs)


class _LogicalClock:
    def __init__(self):
        self.now_ms = 0

    def __call__(self) -> int:
        return self.now_ms


@dataclass
class _Faults:
    broker_down: set = field(default_factory=set)   # tick indexes with outage
    corrupt_from: int | None = None
    delay: FaultSpec | None = None


def _plan_faults(spec: ScenarioSpec) -> _Faults:
    plan = _Faults()
    for fault in spec.faults:
        if fault.kind == "BrokerDown":
            plan.broker_down.update(range(fault.at_tick, fault.at_tick + fault.duration_ticks))
        elif fault.kind == "CorruptModelBlob":
            plan.corrupt_from = fault.at_tick if plan.corrupt_from is None else min(plan.corrupt_from, fault.at_tick)
        elif fault.kind == "DelayShim":
            plan.delay = fault
    return plan


def run_scenario(spec: ScenarioSpec, out_dir) -> dict:
    """Run a scenario to completion; returns the report and writes report.json."""
    platform_cfg, trace_cfg, rules = _configs(spec)
    profiles = builtin_profiles()
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    store = ModelStore.create(
        out / "models",
        {p.model_id: make_model_blob(p.model_id, p.artifact_size_bytes) for p in profiles.values()},
    )

    platform = Platform(platform_cfg, profiles[spec.initial_model_id])
    trace = NetTrace(trace_cfg)
    clock = _LogicalClock()
    faults = _plan_faults(spec)
    state = {"tick": 0}

    agent_holder = {}

    def dispatcher(device_id: str, message) -> None:
        if device_id == spec.device_id:
            agent_holder["agent"].enqueue_action(message)

    cloud_clock = clock
    if faults.delay is not None:
        sampler = faults.delay.delay_spec.sampler(spec.seed + 2)
        delay_from = faults.delay.at_tick

        def cloud_clock() -> int:
            # The cloud reads its clock once per ingest, so each ingest draws one delay.
            now = clock()
            if state["tick"] < delay_from:
                return now
            return now + int(round(sampler(state["tick"]) * 1000.0))

    cloud = CloudService(
        lake=Lake(out / "lake"),
        rules=rules,
        dispatcher=dispatcher,
        store=store,
        clock_ms=cloud_clock,
    )

    publisher = DirectPublisher(lambda _topic, payload: cloud.ingest(payload, Transport.PUBSUB))

    def fetch(model_id: str):
        blob, digest = store.get(model_id)
        if faults.corrupt_from is not None and state["tick"] >= faults.corrupt_from:
            blob = bytes([blob[0] ^ 0xFF]) + blob[1:]
        return blob, digest

    agent = TelemetryAgent(
        cfg=AgentConfig(
            device=DeviceIdentity(device_id=spec.device_id),
            sample_period_ms=spec.sample_period_ms,
        ),
        platform=platform,
        publisher=publisher,
        fetch_fn=fetch,
        net_source=trace,
        profiles=profiles,
        clock_ms=clock,
    )
    agent_holder["agent"] = agent

    period = spec.sample_period_ms
    for tick in range(spec.ticks):
        state["tick"] = tick
        publisher.down = tick in faults.broker_down
        clock.now_ms = (tick + 1) * period
        agent.tick()

    agent_report = agent.report()
    report = _build_report(spec, cloud, agent, agent_report, period)
    (out / "report.json").write_text(json.dumps(report, indent=2) + "\n")
    return report


def _build_report(spec, cloud: CloudService, agent: TelemetryAgent, agent_report, period: int) -> dict:
    results_by_seq = {result.message.seq: (t_ms, result) for t_ms, result in agent.action_log}
    actions = []
    for _device_id, message in cloud.dispatch_log:
        entry = {
            "rule_id": message.rule_id,
            "action": message.action.value,
            "dispatch_tick": message.issued_at_ms // period - 1,
        }
        if message.model_id is not None:
            entry["model_id"] = message.model_id
        if message.placement is not None:
            entry["placement"] = message.placement.value
        hit = results_by_seq.get(message.seq)
        if hit is None:
            entry["status"] = "pending"
        else:
            t_ms, result = hit
            entry["tick"] = t_ms // period - 1
            entry["status"] = "applied" if result.applied else "rejected"
            if result.reason:
                entry["reason"] = result.reason
        actions.append(entry)
    return {
        "name": spec.name,
        "seed": spec.seed,
        "ticks": agent_report.ticks,
        "final_fps": agent_report.final_fps,
        "final_power_w": agent_report.final_power_w,
        "final_model_id": agent_report.final_model_id,
        "placement": agent_report.placement,
        "actions": actions,
        "actions_applied": agent_report.actions_applied,
        "actions_rejected": agent_report.actions_rejected,
        "dispatched": cloud.dispatched,
        "dropped_dispatches": cloud.dropped_dispatches,
        "dead_letters": cloud.dead_letters,
        "published": agent_report.published,
        "dropped_snapshots": agent_report.dropped_snapshots,
        "lake_path": "lake",
    }
