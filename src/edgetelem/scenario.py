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
from .simulator import BUILTIN_LATENCY_MS, Platform, builtin_profiles, config_from_dict, make_model_blob
from .telemetry import DeviceIdentity, bounded, check_bounds, from_doc

__all__ = ["ScenarioError", "FaultSpec", "ScenarioSpec", "load_scenario", "run_scenario"]

FAULT_KINDS = ("BrokerDown", "CorruptModelBlob", "DelayShim")


class ScenarioError(ValueError):
    pass


@dataclass(frozen=True)
class FaultSpec:
    """One injected fault, active while ``at_tick <= tick < at_tick + duration_ticks``.

    A ``duration_ticks`` of 0 keeps the fault active to the end of the run.
    ``dist``, a DelayShim's delay spec string such as ``normal:50:5``, is
    parsed into ``delay_spec``, an attribute outside the dataclass fields.
    """

    at_tick: int = bounded(ge=0)
    kind: str
    duration_ticks: int = bounded(0, ge=0)
    dist: str | None = None

    def __post_init__(self):
        if self.kind not in FAULT_KINDS:
            raise ScenarioError(f"unknown fault kind {self.kind!r}")
        check_bounds(self)
        if self.kind == "BrokerDown" and self.duration_ticks < 1:
            raise ScenarioError("BrokerDown requires duration_ticks >= 1")
        if self.kind == "DelayShim" and self.dist is None:
            raise ScenarioError("DelayShim requires a delay distribution")
        if self.kind != "DelayShim" and self.dist is not None:
            raise ScenarioError(f"{self.kind} takes no dist")
        object.__setattr__(self, "delay_spec", None if self.dist is None else DelaySpec.parse(self.dist))


@dataclass(frozen=True)
class ScenarioSpec:
    name: str
    seed: int
    ticks: int = bounded(gt=0)
    trace: dict
    platform: dict = field(default_factory=dict)
    rules: dict = field(default_factory=dict)
    sample_period_ms: int = bounded(1000, ge=10)
    device_id: str = "dev0"
    initial_model_id: str = "yolov3"
    faults: tuple[FaultSpec, ...] = ()

    def __post_init__(self):
        check_bounds(self)
        if self.initial_model_id not in BUILTIN_LATENCY_MS:
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
    unless the document sets its own.  The platform must run the initial model.
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
    platform, latency_ms = configs[0], BUILTIN_LATENCY_MS[spec.initial_model_id]
    if not platform.runs(latency_ms):
        raise ScenarioError(
            f"initial_model_id: {spec.initial_model_id}'s base_latency_ms ({latency_ms}) "
            f"must exceed the platform's cpu_overhead_ms ({platform.cpu_overhead_ms})"
        )
    return tuple(configs)


class _LogicalClock:
    """The scenario's one time source: the current tick and the time in ms."""

    def __init__(self):
        self.tick = 0
        self.now_ms = 0

    def __call__(self) -> int:
        return self.now_ms


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

    def _active(kind: str, tick: int) -> int | None:
        """Index in ``spec.faults`` of the ``kind`` fault applied at ``tick``, or None.

        A fault is active from ``at_tick`` for ``duration_ticks`` ticks, or to the end of the run when that is 0.
        Of the active faults of ``kind``, the one that started last applies; on a tie, the one listed last.
        """
        active = [
            (fault.at_tick, i)
            for i, fault in enumerate(spec.faults)
            if fault.kind == kind and fault.at_tick <= tick < fault.at_tick + (fault.duration_ticks or spec.ticks)
        ]
        return max(active)[1] if active else None

    delivered = []  # every action the cloud delivered to the agent, in dispatch order

    def dispatcher(device_id: str, message) -> None:
        if device_id == spec.device_id:
            delivered.append(message)
            agent.enqueue_action(message)

    draws = {}  # DelayShim number k draws from its own stream, so one shim's draws do not depend on the others
    for i, fault in enumerate(spec.faults):
        if fault.kind == "DelayShim":
            draws[i] = fault.delay_spec.sampler(spec.seed + 2 + len(draws))

    def cloud_clock() -> int:
        # The cloud reads its clock once per ingest, so each ingest draws one delay.
        shim = _active("DelayShim", clock.tick)
        return clock.now_ms if shim is None else clock.now_ms + int(round(draws[shim]() * 1000.0))

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
        if _active("CorruptModelBlob", clock.tick) is not None:
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

    period = spec.sample_period_ms
    for tick in range(spec.ticks):
        clock.tick = tick
        publisher.down = _active("BrokerDown", tick) is not None
        clock.now_ms = (tick + 1) * period
        agent.tick()

    agent_report = agent.report()
    report = _build_report(spec, delivered, cloud, agent, agent_report, period)
    (out / "report.json").write_text(json.dumps(report, indent=2) + "\n")
    return report


def _build_report(spec, delivered: list, cloud: CloudService, agent: TelemetryAgent, agent_report, period: int) -> dict:
    results_by_seq = {result.message.seq: (t_ms, result) for t_ms, result in agent.action_log}
    actions = []
    for message in delivered:
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
