"""Edge-side telemetry agent: samples the platform, publishes snapshots,
applies feedback actions received from the cloud.

The agent is a single sampling loop.  Incoming actions are enqueued by the
receive path and drained at tick boundaries, so every snapshot reflects one
consistent platform state and bounded runs replay deterministically.
"""

from __future__ import annotations

import hashlib
import json
import logging
import threading
import time
from collections import deque
from dataclasses import dataclass, replace
from enum import Enum

from . import bus
from .bandwidth import DEFAULT_TRACE_CONFIG, NetTrace, Placement
from .simulator import Platform, builtin_profiles
from .telemetry import (
    DeviceIdentity,
    SHA256_HEX_RE,
    TelemetrySnapshot,
    bounded,
    check_bounds,
    encode_snapshot,
    from_doc,
    to_doc,
)

log = logging.getLogger(__name__)

__all__ = [
    "ActionKind",
    "ActionMessage",
    "ActionError",
    "ActionResult",
    "encode_action",
    "decode_action",
    "AgentConfig",
    "AgentReport",
    "PublishDown",
    "DirectPublisher",
    "BusPublisher",
    "ModelNotFound",
    "StoreUnavailable",
    "fetch_model",
    "TelemetryAgent",
]

SNAPSHOT_BUFFER_SIZE = 64
RECONNECT_BASE_S = 0.5
RECONNECT_CAP_S = 8.0

PLACEMENT_TAGS = {Placement.EDGE: "@edge", Placement.DEVICE: "@device"}


class ActionKind(str, Enum):
    STEP_FREQUENCY_DOWN = "StepFrequencyDown"
    STEP_FREQUENCY_UP = "StepFrequencyUp"
    SWAP_MODEL = "SwapModel"
    SET_PLACEMENT = "SetPlacement"


class ActionError(ValueError):
    """Malformed action message."""


@dataclass(frozen=True)
class ActionMessage:
    """A feedback command dispatched by the cloud to one device."""

    action: ActionKind
    rule_id: str
    issued_at_ms: int
    seq: int
    model_id: str | None = None
    expected_digest: str | None = None
    placement: Placement | None = None

    def __post_init__(self):
        if self.action == ActionKind.SWAP_MODEL:
            if not self.model_id:
                raise ActionError("SwapModel requires model_id")
            if not (self.expected_digest and SHA256_HEX_RE.fullmatch(self.expected_digest)):
                raise ActionError("SwapModel requires a 64-hex expected_digest")
        if self.action == ActionKind.SET_PLACEMENT and self.placement is None:
            raise ActionError("SetPlacement requires placement")


_ACTION_ENCODER = json.JSONEncoder(separators=(",", ":"))


def encode_action(msg: ActionMessage) -> bytes:
    return _ACTION_ENCODER.encode(to_doc(msg)).encode("utf-8")


def decode_action(data: bytes) -> ActionMessage:
    try:
        doc = json.loads(data)
    except (ValueError, RecursionError) as e:  # also bytes in no UTF encoding, and deep nesting
        raise ActionError(f"invalid action JSON: {e}") from None
    return from_doc(ActionMessage, doc, ActionError)


@dataclass(frozen=True)
class ActionResult:
    message: ActionMessage
    applied: bool
    reason: str = ""

    REJECT_AT_BOUND = "at_bound"
    REJECT_INTEGRITY = "integrity"
    REJECT_NOT_FOUND = "not_found"
    REJECT_STORE_DOWN = "store_down"
    REJECT_UNSUPPORTED = "unsupported"


@dataclass(frozen=True)
class AgentConfig:
    device: DeviceIdentity
    sample_period_ms: int = bounded(1000, ge=10)
    max_ticks: int | None = bounded(None, gt=0)

    __post_init__ = check_bounds


@dataclass
class AgentReport:
    ticks: int
    published: int
    dropped_snapshots: int
    actions_applied: int
    actions_rejected: int
    final_fps: float
    final_power_w: float
    final_model_id: str
    placement: str | None


class PublishDown(Exception):
    """The publish path is currently unavailable; snapshot should be buffered."""


class DirectPublisher:
    """In-process publish path used by the scenario harness and tests."""

    def __init__(self, deliver):
        self._deliver = deliver
        self.down = False

    def publish(self, topic: str, payload: bytes) -> None:
        if self.down:
            raise PublishDown("publish path down (injected outage)")
        self._deliver(topic, payload)

    def close(self) -> None:
        pass


class BusPublisher:
    """Publish path over a broker session, reconnecting on demand.

    ``on_action(ActionMessage)`` is invoked from the session receive thread
    for every message on the device's action topic; a reconnect re-subscribes.
    """

    def __init__(self, broker_address: tuple, device_id: str, on_action=None):
        self._address = broker_address
        self._device_id = device_id
        self._on_action = on_action
        self._session = None

    def _handle_action(self, _topic: str, payload: bytes) -> None:
        if self._on_action is None:
            return
        try:
            self._on_action(decode_action(payload))
        except ActionError as e:
            log.warning("dropping malformed action for %s: %s", self._device_id, e)

    def _ensure_session(self):
        if self._session is not None and not self._session.closed:
            return self._session
        session = bus.connect(self._address, self._device_id)
        session.subscribe(f"actions/{self._device_id}", self._handle_action)
        self._session = session
        return session

    def publish(self, topic: str, payload: bytes) -> None:
        try:
            self._ensure_session().publish(topic, payload)
        except (bus.BusError, OSError) as e:
            raise PublishDown(str(e)) from e

    def close(self) -> None:
        if self._session is not None:
            self._session.close()
            self._session = None


class ModelNotFound(Exception):
    pass


class StoreUnavailable(Exception):
    pass


def fetch_model(store_address: tuple, model_id: str) -> tuple:
    """Download a model blob; returns (blob, server-claimed digest).

    ``bus.CLIENT_TIMEOUT_S`` bounds each socket operation.  The caller
    verifies the digest it expects against the actual blob bytes.
    """
    try:
        status, headers, blob = bus._http_request(store_address, "GET", f"/models/{model_id}")
    except OSError as e:
        raise StoreUnavailable(f"model store unreachable: {e}") from e
    if status == 404:
        raise ModelNotFound(model_id)
    if status != 200:
        raise StoreUnavailable(f"model store returned {status}")
    return blob, headers.get("x-model-digest", "")


class TelemetryAgent:
    """The device-resident loop: advance, sample, publish, apply feedback.

    ``publisher`` provides publish(topic, bytes) raising :class:`PublishDown`
    on outage; ``fetch_fn(model_id) -> (blob, digest)`` resolves model
    downloads.  ``clock_ms`` paces reconnect backoff and stamps the action
    log; it defaults to the platform's simulated clock, which tracks wall
    time in a paced :meth:`run` loop and keeps bounded runs deterministic.
    """

    def __init__(
        self,
        cfg: AgentConfig,
        platform: Platform,
        publisher,
        fetch_fn=None,
        net_source: NetTrace | None = None,
        profiles: dict | None = None,
        clock_ms=None,
    ):
        self.cfg = cfg
        self.platform = platform
        self.publisher = publisher
        self.fetch_fn = fetch_fn
        self.net_source = net_source if net_source is not None else NetTrace(DEFAULT_TRACE_CONFIG)
        self.profiles = profiles if profiles is not None else builtin_profiles()
        self._clock_ms = clock_ms if clock_ms is not None else (lambda: platform.sim_time_ms)

        self.placement: Placement | None = None
        self.ticks = 0
        self.published = 0
        self.dropped_snapshots = 0
        self.action_log: list = []  # (time_ms, ActionResult)
        self._queue: deque = deque()
        self._qlock = threading.Lock()
        self._buffer: deque = deque(maxlen=SNAPSHOT_BUFFER_SIZE)
        self._backoff_s = 0.0
        self._retry_at_ms = float("-inf")
        self.topic = f"telemetry/{cfg.device.device_id}"

    # -- action intake (any thread)

    def enqueue_action(self, msg: ActionMessage) -> None:
        with self._qlock:
            self._queue.append(msg)

    # -- feedback actions

    def apply_action(self, msg: ActionMessage) -> ActionResult:
        """Apply one action; a rejected action leaves the platform untouched."""
        if msg.action in (ActionKind.STEP_FREQUENCY_DOWN, ActionKind.STEP_FREQUENCY_UP):
            step = -1 if msg.action == ActionKind.STEP_FREQUENCY_DOWN else 1
            target = self.platform.level.index + step
            if not 0 <= target < len(self.platform.config.levels):
                return ActionResult(msg, applied=False, reason=ActionResult.REJECT_AT_BOUND)
            self.platform.set_level(target)
            return ActionResult(msg, applied=True)

        if msg.action == ActionKind.SWAP_MODEL:
            profile = self.profiles.get(msg.model_id)
            if profile is None or self.fetch_fn is None:
                return ActionResult(msg, applied=False, reason=ActionResult.REJECT_NOT_FOUND)
            if not self.platform.config.runs(profile.base_latency_ms):
                return ActionResult(msg, applied=False, reason=ActionResult.REJECT_UNSUPPORTED)
            try:
                blob, _claimed = self.fetch_fn(msg.model_id)
            except ModelNotFound:
                return ActionResult(msg, applied=False, reason=ActionResult.REJECT_NOT_FOUND)
            except StoreUnavailable:
                return ActionResult(msg, applied=False, reason=ActionResult.REJECT_STORE_DOWN)
            if hashlib.sha256(blob).hexdigest() != msg.expected_digest:
                return ActionResult(msg, applied=False, reason=ActionResult.REJECT_INTEGRITY)
            self.platform.load_model(profile)
            return ActionResult(msg, applied=True)

        # SetPlacement: the decision is executed by tagging; inference stays
        # simulated on this platform either way.
        self.placement = msg.placement
        return ActionResult(msg, applied=True)

    def _drain_actions(self) -> None:
        while True:
            with self._qlock:
                if not self._queue:
                    return
                msg = self._queue.popleft()
            result = self.apply_action(msg)
            self.action_log.append((self._clock_ms(), result))
            if not result.applied:
                log.info("action %s rejected: %s", msg.action.value, result.reason)

    # -- snapshot publishing with outage buffering

    def _tag_placement(self, snapshot: TelemetrySnapshot) -> TelemetrySnapshot:
        if self.placement is None:
            return snapshot
        tagged = snapshot.model.model_id + PLACEMENT_TAGS[self.placement]
        return replace(snapshot, model=replace(snapshot.model, model_id=tagged))

    def _publish_or_buffer(self, payload: bytes) -> None:
        now = self._clock_ms()
        if now < self._retry_at_ms:
            self._buffer_snapshot(payload)
            return
        try:
            while self._buffer:
                self.publisher.publish(self.topic, self._buffer[0])
                self._buffer.popleft()
                self.published += 1
            self.publisher.publish(self.topic, payload)
            self.published += 1
            self._backoff_s = 0.0
        except PublishDown as e:
            self._buffer_snapshot(payload)
            self._backoff_s = min(RECONNECT_CAP_S, self._backoff_s * 2 if self._backoff_s else RECONNECT_BASE_S)
            self._retry_at_ms = now + self._backoff_s * 1000.0
            log.warning("publish down (%s); retry in %.1fs, %d buffered", e, self._backoff_s, len(self._buffer))

    def _buffer_snapshot(self, payload: bytes) -> None:
        if len(self._buffer) == self._buffer.maxlen:
            self.dropped_snapshots += 1  # deque drops the oldest on append
        self._buffer.append(payload)

    # -- the loop

    def tick(self) -> TelemetrySnapshot:
        """One sampling cycle: apply queued actions, advance, sample, publish."""
        self._drain_actions()
        self.platform.advance(self.cfg.sample_period_ms)
        net, _true_dl = self.net_source.tick()
        snapshot = self._tag_placement(self.platform.sample(self.cfg.device, net))
        self._publish_or_buffer(encode_snapshot(snapshot))
        self.ticks += 1
        return snapshot

    def run(self) -> AgentReport:
        """Wall-clock loop; bounded by ``max_ticks`` when configured."""
        period_s = self.cfg.sample_period_ms / 1000.0
        next_at = time.monotonic()
        try:
            while self.cfg.max_ticks is None or self.ticks < self.cfg.max_ticks:
                self.tick()
                next_at += period_s
                delay = next_at - time.monotonic()
                if delay > 0:
                    time.sleep(delay)
        finally:
            self.publisher.close()
        return self.report()

    def report(self) -> AgentReport:
        applied = sum(1 for _, r in self.action_log if r.applied)
        rejected = len(self.action_log) - applied
        return AgentReport(
            ticks=self.ticks,
            published=self.published,
            dropped_snapshots=self.dropped_snapshots,
            actions_applied=applied,
            actions_rejected=rejected,
            final_fps=self.platform.fps(),
            final_power_w=self.platform.power_w(),
            final_model_id=self.platform.active_model.model_id,
            placement=self.placement.value if self.placement is not None else None,
        )
