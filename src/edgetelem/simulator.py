"""Deterministic simulation of an FPGA-class edge inference platform.

Models discrete DVFS frequency levels, a static+dynamic power model,
model-dependent inference latency, and first-order thermal relaxation.
Default constants are calibrated so that the shipped ``yolov3`` profile at
top frequency reports 29.4 ms end-to-end latency and 1.48 FPS/Watt, and
``ssd_resnet50_fpn`` reports 200 ms and 0.37 FPS/Watt.

The accelerator peak rate (default 4460 Gops/s) and the absolute power split
(8 W static + 14.98 W dynamic) are calibration assumptions, back-derived
from the latency and FPS/Watt targets above; see README.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass, field

from .telemetry import (
    AppMetrics,
    DeviceIdentity,
    EnergyMetrics,
    ModelMetrics,
    ModelProfile,
    NetworkMetrics,
    TelemetrySnapshot,
    bounded,
    check_bounds,
    fps_per_watt,
    from_doc,
    model_efficiency,
)

__all__ = [
    "ConfigError",
    "FrequencyLevel",
    "ThermalConfig",
    "PlatformConfig",
    "Platform",
    "BUILTIN_MODEL_IDS",
    "BUILTIN_LATENCY_MS",
    "builtin_profiles",
    "make_model_blob",
    "config_from_dict",
]


class ConfigError(ValueError):
    """Invalid platform or profile configuration; names the offending field."""

    def __init__(self, fieldname: str, message: str):
        super().__init__(f"{fieldname}: {message}")
        self.field = fieldname


@dataclass(frozen=True)
class FrequencyLevel:
    index: int
    ratio: float  # fraction of max clock, in (0, 1]


@dataclass(frozen=True)
class ThermalConfig:
    ambient_c: float = 25.0
    heating_coeff_c_per_w: float = bounded(1.0, ge=0.0)
    time_constant_s: float = bounded(30.0, gt=0.0)

    __post_init__ = check_bounds


DEFAULT_LEVEL_RATIOS = (0.25, 0.4, 0.55, 0.7, 0.85, 1.0)


@dataclass(frozen=True)
class PlatformConfig:
    """Simulator constants.  Defaults reproduce the shipped calibration.

    Construction derives ``levels``, one :class:`FrequencyLevel` per entry
    of ``level_ratios``, as an attribute outside the dataclass fields.
    """

    peak_gops_per_s: float = bounded(4460.0, gt=0.0)
    level_ratios: tuple[float, ...] = DEFAULT_LEVEL_RATIOS
    static_power_w: float = bounded(8.0, gt=0.0)
    dynamic_power_max_w: float = bounded(14.98, gt=0.0)
    power_exponent: float = bounded(3.0, ge=1.0)
    cpu_overhead_ms: float = bounded(4.4, ge=0.0)
    thermal: ThermalConfig = field(default_factory=ThermalConfig)
    noise_seed: int = 20210781
    utilization_noise: float = bounded(0.02, ge=0.0, lt=0.5)  # +/- relative noise on reported utilizations
    mem_gbit_per_gop: float = bounded(0.018, ge=0.0)
    mem_utilization_nominal: float = bounded(0.35, ge=0.0, le=1.0)

    def __post_init__(self):
        check_bounds(self)
        if not self.level_ratios:
            raise ConfigError("level_ratios", "must contain at least one frequency level")
        prev = 0.0
        for ratio in self.level_ratios:
            if not prev < ratio <= 1.0:
                raise ConfigError("level_ratios", "ratios must strictly increase within (0, 1]")
            prev = ratio
        if prev != 1.0:
            raise ConfigError("level_ratios", "top level must have ratio exactly 1.0")
        levels = tuple(FrequencyLevel(index=i, ratio=float(r)) for i, r in enumerate(self.level_ratios))
        object.__setattr__(self, "levels", levels)

    def runs(self, base_latency_ms: float) -> bool:
        """Whether a model of this top-clock latency leaves the accelerator any time after the CPU overhead."""
        return base_latency_ms > self.cpu_overhead_ms


# Built-in profiles: (workload Gops/frame, top-frequency latency ms,
# nominal accelerator duty for the power model, artifact size bytes).
# Duty values are back-derived from the calibration power targets.
_BUILTIN_SPECS = {
    "yolov3": (65.63, 29.4, 1.0, 65_630),
    "ssd_resnet50_fpn": (178.4, 200.0, 0.368, 178_400),
}
BUILTIN_MODEL_IDS = tuple(_BUILTIN_SPECS)  # the keys of builtin_profiles(), known without hashing a blob
BUILTIN_LATENCY_MS = {model_id: spec[1] for model_id, spec in _BUILTIN_SPECS.items()}  # and their base_latency_ms


def make_model_blob(model_id: str, size_bytes: int) -> bytes:
    """Deterministic stand-in for a model artifact of the given size."""
    if size_bytes <= 0:
        raise ValueError("size_bytes must be > 0")
    pattern = (model_id + "\x00").encode("utf-8")
    reps = size_bytes // len(pattern) + 1
    return (pattern * reps)[:size_bytes]


_profile_cache: dict = {}


def builtin_profiles() -> dict:
    """The two model profiles shipped with the simulator, keyed by id."""
    if not _profile_cache:
        for model_id, (gops, base_ms, duty, size) in _BUILTIN_SPECS.items():
            digest = hashlib.sha256(make_model_blob(model_id, size)).hexdigest()
            _profile_cache[model_id] = ModelProfile(
                model_id=model_id,
                workload_gops=gops,
                base_latency_ms=base_ms,
                artifact_digest=digest,
                artifact_size_bytes=size,
                accel_utilization=duty,
            )
    return dict(_profile_cache)


def config_from_dict(d: dict) -> PlatformConfig:
    """Build a PlatformConfig from parsed JSON."""
    # A ConfigError takes the key path and the problem apart.
    return from_doc(PlatformConfig, d, lambda message: ConfigError(*message.split(": ", 1)))


class Platform:
    """Single-owner mutable simulation state.

    All mutation goes through :meth:`set_level`, :meth:`load_model`,
    :meth:`advance`, and :meth:`sample`.  Instances may be handed between
    threads but never shared mutably.
    """

    def __init__(self, config: PlatformConfig | None = None, initial_model: ModelProfile | None = None):
        self.config = config if config is not None else PlatformConfig()
        model = initial_model if initial_model is not None else builtin_profiles()["yolov3"]
        self._check_profile(model)
        self._model = model
        self._level = self.config.levels[-1]
        self._sim_time_ms = 0
        self._temp_c = self.config.thermal.ambient_c
        self._rng = random.Random(self.config.noise_seed)
        self._seq = 0
        self._advanced = False
        self._reported = self._nominal_utilizations()

    def _check_profile(self, profile: ModelProfile) -> None:
        if not self.config.runs(profile.base_latency_ms):
            raise ConfigError(
                "base_latency_ms",
                f"must exceed cpu_overhead_ms ({self.config.cpu_overhead_ms})",
            )

    # -- read-only views

    @property
    def level(self) -> FrequencyLevel:
        return self._level

    @property
    def active_model(self) -> ModelProfile:
        return self._model

    @property
    def sim_time_ms(self) -> int:
        return self._sim_time_ms

    @property
    def temp_c(self) -> float:
        return self._temp_c

    def latency_ms(self) -> float:
        """End-to-end per-frame latency at the current level.

        Fixed CPU pre/post-processing overhead plus accelerator time scaled
        inversely with the clock ratio; strictly decreasing in the ratio.
        """
        c = self.config.cpu_overhead_ms
        return c + (self._model.base_latency_ms - c) / self._level.ratio

    def fps(self) -> float:
        return 1000.0 / self.latency_ms()

    def power_w(self) -> float:
        """Platform power: static + dynamic * ratio^exponent * model duty.

        Uses the model's nominal accelerator duty (the load), not the noisy
        reported utilization, so power stays analytic.
        """
        cfg = self.config
        return cfg.static_power_w + (
            cfg.dynamic_power_max_w
            * self._level.ratio ** cfg.power_exponent
            * self._model.accel_utilization
        )

    def _nominal_utilizations(self) -> dict:
        return {
            "accel": self._model.accel_utilization,
            "cpu": min(1.0, self.config.cpu_overhead_ms / self.latency_ms()),
            "mem": self.config.mem_utilization_nominal,
        }

    # -- mutations

    def set_level(self, index: int) -> None:
        """Switch to the given frequency level; takes effect immediately."""
        if not 0 <= index < len(self.config.levels):
            raise IndexError(f"frequency level index {index} out of range [0, {len(self.config.levels)})")
        self._level = self.config.levels[index]

    def load_model(self, profile: ModelProfile) -> None:
        self._check_profile(profile)
        self._model = profile

    def advance(self, dt_ms: int) -> None:
        """Advance simulated time: relax temperature, re-draw sensor noise.

        Temperature relaxes exponentially toward ambient + heating_coeff *
        power; two advances of dt/2 compose to one advance of dt exactly.
        """
        if isinstance(dt_ms, bool) or not isinstance(dt_ms, int) or dt_ms <= 0:
            raise ValueError(f"dt_ms must be a positive integer, got {dt_ms!r}")
        th = self.config.thermal
        target = th.ambient_c + th.heating_coeff_c_per_w * self.power_w()
        decay = math.exp(-(dt_ms / 1000.0) / th.time_constant_s)
        self._temp_c = target + (self._temp_c - target) * decay
        noise = self.config.utilization_noise
        nominal = self._nominal_utilizations()
        self._reported = {
            key: min(1.0, max(0.0, nominal[key] * (1.0 + self._rng.uniform(-noise, noise))))
            for key in ("accel", "cpu", "mem")
        }
        self._sim_time_ms += dt_ms
        self._advanced = True

    def sample(self, device: DeviceIdentity, net: NetworkMetrics) -> TelemetrySnapshot:
        """Take one telemetry snapshot; increments the per-device sequence."""
        if not self._advanced:
            raise RuntimeError("platform must be advanced at least once before sampling")
        latency = self.latency_ms()
        frames_per_s = 1000.0 / latency
        power = self.power_w()
        snapshot = TelemetrySnapshot(
            device=device,
            seq=self._seq,
            device_time_ms=self._sim_time_ms,
            app=AppMetrics(ee_latency_ms=latency, fps=frames_per_s),
            model=ModelMetrics(
                accel_utilization=self._reported["accel"],
                mem_throughput_gbps=self.config.mem_gbit_per_gop * self._model.workload_gops * frames_per_s,
                cpu_utilization=self._reported["cpu"],
                mem_utilization=self._reported["mem"],
                model_efficiency=model_efficiency(
                    frames_per_s, self._model.workload_gops, self.config.peak_gops_per_s
                ),
                model_id=self._model.model_id,
            ),
            energy=EnergyMetrics(
                power_w=power,
                temp_c=self._temp_c,
                fps_per_watt=fps_per_watt(frames_per_s, power),
            ),
            network=net,
        )
        self._seq += 1
        return snapshot

    def fingerprint(self) -> str:
        """Digest of the full state, including the RNG; equal iff states equal."""
        state = (
            self._level,
            self._model,
            self._sim_time_ms,
            self._temp_c.hex(),
            self._seq,
            self._advanced,
            sorted(self._reported.items()),
            self._rng.getstate(),
        )
        return hashlib.sha256(repr(state).encode("utf-8")).hexdigest()
