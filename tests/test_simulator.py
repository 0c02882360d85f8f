import pytest

from edgetelem.bandwidth import DEFAULT_TRACE_CONFIG, NetTrace
from edgetelem.simulator import (
    ConfigError,
    Platform,
    PlatformConfig,
    ThermalConfig,
    BUILTIN_LATENCY_MS,
    BUILTIN_MODEL_IDS,
    builtin_profiles,
    config_from_dict,
    make_model_blob,
)
from edgetelem.telemetry import DeviceIdentity, ModelProfile, ValidationError, encode_snapshot, to_doc

DEVICE = DeviceIdentity(device_id="dev0")


def quiet_config(**overrides) -> PlatformConfig:
    overrides.setdefault("utilization_noise", 0.0)
    return PlatformConfig(**overrides)


def sample_net():
    net, _ = NetTrace(DEFAULT_TRACE_CONFIG).tick()
    return net


def util_profile(util: float, model_id: str = "m-util") -> ModelProfile:
    return ModelProfile(
        model_id=model_id,
        workload_gops=65.63,
        base_latency_ms=29.4,
        artifact_digest="0" * 64,
        artifact_size_bytes=100,
        accel_utilization=util,
    )


class TestInit:
    def test_starts_at_top_level_ambient(self):
        p = Platform()
        assert p.level.ratio == 1.0
        assert p.temp_c == p.config.thermal.ambient_c
        assert p.sim_time_ms == 0

    def test_empty_levels_is_config_error(self):
        with pytest.raises(ConfigError, match="level_ratios"):
            PlatformConfig(level_ratios=())

    def test_non_increasing_ratios_rejected(self):
        with pytest.raises(ConfigError, match="level_ratios"):
            PlatformConfig(level_ratios=(0.5, 0.5, 1.0))

    def test_top_ratio_must_be_one(self):
        with pytest.raises(ConfigError, match="level_ratios"):
            PlatformConfig(level_ratios=(0.25, 0.9))

    def test_same_seed_same_state(self):
        a, b = Platform(), Platform()
        assert a.fingerprint() == b.fingerprint()
        a.advance(1000)
        b.advance(1000)
        assert a.fingerprint() == b.fingerprint()

    def test_different_seed_diverges(self):
        a = Platform(PlatformConfig(noise_seed=1))
        b = Platform(PlatformConfig(noise_seed=2))
        a.advance(1000)
        b.advance(1000)
        assert a.fingerprint() != b.fingerprint()


class TestLatency:
    def test_yolov3_top_frequency(self):
        assert Platform().latency_ms() == pytest.approx(29.4, rel=1e-12)

    def test_half_ratio(self):
        p = Platform(quiet_config(level_ratios=(0.5, 1.0)))
        p.set_level(0)
        assert p.latency_ms() == pytest.approx(54.4, rel=1e-12)

    def test_ssd_top_frequency(self):
        p = Platform(initial_model=builtin_profiles()["ssd_resnet50_fpn"])
        assert p.latency_ms() == pytest.approx(200.0, rel=1e-12)

    def test_strictly_decreasing_in_ratio(self):
        p = Platform()
        latencies = []
        for level in p.config.levels:
            p.set_level(level.index)
            latencies.append(p.latency_ms())
        assert latencies == sorted(latencies, reverse=True)
        assert len(set(latencies)) == len(latencies)


class TestPower:
    def test_calibrated_top_level(self):
        p = Platform(initial_model=util_profile(1.0))
        assert p.power_w() == pytest.approx(22.98, rel=1e-9)

    def test_idle_is_static_only(self):
        p = Platform(initial_model=util_profile(0.0))
        assert p.power_w() == pytest.approx(8.0, rel=1e-12)

    def test_cubic_scaling(self):
        p = Platform(quiet_config(level_ratios=(0.5, 1.0)), util_profile(1.0))
        p.set_level(0)
        assert p.power_w() == pytest.approx(8.0 + 14.98 * 0.125, rel=1e-12)


class TestLevelControl:
    def test_out_of_range_raises(self):
        p = Platform()
        with pytest.raises(IndexError):
            p.set_level(len(p.config.levels))
        with pytest.raises(IndexError):
            p.set_level(-1)

    def test_step_down_lowers_fps_and_power(self):
        p = Platform()
        fps_top, power_top = p.fps(), p.power_w()
        p.set_level(4)
        assert p.fps() < fps_top
        assert p.power_w() < power_top

    def test_monotone_over_all_levels(self):
        p = Platform()
        rows = []
        for level in p.config.levels:
            p.set_level(level.index)
            rows.append((p.fps(), p.power_w()))
        assert rows == sorted(rows)

    def test_frequency_reduction_saves_energy_per_frame(self):
        p = Platform()
        p.set_level(5)
        fpw_top = p.fps() / p.power_w()
        p.set_level(4)
        assert p.fps() / p.power_w() > fpw_top


class TestLoadModel:
    def test_swap_changes_latency(self):
        p = Platform()
        assert p.latency_ms() == pytest.approx(29.4)
        p.load_model(builtin_profiles()["ssd_resnet50_fpn"])
        assert p.latency_ms() == pytest.approx(200.0)

    def test_swap_to_identical_profile_is_noop(self):
        p = Platform()
        before = (p.latency_ms(), p.power_w())
        p.load_model(builtin_profiles()["yolov3"])
        assert (p.latency_ms(), p.power_w()) == before

    def test_efficiency_ratio_between_models(self):
        profiles = builtin_profiles()
        p = Platform(initial_model=profiles["ssd_resnet50_fpn"])
        p.advance(1000)
        eff_ssd = p.sample(DEVICE, sample_net()).model.model_efficiency
        p.load_model(profiles["yolov3"])
        p.advance(1000)
        eff_yolo = p.sample(DEVICE, sample_net()).model.model_efficiency
        assert eff_yolo / eff_ssd == pytest.approx((65.63 / 178.4) * (200.0 / 29.4), rel=1e-9)

    def test_profile_shorter_than_cpu_overhead_rejected(self):
        bad = ModelProfile(
            model_id="tiny",
            workload_gops=1.0,
            base_latency_ms=2.0,
            artifact_digest="0" * 64,
            artifact_size_bytes=10,
        )
        with pytest.raises(ConfigError):
            Platform().load_model(bad)


class TestAdvance:
    def test_dt_must_be_positive_integer(self):
        p = Platform()
        for bad in (0, -5, 2.5, True):
            with pytest.raises(ValueError):
                p.advance(bad)

    def test_temperature_semigroup(self):
        a = Platform(quiet_config())
        b = Platform(quiet_config())
        a.advance(500)
        a.advance(500)
        b.advance(1000)
        assert abs(a.temp_c - b.temp_c) < 1e-6

    def test_temperature_fixed_point(self):
        p = Platform(quiet_config())
        for _ in range(40):
            p.advance(30_000)  # 20 minutes total >> 30 s time constant
        th = p.config.thermal
        assert p.temp_c == pytest.approx(th.ambient_c + th.heating_coeff_c_per_w * p.power_w(), abs=1e-3)

    def test_temperature_bounds(self):
        p = Platform()
        th = p.config.thermal
        ceiling = th.ambient_c + th.heating_coeff_c_per_w * (
            p.config.static_power_w + p.config.dynamic_power_max_w
        )
        for _ in range(200):
            p.advance(500)
            assert th.ambient_c <= p.temp_c <= ceiling + 1e-9


class TestSampling:
    def test_requires_advance_first(self):
        with pytest.raises(RuntimeError):
            Platform().sample(DEVICE, sample_net())

    def test_calibration_snapshot(self):
        p = Platform()
        p.advance(1000)
        snap = p.sample(DEVICE, sample_net())
        assert snap.app.fps == pytest.approx(34.013, rel=0.02)
        assert snap.energy.fps_per_watt == pytest.approx(1.48, rel=0.02)
        assert snap.model.model_efficiency == pytest.approx(0.5005, abs=1e-3)

    def test_lowest_level_fps(self):
        p = Platform()
        p.set_level(0)  # ratio 0.25
        p.advance(1000)
        snap = p.sample(DEVICE, sample_net())
        assert snap.app.fps == pytest.approx(1000.0 / 104.4, rel=1e-9)

    def test_seq_increments_without_advance(self):
        p = Platform()
        p.advance(1000)
        net = sample_net()
        first = p.sample(DEVICE, net)
        second = p.sample(DEVICE, net)
        assert second.seq == first.seq + 1
        assert second.device_time_ms == first.device_time_ms

    def test_determinism_bytes(self):
        def run():
            p = Platform()
            trace = NetTrace(DEFAULT_TRACE_CONFIG)
            out = []
            for _ in range(10):
                p.advance(1000)
                net, _ = trace.tick()
                out.append(encode_snapshot(p.sample(DEVICE, net)))
            return out

        assert run() == run()

    def test_noise_disabled_reports_nominal(self):
        p = Platform(quiet_config(), util_profile(0.75))
        p.advance(1000)
        snap = p.sample(DEVICE, sample_net())
        assert snap.model.accel_utilization == pytest.approx(0.75, rel=1e-12)

    def test_noise_bounded(self):
        p = Platform(initial_model=util_profile(0.75))
        for _ in range(50):
            p.advance(1000)
            snap = p.sample(DEVICE, sample_net())
            assert 0.75 * 0.98 - 1e-9 <= snap.model.accel_utilization <= 0.75 * 1.02 + 1e-9


class TestConfigLoading:
    def test_from_dict_roundtrip(self):
        cfg = config_from_dict({"level_ratios": [0.5, 1.0], "static_power_w": 5.0})
        assert [l.ratio for l in cfg.levels] == [0.5, 1.0]
        assert cfg.static_power_w == 5.0

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError, match="bogus"):
            config_from_dict({"bogus": 1})

    def test_unknown_nested_field_rejected(self):
        # It used to load with the ambient default of 25 C.
        with pytest.raises(ConfigError, match=r"^thermal\.ambiant_c: unknown key$") as err:
            config_from_dict({"thermal": {"ambiant_c": 1}})
        assert err.value.field == "thermal.ambiant_c"

    @pytest.mark.parametrize(
        "doc, message",
        [
            ({"level_ratios": ["0.5", 1.0]}, r"level_ratios\[0\]: must be a number"),
            ({"level_ratios": 1.0}, "level_ratios: must be an array"),
            ({"noise_seed": 1.5}, "noise_seed: must be an integer"),
            ({"thermal": None}, "thermal: must be an object"),
            ({"static_power_w": float("nan")}, "static_power_w: must be finite"),
            ({"level_ratios": [0.5, 1.0], "levels": []}, "levels: unknown key"),
        ],
    )
    def test_wrong_types_rejected(self, doc, message):
        with pytest.raises(ConfigError, match=message):
            config_from_dict(doc)

    def test_defaults_come_from_the_dataclass(self):
        assert config_from_dict({}) == PlatformConfig()
        assert config_from_dict({"thermal": {"ambient_c": 30}}).thermal.time_constant_s == 30.0

    def test_written_config_reads_back(self):
        cfg = PlatformConfig(level_ratios=(0.5, 1.0), noise_seed=3)
        assert config_from_dict(to_doc(cfg)) == cfg

    def test_builtin_profiles_digests_match_blobs(self):
        import hashlib

        for profile in builtin_profiles().values():
            blob = make_model_blob(profile.model_id, profile.artifact_size_bytes)
            assert hashlib.sha256(blob).hexdigest() == profile.artifact_digest

    def test_builtin_model_ids_are_the_profile_keys(self):
        assert BUILTIN_MODEL_IDS == tuple(builtin_profiles())

    def test_builtin_latencies_are_the_profiles(self):
        assert BUILTIN_LATENCY_MS == {m: p.base_latency_ms for m, p in builtin_profiles().items()}


class TestConfigBounds:
    def test_thermal_config_checks_its_own_fields(self):
        # Its bounds were checked only by the PlatformConfig holding it.
        with pytest.raises(ValidationError, match=r"^time_constant_s: must be > 0\.0, got -1\.0$"):
            ThermalConfig(time_constant_s=-1)

    def test_nan_is_outside_every_bound(self):
        with pytest.raises(ValidationError, match=r"^peak_gops_per_s: must be finite$"):
            PlatformConfig(peak_gops_per_s=float("nan"))

    def test_load_names_the_key_path_of_a_bound(self):
        with pytest.raises(ConfigError, match=r"^thermal\.time_constant_s: must be > 0\.0, got 0\.0$") as err:
            config_from_dict({"thermal": {"time_constant_s": 0}})
        assert err.value.field == "thermal.time_constant_s"

    def test_an_int_in_a_float_field_is_stored_as_a_float(self):
        assert type(PlatformConfig(cpu_overhead_ms=5).cpu_overhead_ms) is float
