import dataclasses
import math
import random

import numpy as np
import pytest

from edgetelem import bandwidth
from edgetelem.bandwidth import (
    BandwidthPredictor,
    FitError,
    LinearCoeffs,
    NetTrace,
    NetTraceConfig,
    Placement,
    PredictorConfig,
    RegimeSpec,
    DEFAULT_TRACE_CONFIG,
    decide_placement,
    gen_trace,
    standardize,
    trace_config_from_dict,
)
from edgetelem.telemetry import NetworkMetrics, ValidationError

# Regime whose generating standardization coincides with the predictor's
# fixed feature scaler, so fitted coefficients are directly comparable.
ALIGNED_COEFFS = LinearCoeffs(b0=20.0, b_rsrp=2.0, b_rsrq=1.0, b_rssi=0.5, b_hist=0.3)


def aligned_regime(noise_std=0.0, duration=10_000, coeffs=ALIGNED_COEFFS) -> RegimeSpec:
    return RegimeSpec(
        duration_ticks=duration,
        rsrp_mean_dbm=-100.0,
        rsrp_std=20.0,
        rsrq_mean_db=-12.0,
        rsrq_std=6.0,
        rssi_offset_db=30.0,
        true_coeffs=coeffs,
        noise_std_mbps=noise_std,
        rssi_jitter_std=10.0,
    )


def flat_net(dl: float = 10.0) -> NetworkMetrics:
    return NetworkMetrics(
        rssi_dbm=-70.0, rsrq_db=-10.0, rsrp_dbm=-95.0, modem_temp_c=38.0, dl_mbps=dl, ul_mbps=1.0
    )


class TestTraceGenerator:
    def test_constant_regime_noiseless(self):
        # No radio spread, no history term: downlink is exactly the intercept.
        regime = RegimeSpec(
            duration_ticks=100,
            rsrp_mean_dbm=-95.0,
            rsrp_std=0.0,
            rsrq_mean_db=-10.0,
            rsrq_std=0.0,
            rssi_offset_db=17.0,
            true_coeffs=LinearCoeffs(b0=14.5),
            noise_std_mbps=0.0,
            rssi_jitter_std=0.0,
        )
        for net, true_dl in gen_trace(NetTraceConfig(seed=9, regimes=(regime,)), 20):
            assert true_dl == pytest.approx(14.5, abs=1e-12)
            assert net.dl_mbps == pytest.approx(14.5, abs=1e-12)

    def test_same_seed_identical(self):
        cfg = NetTraceConfig(seed=5, regimes=(aligned_regime(noise_std=1.0),))
        assert gen_trace(cfg, 50) == gen_trace(cfg, 50)

    def test_different_seed_differs(self):
        a = gen_trace(NetTraceConfig(seed=5, regimes=(aligned_regime(1.0),)), 20)
        b = gen_trace(NetTraceConfig(seed=6, regimes=(aligned_regime(1.0),)), 20)
        assert a != b

    def test_two_regimes_show_change_point(self):
        low = aligned_regime(noise_std=0.5, duration=50, coeffs=LinearCoeffs(b0=4.0))
        high = aligned_regime(noise_std=0.5, duration=50)
        trace = gen_trace(NetTraceConfig(seed=3, regimes=(high, low)), 100)
        first = [dl for _, dl in trace[10:50]]
        second = [dl for _, dl in trace[60:]]
        assert np.mean(first) - np.mean(second) > 10.0

    def test_metrics_stay_in_reporting_ranges(self):
        wild = RegimeSpec(
            duration_ticks=100,
            rsrp_mean_dbm=-138.0,
            rsrp_std=30.0,
            rsrq_mean_db=-24.0,
            rsrq_std=10.0,
            rssi_offset_db=60.0,
            true_coeffs=LinearCoeffs(b0=1.0, b_rsrp=5.0),
            noise_std_mbps=10.0,
            rssi_jitter_std=20.0,
        )
        # NetworkMetrics construction enforces the ranges; just generate.
        for net, true_dl in gen_trace(NetTraceConfig(seed=11, regimes=(wild,)), 100):
            assert true_dl >= 0.0

    def test_last_regime_persists(self):
        cfg = NetTraceConfig(seed=2, regimes=(aligned_regime(duration=5),))
        assert len(gen_trace(cfg, 50)) == 50

    @pytest.mark.parametrize("durations", [(1,), (5,), (1, 1), (3, 1, 2), (2, 7, 1, 4)])
    def test_regime_sequence_matches_a_walk(self, durations):
        regimes = tuple(aligned_regime(duration=d, coeffs=LinearCoeffs(b0=float(i))) for i, d in enumerate(durations))
        trace = NetTrace(NetTraceConfig(seed=4, regimes=regimes))
        seen = []
        for _ in range(sum(durations) + 12):  # well past the last regime
            trace.tick()
            seen.append(trace._regime)
        assert seen == [regime_at(regimes, tick) for tick in range(len(seen))]

    def test_samples_match_the_reference_generator(self):
        # The wild regime's spreads push every clamped metric past both of its bounds.
        wild = RegimeSpec(
            duration_ticks=40, rsrp_mean_dbm=-90.0, rsrp_std=60.0, rsrq_mean_db=-12.0, rsrq_std=15.0,
            rssi_offset_db=40.0, true_coeffs=LinearCoeffs(b0=5.0, b_rsrp=2.0, b_hist=0.5), noise_std_mbps=8.0,
            rssi_jitter_std=30.0,
        )
        cfg = NetTraceConfig(seed=12, regimes=switching_regimes() + (wild,))
        n = sum(r.duration_ticks for r in cfg.regimes) + 50
        assert [sample_bits(sample) for sample in gen_trace(cfg, n)] == [
            sample_bits(sample) for sample in reference_trace(cfg, n)
        ]


def regime_at(regimes: tuple, tick: int) -> RegimeSpec:
    """The regime of a tick by walking the durations; the last regime stays."""
    remaining = tick
    for regime in regimes:
        if remaining < regime.duration_ticks:
            return regime
        remaining -= regime.duration_ticks
    return regimes[-1]


def reference_trace(cfg: NetTraceConfig, n: int) -> list:
    """The trace generator as a regime walk per tick with min/max clamps."""

    def z(x, mean, std):
        return (x - mean) / std if std > 0 else 0.0

    rng, ewma, out = random.Random(cfg.seed), 0.0, []
    for tick in range(n):
        r = regime_at(cfg.regimes, tick)
        rsrp = min(-40.0, max(-140.0, rng.gauss(r.rsrp_mean_dbm, r.rsrp_std)))
        rsrq = min(0.0, max(-25.0, rng.gauss(r.rsrq_mean_db, r.rsrq_std)))
        rssi = min(0.0, max(-120.0, rsrp + r.rssi_offset_db + rng.gauss(0.0, r.rssi_jitter_std)))
        dl_noise = rng.gauss(0.0, r.noise_std_mbps)
        modem_temp = cfg.modem_temp_base_c + rng.gauss(0.0, 0.5)
        c = r.true_coeffs
        true_dl = max(0.0, (
            c.b0
            + c.b_rsrp * z(rsrp, r.rsrp_mean_dbm, r.rsrp_std)
            + c.b_rsrq * z(rsrq, r.rsrq_mean_db, r.rsrq_std)
            + c.b_rssi * z(rssi, r.rsrp_mean_dbm + r.rssi_offset_db, r.rsrp_std)
            + c.b_hist * ewma
            + dl_noise
        ))
        net = NetworkMetrics(
            rssi_dbm=rssi, rsrq_db=rsrq, rsrp_dbm=rsrp, modem_temp_c=modem_temp,
            dl_mbps=true_dl, ul_mbps=cfg.ul_fraction * true_dl,
        )
        ewma = cfg.ewma_alpha * true_dl + (1.0 - cfg.ewma_alpha) * ewma
        out.append((net, true_dl))
    return out


def sample_bits(sample) -> tuple:
    net, true_dl = sample
    return tuple(map(float.hex, (*vars(net).values(), true_dl)))


class TestPredictorFit:
    def test_recovers_generating_coefficients(self):
        cfg = NetTraceConfig(seed=17, regimes=(aligned_regime(),))
        predictor = BandwidthPredictor(PredictorConfig(window=60, ridge_lambda=1e-9))
        for net, _ in gen_trace(cfg, 80):
            predictor.update(net, net.dl_mbps)
        expected = ALIGNED_COEFFS.as_tuple()
        assert np.allclose(predictor.coefficients, expected, atol=1e-4)

    def test_noiseless_in_regime_prediction_error(self):
        cfg = NetTraceConfig(seed=18, regimes=(aligned_regime(),))
        predictor = BandwidthPredictor(PredictorConfig(window=60, ridge_lambda=1e-9))
        trace = gen_trace(cfg, 120)
        for net, _ in trace[:60]:
            predictor.update(net, net.dl_mbps)
        for net, true_dl in trace[60:]:
            assert predictor.predict(net) == pytest.approx(true_dl, abs=1e-6)
            predictor.update(net, net.dl_mbps)

    def test_noisy_holdout_rmse(self):
        cfg = NetTraceConfig(seed=19, regimes=(aligned_regime(noise_std=2.0),))
        predictor = BandwidthPredictor(PredictorConfig(window=30))
        trace = gen_trace(cfg, 200)
        for net, _ in trace[:100]:
            predictor.update(net, net.dl_mbps)
        errors = []
        for net, true_dl in trace[100:]:
            errors.append(predictor.predict(net) - true_dl)
            predictor.update(net, net.dl_mbps)
        rmse = math.sqrt(sum(e * e for e in errors) / len(errors))
        assert rmse <= 2.5

    def test_first_update_falls_back_to_ewma(self):
        predictor = BandwidthPredictor()
        predictor.update(flat_net(12.0), 12.0)
        assert predictor.predict(flat_net(12.0)) == pytest.approx(0.3 * 12.0, rel=1e-12)

    def test_empty_state_predicts_zero(self):
        assert BandwidthPredictor().predict(flat_net()) == 0.0

    def test_constant_design_with_ridge(self):
        predictor = BandwidthPredictor(PredictorConfig(window=30, ridge_lambda=1e-3))
        for _ in range(30):
            predictor.update(flat_net(10.0), 10.0)
        assert np.all(np.isfinite(predictor.coefficients))
        assert predictor.predict(flat_net(10.0)) == pytest.approx(10.0, rel=1e-3)

    def test_nonpositive_lambda_rejected(self):
        for lam, message in ((0.0, "must be > 0.0"), (-1e-3, "must be > 0.0"), (float("nan"), "must be finite")):
            with pytest.raises(ValueError, match=f"^ridge_lambda: {message}"):
                PredictorConfig(ridge_lambda=lam)

    def test_rejects_non_finite_observation(self):
        with pytest.raises(ValueError):
            BandwidthPredictor().update(flat_net(), float("nan"))

    def test_scale_consistency(self):
        cfg = NetTraceConfig(seed=21, regimes=(aligned_regime(),))
        trace = gen_trace(cfg, 60)
        scale = 3.0
        a = BandwidthPredictor(PredictorConfig(window=40, ridge_lambda=1e-9))
        b = BandwidthPredictor(PredictorConfig(window=40, ridge_lambda=1e-9))
        for net, _ in trace[:40]:
            a.update(net, net.dl_mbps)
            b.update(net, scale * net.dl_mbps)
        for net, _ in trace[40:]:
            pa, pb = a.predict(net), b.predict(net)
            assert pb == pytest.approx(scale * pa, rel=1e-6)

    def test_determinism(self):
        cfg = NetTraceConfig(seed=23, regimes=(aligned_regime(noise_std=1.0),))

        def run():
            predictor = BandwidthPredictor()
            out = []
            for net, _ in gen_trace(cfg, 40):
                out.append(predictor.predict(net))
                predictor.update(net, net.dl_mbps)
            return out

        assert run() == run()


def switching_regimes() -> tuple:
    """Three link regimes with different levels, spreads and coefficients."""
    return (
        RegimeSpec(
            duration_ticks=45, rsrp_mean_dbm=-85.0, rsrp_std=4.0, rsrq_mean_db=-8.0, rsrq_std=1.5,
            rssi_offset_db=17.0, true_coeffs=LinearCoeffs(b0=30.0, b_rsrp=2.0, b_rsrq=1.0, b_rssi=0.5, b_hist=0.2),
            noise_std_mbps=1.0,
        ),
        RegimeSpec(
            duration_ticks=35, rsrp_mean_dbm=-115.0, rsrp_std=3.0, rsrq_mean_db=-16.0, rsrq_std=2.0,
            rssi_offset_db=12.0, true_coeffs=LinearCoeffs(b0=3.0, b_rsrp=0.5, b_rsrq=0.2, b_rssi=0.1, b_hist=0.1),
            noise_std_mbps=0.5,
        ),
        RegimeSpec(
            duration_ticks=25, rsrp_mean_dbm=-100.0, rsrp_std=8.0, rsrq_mean_db=-12.0, rsrq_std=3.0,
            rssi_offset_db=20.0, true_coeffs=LinearCoeffs(b0=15.0, b_rsrp=3.0, b_rsrq=1.0, b_rssi=1.0, b_hist=0.3),
            noise_std_mbps=2.0,
        ),
    )


def worst_batch_error(trace, config: PredictorConfig) -> float:
    """Largest relative distance, over every update, between the predictor's
    coefficients and a batch ridge fit of the same window."""
    predictor = BandwidthPredictor(config)
    rows, ys, ewma, worst = [], [], 0.0, 0.0
    for net, _ in trace:
        predictor.update(net, net.dl_mbps)
        rows.append((1.0, *standardize(net), ewma))
        ys.append(net.dl_mbps)
        ewma = config.ewma_alpha * net.dl_mbps + (1.0 - config.ewma_alpha) * ewma
        x, y = np.array(rows[-config.window :]), np.array(ys[-config.window :])
        expected = np.linalg.solve(x.T @ x + config.ridge_lambda * np.eye(5), x.T @ y)
        error = np.linalg.norm(np.array(predictor.coefficients) - expected) / np.linalg.norm(expected)
        worst = max(worst, error)
    return worst


class TestIncrementalFit:
    @pytest.mark.parametrize("window", [1, 5, 30])
    def test_matches_batch_refit_after_every_update(self, window):
        # 8 regime switches and at least 10 full windows of evictions and rebuilds.
        trace = gen_trace(NetTraceConfig(seed=41 + window, regimes=switching_regimes() * 3), 300)
        assert worst_batch_error(trace, PredictorConfig(window=window)) <= 1e-9

    def test_periodic_rebuild_bounds_drift(self):
        # Alternating 2000 Mbps and 0.5 Mbps links: each eviction of a large row
        # leaves rounding error in the running sums that the next rebuild clears.
        big = RegimeSpec(
            duration_ticks=50, rsrp_mean_dbm=-60.0, rsrp_std=10.0, rsrq_mean_db=-5.0, rsrq_std=3.0,
            rssi_offset_db=10.0, true_coeffs=LinearCoeffs(b0=2000.0, b_rsrp=300.0), noise_std_mbps=50.0,
        )
        small = RegimeSpec(
            duration_ticks=50, rsrp_mean_dbm=-120.0, rsrp_std=1.0, rsrq_mean_db=-20.0, rsrq_std=0.3,
            rssi_offset_db=5.0, true_coeffs=LinearCoeffs(b0=0.5, b_rsrp=0.01, b_rsrq=0.01, b_rssi=0.01),
            noise_std_mbps=0.01,
        )
        trace = gen_trace(NetTraceConfig(seed=1, regimes=(big, small) * 20), 2000)
        # Without the rebuild the error grows past 3e-7 on this trace.
        assert worst_batch_error(trace, PredictorConfig(window=30)) <= 1e-7

    def test_prediction_is_the_fitted_linear_form(self):
        cfg = NetTraceConfig(seed=43, regimes=switching_regimes())
        predictor = BandwidthPredictor()
        for net, _ in gen_trace(cfg, 40):
            predictor.update(net, net.dl_mbps)
        net = flat_net(5.0)
        row = (1.0, *standardize(net), predictor.ewma_throughput)
        assert isinstance(predictor.coefficients, tuple)
        expected = sum(c * x for c, x in zip(predictor.coefficients, row))
        assert predictor.predict(net) == pytest.approx(max(0.0, expected), rel=1e-12)

    def test_ewma_fallback_below_min_window(self):
        cfg = NetTraceConfig(seed=44, regimes=switching_regimes())
        config = PredictorConfig(min_window=7)
        predictor = BandwidthPredictor(config)
        ewma = 0.0
        for net, _ in gen_trace(cfg, 6):
            assert predictor.predict(net) == ewma
            predictor.update(net, net.dl_mbps)
            ewma = config.ewma_alpha * net.dl_mbps + (1.0 - config.ewma_alpha) * ewma
        assert predictor.predict(flat_net()) == ewma


class TestPlacementDecision:
    def test_sufficient_bandwidth_stays_on_edge(self):
        assert decide_placement(8.0, 6.0, Placement.EDGE) == Placement.EDGE

    def test_low_bandwidth_moves_to_device(self):
        assert decide_placement(5.0, 6.0, Placement.EDGE) == Placement.DEVICE

    def test_reentry_needs_margin(self):
        assert decide_placement(6.5, 6.0, Placement.DEVICE, 1.25) == Placement.DEVICE
        assert decide_placement(7.5, 6.0, Placement.DEVICE, 1.25) == Placement.EDGE

    def test_invalid_required_rate(self):
        with pytest.raises(ValueError):
            decide_placement(5.0, 0.0, Placement.EDGE)

    def test_no_flapping_inside_the_band(self):
        rng = random.Random(7)
        for start in (Placement.EDGE, Placement.DEVICE):
            current = start
            changes = 0
            for _ in range(200):
                predicted = rng.uniform(6.0, 7.5 - 1e-9)  # inside [required, required*margin)
                new = decide_placement(predicted, 6.0, current, 1.25)
                if new != current:
                    changes += 1
                    current = new
            assert changes == 0

    def test_single_change_per_crossing(self):
        current = Placement.EDGE
        history = []
        for predicted in (10.0, 9.0, 4.0, 3.0, 4.5, 6.2, 7.0, 8.0, 9.0, 6.8):
            new = decide_placement(predicted, 6.0, current, 1.25)
            if new != current:
                history.append(new)
                current = new
        assert history == [Placement.DEVICE, Placement.EDGE]


# --- generated ridge kernels against the loops they unroll -----------------------

_N = 5
_UPPER = tuple((i, j) for i in range(_N) for j in range(i, _N))


def loop_accumulate(xtx: list, xty: list, row: tuple, y: float, sign: float) -> None:
    for k, (i, j) in enumerate(_UPPER):
        xtx[k] += sign * row[i] * row[j]
    for i in range(_N):
        xty[i] += sign * row[i] * y


def loop_solve(xtx: list, xty: list, lam: float) -> tuple:
    a = [[0.0] * _N for _ in range(_N)]
    for k, (i, j) in enumerate(_UPPER):
        a[i][j] = xtx[k]
    for i in range(_N):
        a[i][i] += lam
    b = list(xty)
    for k in range(_N):
        row_k = a[k]
        pivot = row_k[k]
        if not pivot > 0.0:
            raise FitError("normal matrix lost positive definiteness")
        for i in range(k + 1, _N):
            f = row_k[i] / pivot
            row_i = a[i]
            for j in range(i, _N):
                row_i[j] -= f * row_k[j]
            b[i] -= f * b[k]
    coeffs = [0.0] * _N
    for i in range(_N - 1, -1, -1):
        row_i = a[i]
        acc = b[i]
        for j in range(i + 1, _N):
            acc -= row_i[j] * coeffs[j]
        coeffs[i] = acc / row_i[i]
    if not all(map(math.isfinite, coeffs)):
        raise FitError("fit produced non-finite coefficients")
    return tuple(coeffs)


def bits(values) -> tuple:
    return tuple(map(float.hex, values))


def fit_history(trace, config: PredictorConfig) -> list:
    """Per update: the coefficients' bits or the FitError, and the running sums' bits."""
    predictor = BandwidthPredictor(config)
    history = []
    for net, _ in trace:
        try:
            predictor.update(net, net.dl_mbps)
            outcome = bits(predictor.coefficients)
        except FitError as e:
            outcome = str(e)
        history.append((outcome, bits(predictor._xtx), bits(predictor._xty)))
    return history


class TestGeneratedKernels:
    # A ridge of 1e-15 is small enough for rounding to cost a short window its
    # definiteness, so FitError points are compared too.
    @pytest.mark.parametrize("lam", [1e-15, 1e-9, 1e-3, 5.0])
    @pytest.mark.parametrize("window", [1, 3, 5, 30])
    def test_predictor_matches_the_loops(self, monkeypatch, window, lam):
        trace = gen_trace(NetTraceConfig(seed=61, regimes=switching_regimes() * 2), 240)
        config = PredictorConfig(window=window, ridge_lambda=lam)
        generated = fit_history(trace, config)
        monkeypatch.setattr(bandwidth, "_ACCUMULATE", loop_accumulate)
        monkeypatch.setattr(bandwidth, "_SOLVE", loop_solve)
        assert generated == fit_history(trace, config)

    def test_fit_errors_are_covered(self):
        trace = gen_trace(NetTraceConfig(seed=61, regimes=switching_regimes() * 2), 240)
        outcomes = [o for o, _, _ in fit_history(trace, PredictorConfig(window=3, ridge_lambda=1e-15))]
        failed = sum(isinstance(o, str) for o in outcomes)
        assert 0 < failed < len(outcomes)

    def test_solve_on_arbitrary_systems(self):
        rng = random.Random(3)
        failures = set()
        for _ in range(5000):
            xtx = [rng.uniform(-1.0, 1.0) * 10.0 ** rng.randint(-8, 8) for _ in _UPPER]
            if rng.random() < 0.5:  # diagonal, so the checks on the coefficients are reached
                xtx = [10.0 ** rng.randint(-12, 8) if i == j else 0.0 for i, j in _UPPER]
            xty = [rng.gauss(0.0, 1.0) * 10.0 ** rng.randint(-8, 8) for _ in range(_N)]
            if rng.random() < 0.5:
                special = rng.choice([math.nan, math.inf, -math.inf, 1e308, 0.0])
                if rng.random() < 0.5:
                    xtx[rng.randrange(len(xtx))] = special
                else:
                    xty[rng.randrange(_N)] = special
            lam = rng.choice([1e-9, 1e-3, 5.0])
            if rng.random() < 0.1:  # the first pivot is exactly zero
                xtx[0] = -lam
            before = bits(xtx + xty)
            outcomes = []
            for solve in (bandwidth._SOLVE, loop_solve):
                try:
                    outcomes.append(bits(solve(xtx, xty, lam)))
                except FitError as e:
                    outcomes.append(str(e))
                    failures.add(str(e))
            assert outcomes[0] == outcomes[1]
            assert bits(xtx + xty) == before  # the solve leaves the running sums alone
        assert len(failures) == 2  # both kinds of FitError were reached

    def test_accumulate_on_arbitrary_rows(self):
        rng = random.Random(4)
        ours = [[0.0] * len(_UPPER), [0.0] * _N]
        loops = [[0.0] * len(_UPPER), [0.0] * _N]
        for _ in range(2000):
            row = tuple(rng.gauss(0.0, 1.0) * 10.0 ** rng.randint(-6, 6) for _ in range(_N))
            y, sign = rng.gauss(0.0, 100.0), rng.choice([1.0, -1.0])
            bandwidth._ACCUMULATE(*ours, row, y, sign)
            loop_accumulate(*loops, row, y, sign)
            assert bits(ours[0] + ours[1]) == bits(loops[0] + loops[1])


DEFAULT_REGIME_DOC = {
    "duration_ticks": 1_000_000,
    "rsrp_mean_dbm": -95,
    "rsrp_std": 4,
    "rsrq_mean_db": -10,
    "rsrq_std": 1.5,
    "rssi_offset_db": 17,
    "true_coeffs": {"b0": 20, "b_rsrp": 2, "b_rsrq": 1, "b_rssi": 0.5, "b_hist": 0.2},
    "noise_std_mbps": 1,
}


class TestTraceConfigLoading:
    def test_defaults_come_from_the_dataclasses(self):
        assert trace_config_from_dict({"seed": 7, "regimes": [DEFAULT_REGIME_DOC]}) == DEFAULT_TRACE_CONFIG

    @pytest.mark.parametrize(
        "doc, message",
        [
            ({}, "seed: required key missing"),
            ({"seed": 7}, "regimes: required key missing"),
            ({"seed": "1", "regimes": [DEFAULT_REGIME_DOC]}, "seed: must be an integer"),
            ({"seed": 7, "regimes": [DEFAULT_REGIME_DOC], "ewma_alpfa": 0.5}, "ewma_alpfa: unknown key"),
            ({"seed": 7, "regimes": [{**DEFAULT_REGIME_DOC, "true_coeffs": {"b_0": 1}}]},
             r"regimes\[0\]\.true_coeffs\.b_0: unknown key"),
            ({"seed": 7, "regimes": [{**DEFAULT_REGIME_DOC, "duration_ticks": 0}]},
             r"regimes\[0\]\.duration_ticks: must be > 0, got 0"),
            ({"seed": 7, "regimes": []}, "regimes must be non-empty"),
        ],
    )
    def test_rejects_bad_documents(self, doc, message):
        with pytest.raises(ValueError, match=message):
            trace_config_from_dict(doc)

    def test_negative_ul_fraction_rejected(self):
        # It loaded, and the first snapshot then failed with a negative ul_mbps.
        with pytest.raises(ValueError, match=r"^ul_fraction: must be >= 0\.0, got -0\.5$"):
            trace_config_from_dict({"seed": 7, "regimes": [DEFAULT_REGIME_DOC], "ul_fraction": -0.5})

    def test_nan_spread_rejected(self):
        with pytest.raises(ValidationError, match=r"^rsrp_std: must be finite$"):
            dataclasses.replace(aligned_regime(), rsrp_std=float("nan"))
