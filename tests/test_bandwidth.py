import math
import random

import numpy as np
import pytest

from edgetelem.bandwidth import (
    DEFAULT_SCALER,
    BandwidthPredictor,
    LinearCoeffs,
    NetTraceConfig,
    Placement,
    PredictorConfig,
    RegimeSpec,
    decide_placement,
    gen_trace,
)
from edgetelem.telemetry import NetworkMetrics

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
        for lam in (0.0, -1e-3, float("nan")):
            with pytest.raises(ValueError, match="ridge_lambda must be > 0"):
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
        rows.append((1.0, *DEFAULT_SCALER.standardize(net), ewma))
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
        row = (1.0, *DEFAULT_SCALER.standardize(net), predictor.ewma_throughput)
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
