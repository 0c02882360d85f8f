"""Synthetic cellular traces, bandwidth prediction, and placement decisions.

The trace generator draws modem metrics per regime and derives the downlink
rate from a linear model over standardized radio features plus a throughput
EWMA.  The predictor fits the same 5-feature linear form by ridge-regularized
least squares over a sliding window, so on clean traces it can recover the
generating coefficients exactly.  It keeps the window's normal equations up
to date one row at a time (sliding-window recursive least squares) and
solves the 5x5 system with straight-line code generated at import time.

Radio features are standardized with fixed affine normalizers
(:func:`standardize`) rather than per-window statistics: the fit must be stable
under a sliding window, and dBm-scale features would otherwise dominate.
"""

from __future__ import annotations

import math
import random
from collections import deque
from dataclasses import dataclass
from enum import Enum

from .telemetry import NetworkMetrics, _compile, bounded, check_bounds, from_doc

__all__ = [
    "Placement",
    "standardize",
    "LinearCoeffs",
    "RegimeSpec",
    "NetTraceConfig",
    "NetTrace",
    "gen_trace",
    "PredictorConfig",
    "BandwidthPredictor",
    "FitError",
    "decide_placement",
    "trace_config_from_dict",
]


class Placement(str, Enum):
    """Where inference for a device's stream runs."""

    EDGE = "Edge"
    DEVICE = "Device"


def standardize(net: NetworkMetrics) -> tuple:
    """The three radio features, each as (value - center) / scale.

    Centers -100 dBm RSRP, -12 dB RSRQ and -70 dBm RSSI; scales 20, 6 and 20.
    """
    return (
        (net.rsrp_dbm + 100.0) / 20.0,
        (net.rsrq_db + 12.0) / 6.0,
        (net.rssi_dbm + 70.0) / 20.0,
    )


@dataclass(frozen=True)
class LinearCoeffs:
    """Coefficients of the downlink model: intercept, radio terms, EWMA term."""

    b0: float
    b_rsrp: float = 0.0
    b_rsrq: float = 0.0
    b_rssi: float = 0.0
    b_hist: float = 0.0

    def as_tuple(self) -> tuple:
        return (self.b0, self.b_rsrp, self.b_rsrq, self.b_rssi, self.b_hist)


@dataclass(frozen=True)
class RegimeSpec:
    """One stationary stretch of the synthetic trace.

    ``rssi_jitter_std`` adds variation to RSSI beyond its RSRP-derived base
    so the three radio features are not collinear.
    """

    duration_ticks: int = bounded(gt=0)
    rsrp_mean_dbm: float
    rsrp_std: float = bounded(ge=0.0)
    rsrq_mean_db: float
    rsrq_std: float = bounded(ge=0.0)
    rssi_offset_db: float
    true_coeffs: LinearCoeffs
    noise_std_mbps: float = bounded(ge=0.0)
    rssi_jitter_std: float = bounded(2.0, ge=0.0)

    __post_init__ = check_bounds


@dataclass(frozen=True)
class NetTraceConfig:
    seed: int
    regimes: tuple[RegimeSpec, ...]
    ewma_alpha: float = bounded(0.3, gt=0.0, le=1.0)
    modem_temp_base_c: float = 38.0
    ul_fraction: float = bounded(0.12, ge=0.0)

    def __post_init__(self):
        check_bounds(self)
        if not self.regimes:
            raise ValueError("regimes must be non-empty")


def _z(x: float, mean: float, std: float) -> float:
    return (x - mean) / std if std > 0 else 0.0


class NetTrace:
    """Deterministic per-tick generator of (NetworkMetrics, true downlink Mbps).

    Regimes are consumed in order; past the last regime's duration it keeps
    producing from the last regime, so unbounded agent runs stay supplied.
    """

    def __init__(self, cfg: NetTraceConfig):
        self.cfg = cfg
        self._rng = random.Random(cfg.seed)
        self._ewma = 0.0
        self._regimes = iter(cfg.regimes)
        self._regime = next(self._regimes)
        self._ticks_left = self._regime.duration_ticks

    def tick(self) -> tuple:
        if not self._ticks_left:
            self._regime = next(self._regimes, self._regime)  # the last regime stays
            self._ticks_left = self._regime.duration_ticks
        self._ticks_left -= 1
        r = self._regime
        rng = self._rng
        # Each clamp is min(hi, max(lo, v)) inline, NaN and signed zeros included.
        v = rng.gauss(r.rsrp_mean_dbm, r.rsrp_std)
        rsrp = (v if v < -40.0 else -40.0) if v > -140.0 else -140.0
        v = rng.gauss(r.rsrq_mean_db, r.rsrq_std)
        rsrq = (v if v < 0.0 else 0.0) if v > -25.0 else -25.0
        v = rsrp + r.rssi_offset_db + rng.gauss(0.0, r.rssi_jitter_std)
        rssi = (v if v < 0.0 else 0.0) if v > -120.0 else -120.0
        dl_noise = rng.gauss(0.0, r.noise_std_mbps)
        modem_temp = self.cfg.modem_temp_base_c + rng.gauss(0.0, 0.5)

        # RSSI standardizes with the configured RSRP spread: its location is
        # RSRP-derived and the jitter only exists to keep the features
        # linearly independent.
        rssi_std = r.rsrp_std
        c = r.true_coeffs
        true_dl = (
            c.b0
            + c.b_rsrp * _z(rsrp, r.rsrp_mean_dbm, r.rsrp_std)
            + c.b_rsrq * _z(rsrq, r.rsrq_mean_db, r.rsrq_std)
            + c.b_rssi * _z(rssi, r.rsrp_mean_dbm + r.rssi_offset_db, rssi_std)
            + c.b_hist * self._ewma
            + dl_noise
        )
        true_dl = max(0.0, true_dl)

        net = NetworkMetrics(
            rssi_dbm=rssi,
            rsrq_db=rsrq,
            rsrp_dbm=rsrp,
            modem_temp_c=modem_temp,
            dl_mbps=true_dl,
            ul_mbps=self.cfg.ul_fraction * true_dl,
        )
        alpha = self.cfg.ewma_alpha
        self._ewma = alpha * true_dl + (1.0 - alpha) * self._ewma
        return net, true_dl


def gen_trace(cfg: NetTraceConfig, n_ticks: int) -> list:
    """Materialize ``n_ticks`` samples from a fresh generator."""
    if n_ticks < 0:
        raise ValueError("n_ticks must be >= 0")
    trace = NetTrace(cfg)
    return [trace.tick() for _ in range(n_ticks)]


class FitError(ValueError):
    """The ridge fit failed: a pivot lost positive definiteness or a coefficient is not finite."""


@dataclass(frozen=True)
class PredictorConfig:
    window: int = bounded(30, ge=1)
    ridge_lambda: float = bounded(1e-3, gt=0.0)  # keeps XᵀX + λI positive definite
    ewma_alpha: float = bounded(0.3, gt=0.0, le=1.0)
    min_window: int = 5

    __post_init__ = check_bounds


#: Feature count, and the (i, j) index pairs of the normal matrix's upper
#: triangle in row-major order: the layout of ``BandwidthPredictor._xtx``.
_N = 5
_UPPER = tuple((i, j) for i in range(_N) for j in range(i, _N))


def _generate_kernels():
    """Generate the unrolled ``_ACCUMULATE`` and ``_SOLVE`` for ``_N`` features.

    ``_ACCUMULATE(xtx, xty, row, y, sign)`` adds ``sign`` times one row's terms
    to the running sums in place.  ``_SOLVE(xtx, xty, lam)`` solves
    (XᵀX + λI) b = Xᵀy by Gaussian elimination without pivoting and back
    substitution, and returns b as a tuple.  Each performs the float
    operations of the loops it unrolls in their order, one name per matrix
    entry, so results are bit-identical to the loops and ``FitError`` is
    raised at the same points.
    """
    c = [f"c{i}" for i in range(_N)]
    accumulate = [
        "def _ACCUMULATE(xtx, xty, row, y, sign):",
        f"    {', '.join(f'r{i}' for i in range(_N))} = row",
        *(f"    s{i} = sign * r{i}" for i in range(_N)),
        *(f"    xtx[{k}] += s{i} * r{j}" for k, (i, j) in enumerate(_UPPER)),
        *(f"    xty[{i}] += s{i} * y" for i in range(_N)),
    ]
    solve = [
        "def _SOLVE(xtx, xty, lam):",
        f"    {', '.join(f'a{i}{j}' for i, j in _UPPER)} = xtx",
        *(f"    a{i}{i} = a{i}{i} + lam" for i in range(_N)),
        f"    {', '.join(f'b{i}' for i in range(_N))} = xty",
    ]
    for k in range(_N):
        solve += [
            f"    if not a{k}{k} > 0.0:",
            '        raise FitError("normal matrix lost positive definiteness")',
        ]
        for i in range(k + 1, _N):
            solve.append(f"    f = a{k}{i} / a{k}{k}")
            solve += [f"    a{i}{j} = a{i}{j} - f * a{k}{j}" for j in range(i, _N)]
            solve.append(f"    b{i} = b{i} - f * b{k}")
    for i in range(_N - 1, -1, -1):
        acc = f"b{i}" + "".join(f" - a{i}{j} * c{j}" for j in range(i + 1, _N))
        solve.append(f"    c{i} = ({acc}) / a{i}{i}")
    solve += [
        f"    if not ({' and '.join(f'_NINF < {ci} < _INF' for ci in c)}):",
        '        raise FitError("fit produced non-finite coefficients")',
        f"    return ({', '.join(c)})",
    ]
    return _compile("\n".join(accumulate), "_ACCUMULATE"), _compile("\n".join(solve), "_SOLVE", FitError=FitError)


_ACCUMULATE, _SOLVE = _generate_kernels()


class BandwidthPredictor:
    """Sliding-window ridge regression over radio features + throughput EWMA.

    Feature row is ``[1, z(rsrp), z(rsrq), z(rssi), ewma]`` where the EWMA is
    the value *before* the paired observation, matching what is available at
    prediction time.  Until ``min_window`` pairs have been seen, predictions
    fall back to the EWMA itself.

    The window's sufficient statistics XᵀX (upper triangle) and Xᵀy are kept
    as running sums: each update adds the new row and subtracts the evicted
    one, and every ``window`` updates they are rebuilt exactly from the
    window to bound floating-point drift.  The ridge system XᵀX + λI is
    symmetric positive definite for λ > 0, so Gaussian elimination needs no
    pivoting.
    """

    def __init__(self, config: PredictorConfig | None = None):
        self.config = config if config is not None else PredictorConfig()
        self.coefficients = (0.0,) * _N
        self.ewma_throughput = 0.0
        self._rows: deque = deque(maxlen=self.config.window)
        self._xtx = [0.0] * len(_UPPER)
        self._xty = [0.0] * _N
        self._since_rebuild = 0

    def __len__(self) -> int:
        return len(self._rows)

    def _feature_row(self, net: NetworkMetrics) -> tuple:
        z1, z2, z3 = standardize(net)
        return (1.0, z1, z2, z3, self.ewma_throughput)

    def update(self, net: NetworkMetrics, observed_dl_mbps: float) -> None:
        if not math.isfinite(observed_dl_mbps) or observed_dl_mbps < 0:
            raise ValueError(f"observed_dl_mbps must be finite and >= 0, got {observed_dl_mbps}")
        row = self._feature_row(net)
        rows = self._rows
        evicted = rows[0] if len(rows) == rows.maxlen else None
        rows.append((row, observed_dl_mbps))
        alpha = self.config.ewma_alpha
        self.ewma_throughput = alpha * observed_dl_mbps + (1.0 - alpha) * self.ewma_throughput
        self._since_rebuild += 1
        if self._since_rebuild >= self.config.window:
            self._rebuild()
        else:
            if evicted is not None:
                _ACCUMULATE(self._xtx, self._xty, evicted[0], evicted[1], -1.0)
            _ACCUMULATE(self._xtx, self._xty, row, observed_dl_mbps, 1.0)
        self.coefficients = _SOLVE(self._xtx, self._xty, self.config.ridge_lambda)

    def _rebuild(self) -> None:
        self._xtx = [0.0] * len(_UPPER)
        self._xty = [0.0] * _N
        for row, y in self._rows:
            _ACCUMULATE(self._xtx, self._xty, row, y, 1.0)
        self._since_rebuild = 0

    def predict(self, net: NetworkMetrics) -> float:
        """Predicted downlink rate in Mbps, clamped to be non-negative."""
        if len(self._rows) < self.config.min_window:
            return max(0.0, self.ewma_throughput)
        b0, b1, b2, b3, b4 = self.coefficients
        z1, z2, z3 = standardize(net)
        return max(0.0, b0 + b1 * z1 + b2 * z2 + b3 * z3 + b4 * self.ewma_throughput)


def decide_placement(
    predicted_dl_mbps: float,
    required_mbps: float,
    current: Placement,
    reentry_margin: float = 1.25,
) -> Placement:
    """Hysteretic edge/device placement decision.

    Moves Edge->Device when the predicted rate falls below the requirement;
    returns Device->Edge only once the prediction clears the requirement by
    ``reentry_margin``, so predictions oscillating inside the band
    [required, required*margin) never flap.
    """
    if required_mbps <= 0:
        raise ValueError(f"required_mbps must be > 0, got {required_mbps}")
    if reentry_margin < 1.0:
        raise ValueError(f"reentry_margin must be >= 1, got {reentry_margin}")
    if current == Placement.EDGE and predicted_dl_mbps < required_mbps:
        return Placement.DEVICE
    if current == Placement.DEVICE and predicted_dl_mbps >= required_mbps * reentry_margin:
        return Placement.EDGE
    return current


def trace_config_from_dict(d: dict) -> NetTraceConfig:
    """Build a NetTraceConfig from parsed JSON."""
    return from_doc(NetTraceConfig, d, ValueError)


#: Default single-regime trace used when an agent is started without one.
DEFAULT_TRACE_CONFIG = NetTraceConfig(
    seed=7,
    regimes=(
        RegimeSpec(
            duration_ticks=1_000_000,
            rsrp_mean_dbm=-95.0,
            rsrp_std=4.0,
            rsrq_mean_db=-10.0,
            rsrq_std=1.5,
            rssi_offset_db=17.0,
            true_coeffs=LinearCoeffs(b0=20.0, b_rsrp=2.0, b_rsrq=1.0, b_rssi=0.5, b_hist=0.2),
            noise_std_mbps=1.0,
        ),
    ),
)
