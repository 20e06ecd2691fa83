"""Bundle-preparation helpers: monthly-to-hourly/daily hydro
disaggregation and subsidized nuclear pricing.

Hydro data often arrives as monthly energy totals. Each total is split into
a must-run (fixed) and a dispatchable (flexible) share, then smoothed to the
model's native resolution with a natural cubic spline through month-midpoint
mean rates. Spline overshoot below zero is clamped and every month is
rescaled afterwards, so monthly energy is conserved exactly no matter what
the interpolant does in between. The two series are written into a bundle's
``h_fix`` and ``h_flex_daily``, the only route by which hydro reaches the LP.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from gridplan.model import HOURS_PER_DAY

#: Month lengths of the fixed (non-leap) model calendar.
MONTH_DAYS = (31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31)

_MIN_SPLINE_MONTHS = 4
_CONSERVATION_TOL = 1e-9


def split_hydro(monthly_total: np.ndarray, y_fix: float):
    """Split monthly hydro energy into (fixed, flexible) monthly series."""
    if not 0.0 <= y_fix <= 1.0:
        raise ValueError(f"fixed fraction must be in [0, 1], got {y_fix}")
    total = np.asarray(monthly_total, dtype=float)
    fixed = y_fix * total
    return fixed, total - fixed


def month_midpoint_hours(month_days) -> np.ndarray:
    """Hour coordinate of each month's midpoint on the hourly axis."""
    hours = HOURS_PER_DAY * np.asarray(month_days, dtype=float)
    starts = np.concatenate([[0.0], np.cumsum(hours)[:-1]])
    return starts + hours / 2.0


class _NaturalCubic:
    """Natural cubic spline through (x, y); extrapolates with end segments."""

    def __init__(self, x: np.ndarray, y: np.ndarray):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        n = x.size
        h = np.diff(x)
        # Second derivatives from the standard tridiagonal system with
        # natural boundary conditions (zero curvature at both ends).
        m = np.zeros(n)
        if n > 2:
            diag = 2.0 * (h[:-1] + h[1:])
            rhs = 6.0 * (np.diff(y[1:]) / h[1:] - np.diff(y[:-1]) / h[:-1])
            sub = h[1:-1].copy()
            sup = h[1:-1].copy()
            # Thomas algorithm.
            for i in range(1, n - 2):
                w = sub[i - 1] / diag[i - 1]
                diag[i] -= w * sup[i - 1]
                rhs[i] -= w * rhs[i - 1]
            interior = np.zeros(n - 2)
            interior[-1] = rhs[-1] / diag[-1]
            for i in range(n - 4, -1, -1):
                interior[i] = (rhs[i] - sup[i] * interior[i + 1]) / diag[i]
            m[1:-1] = interior
        self._x = x
        self._y = y
        self._h = h
        self._m = m

    def __call__(self, t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        idx = np.clip(np.searchsorted(self._x, t) - 1, 0, self._x.size - 2)
        x0 = self._x[idx]
        x1 = self._x[idx + 1]
        h = self._h[idx]
        m0 = self._m[idx]
        m1 = self._m[idx + 1]
        y0 = self._y[idx]
        y1 = self._y[idx + 1]
        a = (x1 - t) / h
        b = (t - x0) / h
        return (
            m0 * (x1 - t) ** 3 / (6.0 * h)
            + m1 * (t - x0) ** 3 / (6.0 * h)
            + (y0 - m0 * h * h / 6.0) * a
            + (y1 - m1 * h * h / 6.0) * b
        )


def _disaggregate(monthly: np.ndarray, steps_per_month: np.ndarray,
                  what: str) -> np.ndarray:
    """Spline monthly totals to a finer grid, conserving each month."""
    monthly = np.asarray(monthly, dtype=float)
    if monthly.ndim != 1 or monthly.size != steps_per_month.size:
        raise ValueError(
            f"need one monthly total per calendar month, got {monthly.size} "
            f"values for {steps_per_month.size} months"
        )
    if np.any(monthly < 0.0):
        raise ValueError("monthly energy totals must be >= 0")
    edges = np.concatenate([[0], np.cumsum(steps_per_month)])
    n_steps = int(edges[-1])
    rates = monthly / steps_per_month

    if monthly.size < _MIN_SPLINE_MONTHS:
        warnings.warn(
            f"only {monthly.size} months of {what} data: using the "
            "piecewise-constant monthly rate instead of a spline",
            UserWarning,
            stacklevel=3,
        )
        return np.repeat(rates, steps_per_month.astype(int))

    midpoints = np.concatenate([[0.0], np.cumsum(steps_per_month)[:-1]]) \
        + steps_per_month / 2.0
    spline = _NaturalCubic(midpoints, rates)
    values = np.clip(spline(np.arange(n_steps) + 0.5), 0.0, None)

    for m in range(monthly.size):
        seg = slice(int(edges[m]), int(edges[m + 1]))
        seg_sum = values[seg].sum()
        if seg_sum > 0.0:
            values[seg] *= monthly[m] / seg_sum
        elif monthly[m] > 0.0:
            # Entire month clamped away: fall back to the flat rate.
            values[seg] = rates[m]
    return values


def disaggregate_fixed(monthly: np.ndarray, month_days=MONTH_DAYS) -> np.ndarray:
    """Hourly must-run hydro series from monthly totals."""
    steps = HOURS_PER_DAY * np.asarray(month_days, dtype=float)
    return _disaggregate(monthly, steps, "fixed hydro")


def disaggregate_flexible(monthly: np.ndarray, month_days=MONTH_DAYS) -> np.ndarray:
    """Daily dispatchable hydro totals from monthly totals."""
    steps = np.asarray(month_days, dtype=float)
    return _disaggregate(monthly, steps, "flexible hydro")


@dataclass(frozen=True)
class HydroProfile:
    """Disaggregated hydro for one node: the values of the bundle series
    ``h_fix`` (hourly) and ``h_flex_daily`` (daily)."""

    h_fix_hourly: np.ndarray
    h_flex_daily: np.ndarray

    def __post_init__(self):
        for name in ("h_fix_hourly", "h_flex_daily"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def build_hydro_profile(monthly_total: np.ndarray, y_fix: float,
                        month_days=MONTH_DAYS) -> HydroProfile:
    """Split monthly hydro and disaggregate both shares."""
    fixed_m, flex_m = split_hydro(monthly_total, y_fix)
    return HydroProfile(
        h_fix_hourly=disaggregate_fixed(fixed_m, month_days),
        h_flex_daily=disaggregate_flexible(flex_m, month_days),
    )


def nuclear_subsidized_price(
    base_lbmp: float,
    zec_rate: float,
    demand_forecast_mwh_per_yr: float,
    constant_gen_mwh_per_h: float,
) -> float:
    """Nuclear energy price with the per-MWh credit subsidy folded in.

    The subsidy spreads the credit payment (rate times the annual demand
    forecast the payment is levied on) over the plant's annual output.
    """
    if zec_rate == 0.0:
        return base_lbmp
    if constant_gen_mwh_per_h <= 0.0:
        raise ValueError(
            "a subsidy requires nonzero constant nuclear generation"
        )
    annual_gen = constant_gen_mwh_per_h * 8760.0
    return base_lbmp + zec_rate * demand_forecast_mwh_per_yr / annual_gen
