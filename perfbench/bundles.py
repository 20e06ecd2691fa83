"""Seeded input bundles for the benchmark, derived from the shipped fixture.

Every bundle is the ``two_node_48h`` fixture with each series tiled ``k``
times and ``n_years`` scaled to match. Seed 0 is the unperturbed tiling;
any other seed multiplies the hourly demand series by a smooth seeded
factor (see ``demand_factor``). The program only ever sees the bundle
written to disk.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import numpy as np

from gridplan import TimeSeriesSet, load_bundle, save_bundle

FIXTURE = (Path(__file__).resolve().parent.parent
           / "src" / "gridplan" / "data" / "two_node_48h")

# Hourly series that are demand; the factor applies to these only.
_DEMAND_FIELDS = ("d_elec", "d_heat_full", "d_veh_full")
# Series kept at daily or monthly resolution tile by whole days, which is
# the same as tiling the array because the fixture spans whole days.
_SERIES_FIELDS = tuple(f.name for f in dataclasses.fields(TimeSeriesSet))


def base_config() -> dict:
    """The fixture's own scenario.json, as a mapping."""
    return json.loads((FIXTURE / "scenario.json").read_text())


def demand_factor(seed: int, node_index: int, n_hours: int) -> np.ndarray:
    """Smooth per-hour factor within [0.999, 1.0]; all ones for seed 0.

    A daily and a weekly sinusoid with seeded phases, so neighbouring hours
    move together. The factor never raises demand: at +2% one sweep cell
    of the fixture is already infeasible. It stays within 0.1% because
    larger factors change the simplex's pivot path more, so that iteration
    counts, and with them op times, spread several percent across seeds.
    """
    if seed == 0:
        return np.ones(n_hours)
    rng = np.random.default_rng([seed, node_index])
    daily, weekly = rng.uniform(0.0, 2.0 * np.pi, size=2)
    t = np.arange(n_hours, dtype=float)
    wave = (np.sin(2.0 * np.pi * t / 24.0 + daily)
            + np.sin(2.0 * np.pi * t / 168.0 + weekly))
    return 1.0 - 0.0005 * (1.0 + 0.5 * wave)


def write_bundle(path: Path, k: int, seed: int) -> Path:
    """Write the fixture tiled ``k`` times, perturbed by ``seed``, to
    ``path`` and return it."""
    fixture = load_bundle(FIXTURE)
    series = fixture.series
    n_hours = series.n_hours * k
    node_order = sorted(series.d_elec)
    tiled = {}
    for name in _SERIES_FIELDS:
        mapping = getattr(series, name)
        if mapping is None:
            continue
        out = {}
        for node, arr in mapping.items():
            arr = np.tile(np.asarray(arr, dtype=float), k)
            if name in _DEMAND_FIELDS:
                arr = arr * demand_factor(seed, node_order.index(node),
                                          n_hours)
            out[node] = arr
        tiled[name] = out
    params = dataclasses.replace(fixture.params,
                                 n_years=fixture.params.n_years * k)
    save_bundle(path, fixture.network,
                dataclasses.replace(series, **tiled), fixture.costs, params,
                fixture.emissions)
    return path
