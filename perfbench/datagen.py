"""Seeded input data for the end-to-end benchmark.

The benchmark owns its data so that the program under test only ever sees
generated inputs, never the workload seed. The model matches the class the
paper evaluates on (hourly station anomalies): a low-rank spatial factor
field, where nearby stations share exposure to large-scale AR(1) "weather
modes", plus station-local AR(1) noise. Networks over it are non-trivial at
the thresholds the workloads use (0.75 and 0.9).

The modes sit on a fixed 4 x 6 grid over the domain and only the stations
and the noise are drawn from the seed. With modes at random stations, the
edge count of a network at 0.75 varied by 20% between seeds, and with it
the network payloads the server builds and ships; on the grid it varies by
about 4%, so a change of seed changes the inputs but not the workload.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

KM_PER_DEGREE = 111.0
MODE_LATS = np.linspace(27.0, 47.0, 4)
MODE_LONS = np.linspace(-120.0, -71.0, 6)
MODE_RADIUS_KM = 700.0


def _ar1(rng: np.random.Generator, n: int, length: int, phi: float,
         scale: float) -> np.ndarray:
    noise = rng.normal(0.0, scale * np.sqrt(1.0 - phi * phi), size=(n, length))
    out = np.empty((n, length))
    out[:, 0] = rng.normal(0.0, scale, size=n)
    for t in range(1, length):
        out[:, t] = phi * out[:, t - 1] + noise[:, t]
    return out


def make_dataset(seed: int, n_stations: int, n_points: int) -> dict:
    """A CONUS-like station set: ``values`` (n, L) plus names and coordinates."""
    rng = np.random.default_rng(seed)
    lats = rng.uniform(25.0, 49.0, size=n_stations)
    lons = rng.uniform(-124.0, -67.0, size=n_stations)
    mode_lats, mode_lons = (g.ravel() for g in np.meshgrid(MODE_LATS, MODE_LONS))
    dist_km = KM_PER_DEGREE * np.hypot(
        lats[:, None] - mode_lats[None, :],
        (lons[:, None] - mode_lons[None, :]) * np.cos(np.radians(37.0)),
    )
    loadings = np.exp(-0.5 * (dist_km / MODE_RADIUS_KM) ** 2)
    factors = _ar1(rng, len(mode_lats), n_points, phi=0.95, scale=2.0)
    local = _ar1(rng, n_stations, n_points, phi=0.8, scale=1.0)
    return {
        "values": loadings @ factors + local,
        "names": [f"st{i:03d}" for i in range(n_stations)],
        "lats": lats,
        "lons": lons,
    }


def save_npz(path: Path, dataset: dict) -> None:
    """Write the dataset in the ``tsubasa generate`` archive layout."""
    np.savez_compressed(
        path,
        values=dataset["values"],
        names=np.array(dataset["names"]),
        lats=dataset["lats"],
        lons=dataset["lons"],
        resolution_hours=np.float64(1.0),
    )
