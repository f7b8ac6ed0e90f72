"""Elevation-aware utilities: lapse-rate correction and topographic position index.

The elevation raster uses the plain-text ESRI ASCII grid format (header keys
ncols, nrows, xllcorner, yllcorner, cellsize, NODATA_value followed by
row-major values, first data row = northernmost). Station coordinates must be
expressed in the same planar units as the grid origin and cell size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .domain import StationMetadata

__all__ = [
    "LAPSE_RATE_C_PER_100M",
    "ElevationGrid",
    "lapse_correct",
    "tpi",
    "tpi_at_station",
    "read_esri_ascii",
    "write_esri_ascii",
]

# Constant vertical temperature adjustment, deg C per 100 m.
LAPSE_RATE_C_PER_100M = 0.6


@dataclass(frozen=True)
class ElevationGrid:
    """Regular elevation raster; values stored row-major, row 0 northernmost."""

    n_rows: int
    n_cols: int
    cell_size: float
    origin: tuple[float, float]  # (xllcorner, yllcorner)
    values: tuple[float, ...]
    nodata: float = -9999.0

    def __post_init__(self):
        if self.cell_size <= 0.0:
            raise ValueError("cell_size must be > 0")
        if len(self.values) != self.n_rows * self.n_cols:
            raise ValueError(
                f"expected {self.n_rows * self.n_cols} values, got {len(self.values)}"
            )

    def value_at(self, row: int, col: int) -> float:
        if not (0 <= row < self.n_rows and 0 <= col < self.n_cols):
            raise IndexError(f"cell ({row}, {col}) outside grid")
        return self.values[row * self.n_cols + col]

    def cell_of(self, x: float, y: float) -> tuple[int, int]:
        """Cell containing (x, y); extents are half-open from the origin, so a
        point exactly on a boundary belongs to the cell whose lower-left
        corner it touches."""
        x0, y0 = self.origin
        col = math.floor((x - x0) / self.cell_size)
        row_from_bottom = math.floor((y - y0) / self.cell_size)
        row = self.n_rows - 1 - row_from_bottom
        if not (0 <= row < self.n_rows and 0 <= col < self.n_cols):
            raise ValueError(f"point ({x}, {y}) outside grid")
        return row, col


def lapse_correct(
    forecast_members,
    grid_elevation: float,
    station_elevation: float,
    lapse_rate: float = LAPSE_RATE_C_PER_100M,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Shift member temperatures from grid-point elevation to station elevation.

    Each member gains lapse_rate/100 * (grid_elevation - station_elevation):
    a grid point above the station warms the forecast. ``forecast_members``
    is any array of members, such as one station's rows of a member matrix;
    ``out`` receives the result when given (the members themselves, to
    shift them in place).
    """
    if not (math.isfinite(grid_elevation) and math.isfinite(station_elevation)):
        raise ValueError("elevations must be finite")
    offset = lapse_rate / 100.0 * (grid_elevation - station_elevation)
    return np.add(np.asarray(forecast_members, dtype=float), offset, out=out)


_NEIGHBOR_OFFSETS = ((-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0), (1, 1))


def tpi(grid: ElevationGrid, row: int, col: int) -> float:
    """Topographic position index: cell value minus the mean of its eight
    neighbors. Positive marks ridges and peaks, negative marks valleys."""
    if not (1 <= row < grid.n_rows - 1 and 1 <= col < grid.n_cols - 1):
        raise ValueError(f"TPI undefined on border cell ({row}, {col})")
    center = grid.value_at(row, col)
    if center == grid.nodata:
        raise ValueError(f"TPI undefined: cell ({row}, {col}) is nodata")
    total = 0.0
    for dr, dc in _NEIGHBOR_OFFSETS:
        v = grid.value_at(row + dr, col + dc)
        if v == grid.nodata:
            raise ValueError(f"TPI undefined: neighbor ({row + dr}, {col + dc}) is nodata")
        total += v
    return center - total / 8.0


def tpi_at_station(grid: ElevationGrid, station: StationMetadata) -> float:
    """TPI of the grid cell containing the station (longitude -> x, latitude -> y)."""
    row, col = grid.cell_of(station.longitude, station.latitude)
    return tpi(grid, row, col)


def read_esri_ascii(path) -> ElevationGrid:
    """Parse an ESRI ASCII grid file."""
    path = Path(path)
    header: dict[str, float] = {}
    data: list[float] = []
    with path.open("r", encoding="utf-8") as fh:
        lines = iter(enumerate(fh, start=1))
        for line_no, line in lines:
            parts = line.split()
            if not parts:
                continue
            key = parts[0].lower()
            if key in ("ncols", "nrows", "xllcorner", "yllcorner", "cellsize", "nodata_value"):
                if len(parts) != 2:
                    raise ValueError(f"{path}:{line_no}: malformed header line {line.strip()!r}")
                header[key] = float(parts[1])
            else:
                data.extend(float(tok) for tok in parts)
                break
        for _, line in lines:
            data.extend(float(tok) for tok in line.split())

    for required in ("ncols", "nrows", "xllcorner", "yllcorner", "cellsize"):
        if required not in header:
            raise ValueError(f"{path}: missing header key {required!r}")
    n_rows = int(header["nrows"])
    n_cols = int(header["ncols"])
    if len(data) != n_rows * n_cols:
        raise ValueError(f"{path}: expected {n_rows * n_cols} values, found {len(data)}")
    return ElevationGrid(
        n_rows=n_rows,
        n_cols=n_cols,
        cell_size=header["cellsize"],
        origin=(header["xllcorner"], header["yllcorner"]),
        values=tuple(data),
        nodata=header.get("nodata_value", -9999.0),
    )


def write_esri_ascii(path, grid: ElevationGrid) -> None:
    """Write a grid in ESRI ASCII format (9 significant digits)."""
    path = Path(path)
    arr = np.asarray(grid.values).reshape(grid.n_rows, grid.n_cols)
    with path.open("w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"ncols {grid.n_cols}\n")
        fh.write(f"nrows {grid.n_rows}\n")
        fh.write(f"xllcorner {grid.origin[0]:.9g}\n")
        fh.write(f"yllcorner {grid.origin[1]:.9g}\n")
        fh.write(f"cellsize {grid.cell_size:.9g}\n")
        fh.write(f"NODATA_value {grid.nodata:.9g}\n")
        for row in arr:
            fh.write(" ".join(f"{v:.9g}" for v in row) + "\n")
