#!/usr/bin/env python3
"""Spatial grid imputation and temporal upsampling.

Sparse station readings land on a small grid; empty blocks take the
mean of their four nearest known blocks.  A six-hourly series is then
upsampled to hourly ticks by linear interpolation.
"""

import numpy as np

import compnet as cn


def show_grid(grid, title):
    print(title)
    for row in grid:
        print("   " + "  ".join("   .  " if not np.isfinite(v) else f"{v:6.2f}" for v in row))


def main():
    spec = cn.GridSpec(
        rows=5,
        cols=7,
        stations=[(0, 1, "st-a"), (1, 5, "st-b"), (3, 2, "st-c"), (4, 6, "st-d"), (3, 2, "st-e")],
    )
    readings = {"st-a": 12.0, "st-b": 30.0, "st-c": 18.0, "st-d": 44.0, "st-e": 22.0}
    grid = cn.rasterize_stations(spec, readings)
    show_grid(grid, "station readings on the grid (co-located stations averaged):")

    filled = cn.knn_impute(grid, spec, k=4)
    show_grid(filled, "\nafter 4-nearest-neighbor imputation:")

    print("\nsix-hourly series to hourly:")
    series = np.array([10.0, 22.0, 16.0, 28.0])
    hourly = cn.interpolate_time(series, step=6)
    print(f"   ticks : {series}")
    print(f"   hourly: {np.round(hourly, 2)}")
    assert all(hourly[6 * i] == series[i] for i in range(len(series)))


if __name__ == "__main__":
    main()
