"""Grid helpers that only tests use: the float mode at its default eps,
and every point of a grid as an `Interval`, in grid order."""

from ivhom.compiler import _pairs
from ivhom.interval import NumericMode

FLOAT = NumericMode("float")


def grid_points(grid):
    """Every point of `grid` as an `Interval`, in grid order, each made by
    `Grid.point`."""
    return tuple(map(grid.point, _pairs(grid.resolution)))
