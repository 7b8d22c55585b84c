"""Interval-valued functions on I([0,1]) with exhaustive homogeneity checks.

The package re-exports nothing: import from its modules, such as
`ivhom.interval`, `ivhom.expr`, `ivhom.functions` and `ivhom.homogeneity`.
"""

__version__ = "0.1.0"
