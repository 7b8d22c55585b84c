"""A fixed pure-Python workload that gauges how fast the machine runs now.

The benchmark shares its cores with other tenants, and the speed of the
same job drifts by up to a factor of two within minutes, while the ratio of
its time to this script's time stays within a few percent. `run.py` runs
`python3 perfbench/reference.py` before and after every job and rescales the
job's times to the speed at which this script takes `NOMINAL_S`. Run as a
child process, it gauges interpreter start-up as well as computation; its
computation follows the program's mix: frozen dataclasses with a range
check, built from `Fraction` and from float endpoints. It does not import
`ivhom`, so no change to the program can move it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction

#: seconds this script is taken to last, start-up included, at the
#: reference speed
NOMINAL_S = 0.05


@dataclass(frozen=True)
class _Pair:
    lo: object
    hi: object

    def __post_init__(self) -> None:
        if not 0 <= self.lo <= self.hi <= 1:
            raise ValueError("unordered pair")


_EXACT = tuple(_Pair(Fraction(i, 61), Fraction(i + 1, 61)) for i in range(60))
_FLOAT = tuple(_Pair(p.lo.numerator / 61, p.hi.numerator / 61) for p in _EXACT)
_ROUNDS = 4


def kernel() -> float:
    """Run the fixed work once and return its wall time in seconds."""
    t0 = time.perf_counter()
    for _ in range(_ROUNDS):
        for pairs in (_EXACT, _FLOAT):
            for p in pairs:
                for q in pairs[::7]:
                    _Pair(p.lo * q.lo, min(p.hi, q.hi))
    return time.perf_counter() - t0


if __name__ == "__main__":
    kernel()
