"""Branching-vector roots and related constants.

tau(a1, ..., al) is the unique positive root of 1 = sum x^(-ai): the base of
the search-tree growth for a branching rule whose i-th branch drops the
measure by a_i.  Roots are found by bisection; nothing here is proved, only
computed, which is all the desk-scale checks need.
"""

from __future__ import annotations


def tau(*vector: float, tol: float = 1e-12) -> float:
    if not vector:
        raise ValueError("empty branching vector")
    if any(a <= 0 for a in vector):
        raise ValueError("branching vector entries must be positive")
    if len(vector) == 1:
        return 1.0

    def f(x: float) -> float:
        return sum(x ** -a for a in vector) - 1.0

    lo, hi = 1.0, 2.0
    while f(hi) > 0:
        hi *= 2
    for _ in range(200):
        mid = (lo + hi) / 2
        if hi - lo < tol:
            break
        if f(mid) > 0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def epsilon_prime(n_eps: int, eps: float = 1e-9) -> float:
    """Largest eps' with (3 - eps')(1/6 + eps) <= 1/2 - 1/n_eps, the slack
    that makes rebisection measure-safe."""
    val = 3.0 - (0.5 - 1.0 / n_eps) / (1.0 / 6.0 + eps)
    if val <= 0:
        raise ValueError(f"no positive eps' exists for n_eps={n_eps}")
    return val
