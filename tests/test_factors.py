import math

import pytest

from xparity.factors import epsilon_prime, tau


def test_tau_known_roots():
    # tau(1,1) solves 2/x = 1
    assert abs(tau(1, 1) - 2.0) < 1e-9
    # tau(1,2) is the golden ratio
    assert abs(tau(1, 2) - (1 + math.sqrt(5)) / 2) < 1e-9
    # tau(2,2): 2 x^-2 = 1
    assert abs(tau(2, 2) - math.sqrt(2)) < 1e-9
    # symmetric vectors: tau(a,a) = 2^(1/a)
    assert abs(tau(7.5, 7.5) - 2 ** (1 / 7.5)) < 1e-9


def test_tau_satisfies_its_equation():
    for vector in [(12, 4), (6, 9), (10.5, 4.5), (13.5, 3), (15, 12, 9), (5, 1), (9, 4)]:
        root = tau(*vector)
        assert abs(sum(root**-a for a in vector) - 1.0) < 1e-9


def test_paper_upper_bounds():
    # the reported four-decimal factors are upper bounds on the true roots
    for vector, bound in [
        ((12, 4), 1.1003),
        ((7.5, 7.5), 1.0969),
        ((6, 9), 1.0983),
        ((10.5, 4.5), 1.1031),
        ((13.5, 3), 1.1052),
        ((15, 12, 9), 1.0983),
        ((5, 1), 1.3248),
        ((9, 4), 1.1193),
        ((1, 2), 1.6181),
    ]:
        root = tau(*vector)
        assert root < bound + 1e-9
        assert root > bound - 1.2e-4


def test_single_entry_vector_degenerates():
    assert tau(5) == 1.0
    with pytest.raises(ValueError):
        tau()
    with pytest.raises(ValueError):
        tau(0, 1)


def test_fibonacci_constants():
    # tau(d, d-1, ..., 1), the growth of variable branching on positive
    # formulas of maximum degree d, is the root of x^d (2 - x) = 1 in [1, 2)
    assert tau(1) == 1.0  # x (2 - x) = 1 has the root 1
    assert abs(tau(2, 1) - 1.6180339) < 1e-5  # the golden ratio
    for d in (2, 3, 4, 5):
        root = tau(*range(d, 0, -1))
        assert abs(root**d * (2 - root) - 1.0) < 1e-6
        assert 1 < root < 2


def test_fibonacci_increases_to_two():
    values = [tau(*range(d, 0, -1)) for d in range(2, 9)]
    assert all(a < b for a, b in zip(values, values[1:]))
    assert values[-1] < 2


def test_epsilon_prime():
    eps_p = epsilon_prime(16)
    assert 0 < eps_p < 3
    assert (3 - eps_p) * (1 / 6 + 1e-9) <= 0.5 - 1 / 16 + 1e-12
    # the slack shrinks as the base-case threshold grows but stays positive
    assert 0 < epsilon_prime(1000) < eps_p
    with pytest.raises(ValueError, match="n_eps=0 is below 1"):
        epsilon_prime(0)
