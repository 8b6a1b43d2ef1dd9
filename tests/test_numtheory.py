"""Arithmetic layer against scan-based oracles and known values."""

import math

import pytest
from hypothesis import given, strategies as st

from primecoprime.numtheory import (
    Factorization,
    divisors,
    euler_phi,
    factorize,
    is_prime,
    phi_sum_expansion,
    _factorizations,
)
from conftest import naive_is_prime


def test_is_prime_small_table():
    expected = {1: False, 2: True, 3: True, 4: False, 5: True, 9: False,
                25: False, 91: False, 97: True, 7919: True, 7917: False}
    for n, want in expected.items():
        assert is_prime(n) is want


def test_is_prime_matches_naive_scan():
    for n in range(1, 500):
        assert is_prime(n) == naive_is_prime(n)


def test_is_prime_rejects_nonpositive():
    with pytest.raises(ValueError):
        is_prime(0)


def test_factorize_known_values():
    f = factorize(360)
    assert f.primes == (2, 3, 5)
    assert f.exponents == (3, 2, 1)
    assert factorize(1).primes == ()
    assert factorize(97).primes == (97,)
    assert factorize(1024).exponents == (10,)


def test_factorization_validation():
    with pytest.raises(ValueError):
        Factorization(12, (2, 3), (1, 1))  # rebuilds 6, not 12
    with pytest.raises(ValueError):
        Factorization(12, (3, 2), (1, 2))  # primes out of order
    with pytest.raises(ValueError):
        Factorization(12, (4, 3), (1, 1))  # 4 is not prime
    with pytest.raises(ValueError):
        Factorization(12, (2, 3), (2,))  # length mismatch


def test_sieve_matches_trial_division():
    assert list(_factorizations(1, 20000)) == [factorize(n) for n in range(1, 20001)]


def test_sieve_ranges():
    # ranges that start past 1 and cross segment boundaries
    for lo, hi in ((2, 2), (9000, 26000), (99990, 100010)):
        assert list(_factorizations(lo, hi)) == [factorize(n) for n in range(lo, hi + 1)]
    assert list(_factorizations(5, 4)) == []
    # a narrow range at a large bound needs no table up to the bound
    big = 10**10
    assert list(_factorizations(big - 3, big)) == [factorize(n) for n in range(big - 3, big + 1)]


@given(st.integers(min_value=1, max_value=10**6))
def test_trusted_factorization_passes_validation(n):
    f = factorize(n)
    # the validating constructor accepts what factorize built unchecked
    assert f == Factorization(n, f.primes, f.exponents)


def test_euler_phi_known_values():
    expected = {1: 1, 2: 1, 4: 2, 12: 4, 36: 12, 97: 96, 360: 96}
    for n, want in expected.items():
        assert euler_phi(n) == want


def test_euler_phi_matches_gcd_scan():
    for n in range(1, 200):
        scan = sum(1 for k in range(1, n + 1) if math.gcd(n, k) == 1)
        assert euler_phi(n) == scan


def test_divisors_known_and_scanned():
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert divisors(1) == [1]
    for n in range(1, 200):
        scan = [d for d in range(1, n + 1) if n % d == 0]
        assert divisors(n) == scan


def test_phi_sum_expansion_examples():
    assert phi_sum_expansion(factorize(36)) == 36
    assert phi_sum_expansion(factorize(97)) == 97
    with pytest.raises(ValueError):
        phi_sum_expansion(factorize(1))


@given(st.integers(min_value=2, max_value=10**6))
def test_factorize_round_trip(n):
    f = factorize(n)
    rebuilt = 1
    for p, e in zip(f.primes, f.exponents):
        assert is_prime(p)
        rebuilt *= p**e
    assert rebuilt == n
    assert list(f.primes) == sorted(f.primes)


@given(st.integers(min_value=1, max_value=2000), st.integers(min_value=1, max_value=2000))
def test_euler_phi_multiplicative(a, b):
    if math.gcd(a, b) == 1:
        assert euler_phi(a * b) == euler_phi(a) * euler_phi(b)


@given(st.integers(min_value=2, max_value=5000))
def test_phi_sum_expansion_is_identity(n):
    f = factorize(n)
    assert phi_sum_expansion(f) == sum(euler_phi(d) for d in divisors(n)) == n
