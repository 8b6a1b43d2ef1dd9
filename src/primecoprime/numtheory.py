"""Integer arithmetic: primality, factorization, totient, divisor lists.

The public functions use deterministic trial division and keep no state
between calls; the callers mostly need moderate sizes (group parameters,
element orders).  A sweep that factorizes every n of a range sieves the
range in bounded segments instead (_factorizations), with the same trial
divisors.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from itertools import chain, count, product

__all__ = [
    "Factorization",
    "is_prime",
    "factorize",
    "euler_phi",
    "divisors",
    "phi_sum_expansion",
]


def _check_positive(n: int, what: str) -> None:
    if n < 1:
        raise ValueError(f"{what} must be a positive integer, got {n}")


def is_prime(n: int) -> bool:
    """Trial-division primality test; 1 is not prime."""
    _check_positive(n, "primality argument")
    if n < 4:
        return n > 1
    if n % 2 == 0 or n % 3 == 0:
        return False
    f = 5
    while f * f <= n:
        if n % f == 0 or n % (f + 2) == 0:
            return False
        f += 6
    return True


@dataclass(frozen=True)
class Factorization:
    """Prime factorization value = prod(primes[i] ** exponents[i]), primes ascending."""

    value: int
    primes: tuple[int, ...]
    exponents: tuple[int, ...]

    def __post_init__(self) -> None:
        _check_positive(self.value, "factorization value")
        if len(self.primes) != len(self.exponents):
            raise ValueError("primes and exponents must have equal length")
        if list(self.primes) != sorted(set(self.primes)):
            raise ValueError("primes must be distinct and ascending")
        if any(e < 1 for e in self.exponents):
            raise ValueError("exponents must be >= 1")
        if any(not is_prime(p) for p in self.primes):
            raise ValueError("every base must be prime")
        rebuilt = 1
        for p, e in zip(self.primes, self.exponents):
            rebuilt *= p**e
        if rebuilt != self.value:
            raise ValueError(f"factors rebuild {rebuilt}, expected {self.value}")

    @classmethod
    def _trusted(
        cls, value: int, primes: tuple[int, ...], exponents: tuple[int, ...]
    ) -> Factorization:
        """Build without validation; only for factorizations this module
        has just computed, whose bases are prime by construction."""
        f = object.__new__(cls)
        object.__setattr__(f, "value", value)
        object.__setattr__(f, "primes", primes)
        object.__setattr__(f, "exponents", exponents)
        return f

    @property
    def prime_count(self) -> int:
        return len(self.primes)


def factorize(n: int) -> Factorization:
    """Factor n >= 1 by trial division (6k+-1 wheel)."""
    _check_positive(n, "factorize argument")
    primes: list[int] = []
    exponents: list[int] = []
    rest = n

    def strip(p: int) -> None:
        nonlocal rest
        if rest % p == 0:
            e = 0
            while rest % p == 0:
                rest //= p
                e += 1
            primes.append(p)
            exponents.append(e)

    strip(2)
    strip(3)
    f = 5
    while f * f <= rest:
        strip(f)
        strip(f + 2)
        f += 6
    if rest > 1:
        primes.append(rest)
        exponents.append(1)
    return Factorization._trusted(n, tuple(primes), tuple(exponents))


# n per segment of _factorizations; bounds its memory whatever the range
_SEGMENT = 1 << 13


def _factorizations(lo: int, hi: int) -> Iterator[Factorization]:
    """factorize(n) for each n in lo..hi (lo >= 1), in ascending order.

    The range is sieved one segment at a time.  Each trial divisor of
    factorize (2, 3 and the 6k+-1 wheel) up to the square root of the
    segment's end visits only its own multiples in the segment, so a dense
    sweep pays about log log n steps per n, not the sqrt(n) of trial
    division.  Divisors run in ascending order, so a composite divisor
    finds its prime factors already removed and is skipped.
    """
    for a in range(lo, hi + 1, _SEGMENT):
        b = min(a + _SEGMENT - 1, hi)
        rest = list(range(a, b + 1))
        primes: list[list[int]] = [[] for _ in rest]
        exponents: list[list[int]] = [[] for _ in rest]
        for d in chain((2, 3), chain.from_iterable(zip(count(5, 6), count(7, 6)))):
            if d * d > b:
                break
            for i in range(-a % d, len(rest), d):
                m = rest[i]
                if m % d:
                    continue
                e = 0
                while m % d == 0:
                    m //= d
                    e += 1
                rest[i] = m
                primes[i].append(d)
                exponents[i].append(e)
        # what is left of n is 1 or a prime above every divisor tried
        for n, m, ps, es in zip(range(a, b + 1), rest, primes, exponents):
            if m > 1:
                ps.append(m)
                es.append(1)
            yield Factorization._trusted(n, tuple(ps), tuple(es))


def euler_phi(n: int) -> int:
    """Euler totient via the product formula; euler_phi(1) == 1."""
    f = factorize(n)
    result = 1
    for p, e in zip(f.primes, f.exponents):
        result *= p**e - p ** (e - 1)
    return result


def divisors(n: int) -> list[int]:
    """All positive divisors of n, ascending."""
    return _divisors_of(factorize(n))


def _divisors_of(f: Factorization) -> list[int]:
    """All positive divisors of f.value, ascending."""
    divs = [1]
    for p, e in zip(f.primes, f.exponents):
        powers = [p**k for k in range(e + 1)]
        divs = [d * q for d in divs for q in powers]
    return sorted(divs)


def phi_sum_expansion(f: Factorization) -> int:
    """Expand sum of euler_phi over the divisors of f.value as the sum, over all
    subsets A of the prime support, of prod_{i in A} (p_i**e_i - 1).

    The expansion is evaluated literally (2**k terms) so it stays an
    independent computation path from euler_phi; both must equal f.value.
    """
    if f.value <= 1:
        raise ValueError("expansion requires a value with at least one prime factor")
    terms = [p**e - 1 for p, e in zip(f.primes, f.exponents)]
    total = 0
    for picks in product((0, 1), repeat=len(terms)):
        contribution = 1
        for chosen, term in zip(picks, terms):
            if chosen:
                contribution *= term
        total += contribution
    return total
