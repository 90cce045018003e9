"""Prime generation for NTT-friendly moduli.

An NTT over ``Z_q[X]/(X^N + 1)`` (negacyclic) needs a primitive 2N-th root of
unity modulo ``q``, which exists iff ``q ≡ 1 (mod 2N)``.  This module
generates such primes at a requested bit width, finds primitive roots, and
derives the roots of unity used by :mod:`repro.poly.ntt`.
"""

from __future__ import annotations

from typing import Iterator, List

# Deterministic Miller-Rabin witnesses valid for all n < 3.3 * 10**24
# (covers every modulus this library can represent).
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

_SMALL_PRIMES = (
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67,
    71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113,
)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test (exact for n < 3.3e24)."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        if a >= n:
            continue
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = (x * x) % n
            if x == n - 1:
                break
        else:
            return False
    return True


def next_prime(n: int) -> int:
    """Smallest prime strictly greater than ``n``."""
    candidate = n + 1
    if candidate <= 2:
        return 2
    if candidate % 2 == 0:
        candidate += 1
    while not is_prime(candidate):
        candidate += 2
    return candidate


def previous_prime(n: int) -> int:
    """Largest prime strictly smaller than ``n``; raises below 3."""
    if n <= 2:
        raise ValueError("no prime below 2")
    candidate = n - 1
    if candidate == 2:
        return 2
    if candidate % 2 == 0:
        candidate -= 1
    while candidate >= 2 and not is_prime(candidate):
        candidate -= 2
    if candidate < 2:
        raise ValueError(f"no prime below {n}")
    return candidate


def ntt_primes_below(bits: int, ring_degree: int) -> Iterator[int]:
    """Every prime ``q ≡ 1 (mod 2 * ring_degree)`` below ``2**bits``,
    largest first (a downward scan in steps of ``2 * ring_degree``)."""
    if bits < 2:
        raise ValueError("bits must be >= 2")
    if ring_degree < 1 or ring_degree & (ring_degree - 1):
        raise ValueError("ring_degree must be a power of two")
    m = 2 * ring_degree
    candidate = (1 << bits) - (1 << bits) % m + 1
    if candidate >= (1 << bits):
        candidate -= m
    while candidate > m:
        if is_prime(candidate):
            yield candidate
        candidate -= m


def generate_ntt_prime(bits: int, ring_degree: int, *, seed_offset: int = 0) -> int:
    """Generate a prime ``q ≡ 1 (mod 2 * ring_degree)`` with ``bits`` bits.

    The result is the largest suitable prime below ``2**bits`` (after
    skipping ``seed_offset`` hits, which lets callers enumerate distinct
    primes).
    """
    for skipped, q in enumerate(ntt_primes_below(bits, ring_degree)):
        if skipped == seed_offset:
            return q
    raise ValueError(
        f"no NTT prime with {bits} bits for ring degree {ring_degree}"
    )


def generate_ntt_primes(bits: int, ring_degree: int, count: int) -> List[int]:
    """Generate ``count`` distinct NTT-friendly primes of the given width."""
    return [
        generate_ntt_prime(bits, ring_degree, seed_offset=i) for i in range(count)
    ]


def ntt_primes_near(value: int, ring_degree: int, count: int) -> List[int]:
    """``count`` NTT-friendly primes alternating just below/above ``value``.

    CKKS rescaling divides by one prime per level, so keeping the chain
    primes as close as possible to the scale ``Delta`` minimizes scale drift.
    Primes are returned in the order found (closest first).
    """
    if ring_degree < 1 or ring_degree & (ring_degree - 1):
        raise ValueError("ring_degree must be a power of two")
    m = 2 * ring_degree
    base = value - value % m + 1
    found: List[int] = []
    below = base
    above = base + m
    while len(found) < count:
        candidates = []
        if below > m:
            candidates.append(below)
        candidates.append(above)
        # pick whichever is closer to the target
        candidates.sort(key=lambda c: abs(c - value))
        for c in candidates:
            if len(found) < count and is_prime(c):
                found.append(c)
        below -= m
        above += m
        if above > value * 4 and below <= m:
            raise ValueError("could not find enough NTT primes near value")
    return found


def _factorize(n: int) -> List[int]:
    """Distinct prime factors of ``n`` by trial division (n is q-1, small-ish
    smooth part plus at most one large prime cofactor for our moduli)."""
    factors = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            factors.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        factors.append(n)
    return factors


def primitive_root(q: int) -> int:
    """Smallest primitive root modulo prime ``q``."""
    if not is_prime(q):
        raise ValueError(f"{q} is not prime")
    order = q - 1
    factors = _factorize(order)
    for g in range(2, q):
        if all(pow(g, order // f, q) != 1 for f in factors):
            return g
    raise ValueError(f"no primitive root found mod {q}")


def root_of_unity(order: int, q: int) -> int:
    """A primitive ``order``-th root of unity modulo prime ``q``.

    Requires ``q ≡ 1 (mod order)``.
    """
    if (q - 1) % order != 0:
        raise ValueError(f"{q} - 1 is not divisible by {order}")
    g = primitive_root(q)
    root = pow(g, (q - 1) // order, q)
    # paranoia: verify primitivity of the returned root
    if order > 1 and pow(root, order // 2, q) == 1:
        raise ArithmeticError("derived root is not primitive")
    return root
