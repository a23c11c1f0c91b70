"""Probabilistic primality testing and prime generation.

Used by :mod:`repro.crypto.rsa` for key generation.  The Miller–Rabin
implementation follows the standard algorithm with random bases from
``secrets``; 40 rounds give a false-positive probability below 2^-80,
far below any practical concern for a simulation.
"""

from __future__ import annotations

import secrets

# Small primes for fast trial division before Miller-Rabin.
_SMALL_PRIMES: list[int] = []


def _init_small_primes(limit: int = 2000) -> None:
    sieve = bytearray([1]) * (limit + 1)
    sieve[0] = sieve[1] = 0
    for i in range(2, int(limit**0.5) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(sieve[i * i :: i]))
    _SMALL_PRIMES.extend(i for i, is_p in enumerate(sieve) if is_p)


_init_small_primes()


def is_probable_prime(n: int, rounds: int = 40) -> bool:
    """Return True if ``n`` passes trial division and Miller–Rabin."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    # Write n-1 = d * 2^r with d odd.
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for _ in range(rounds):
        a = secrets.randbelow(n - 3) + 2
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = pow(x, 2, n)
            if x == n - 1:
                break
        else:
            return False
    return True


def generate_prime(bits: int) -> int:
    """Generate a random prime with exactly ``bits`` bits."""
    if bits < 8:
        raise ValueError("prime size too small")
    while True:
        # Force the top two bits so the product of two primes has 2*bits
        # bits, and the bottom bit so the candidate is odd.
        candidate = secrets.randbits(bits) | (1 << (bits - 1)) | (1 << (bits - 2)) | 1
        if is_probable_prime(candidate):
            return candidate
