"""The Miller–Rabin reference (tests/support/primes.py) that checks OpenSSL's
RSA factors."""

from tests.support.primes import is_probable_prime

KNOWN_PRIMES = [2, 3, 5, 7, 97, 7919, 104729, 2**31 - 1, 2**61 - 1]
KNOWN_COMPOSITES = [0, 1, 4, 100, 561, 41041, 2**31, 7919 * 104729]
# Carmichael numbers (fool Fermat, must not fool Miller-Rabin).
CARMICHAELS = [561, 1105, 1729, 2465, 2821, 6601, 8911, 62745, 162401]
# Composites whose every factor is past the small-factor prefilter's reach
# (primes below 2000), so only Miller–Rabin can reject them: products of
# primes just past 2000, and 149491 * 747451 * 34233211, the smallest strong
# pseudoprime to all of the bases 2, 3, 5, ..., 23 at once.
MILLER_RABIN_ONLY = [
    2003 * 2011,
    2003**2,
    2003 * 2011 * 2017,
    1_000_003 * 1_000_033,
    3_825_123_056_546_413_051,
]
# The smallest strong pseudoprime to bases 2, 3, 5 and 7 (151 * 751 * 28351).
STRONG_PSEUDOPRIME_2_3_5_7 = 3_215_031_751


class TestIsProbablePrime:
    def test_known_primes(self):
        for p in KNOWN_PRIMES:
            assert is_probable_prime(p), p

    def test_known_composites(self):
        for n in KNOWN_COMPOSITES:
            assert not is_probable_prime(n), n

    def test_carmichael_numbers_rejected(self):
        for n in CARMICHAELS:
            assert not is_probable_prime(n), n

    def test_negative_and_small(self):
        assert not is_probable_prime(-7)
        assert not is_probable_prime(1)
        assert is_probable_prime(2)

    def test_strong_pseudoprime_rejected(self):
        assert not is_probable_prime(STRONG_PSEUDOPRIME_2_3_5_7)

    def test_products_around_the_prefilter_bound_rejected(self):
        # 1997 and 1999 are the last primes the prefilter holds.
        for n in (1997 * 1999, 1999**2, 1999 * 2003, *MILLER_RABIN_ONLY):
            assert not is_probable_prime(n), n

    def test_agrees_with_a_sieve_up_to_4100(self):
        """The prefilter must not reject the small primes themselves, and
        the hand-over to Miller–Rabin at 2000 must leave no gap."""
        limit = 4100
        sieve = bytearray([1]) * (limit + 1)
        sieve[0] = sieve[1] = 0
        for i in range(2, int(limit**0.5) + 1):
            if sieve[i]:
                sieve[i * i :: i] = bytearray(len(sieve[i * i :: i]))
        for n in range(-3, limit + 1):
            assert is_probable_prime(n) == bool(n >= 0 and sieve[n]), n

