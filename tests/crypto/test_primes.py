"""Miller–Rabin and prime generation."""

from repro.crypto.primes import generate_prime, is_probable_prime

KNOWN_PRIMES = [2, 3, 5, 7, 97, 7919, 104729, 2**31 - 1, 2**61 - 1]
KNOWN_COMPOSITES = [0, 1, 4, 100, 561, 41041, 2**31, 7919 * 104729]
# Carmichael numbers (fool Fermat, must not fool Miller-Rabin).
CARMICHAELS = [561, 1105, 1729, 2465, 2821, 6601, 8911, 62745, 162401]


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


class TestGeneration:
    def test_generated_prime_properties(self):
        p = generate_prime(128)
        assert p.bit_length() == 128
        assert p % 2 == 1
        assert is_probable_prime(p)
