"""The session key pool (tests/support/keypool.py) and its wiring in conftest."""

from types import SimpleNamespace

import pytest

from repro.crypto import rsa
from repro.errors import KeyError_
from repro.pki import CertificateAuthority
from tests.support.keypool import GENERATION_BUDGET, POOL_SIZE, KeyPool, budget_error

_FIRST_KEY_OF_EACH_VISIT: list[rsa.RsaPrivateKey] = []


class TestWiring:
    def test_consecutive_calls_are_pairwise_distinct(self, key_pool):
        keys = [rsa.generate_keypair(1024) for _ in range(POOL_SIZE)]
        assert len({key.n for key in keys}) == POOL_SIZE
        assert all(key.n.bit_length() == 1024 for key in keys)
        assert keys == list(key_pool.pooled(1024))

    def test_a_world_never_shares_a_key_between_principals(self):
        ca, rogue = CertificateAuthority(key_bits=1024), CertificateAuthority(key_bits=1024)
        user = rsa.generate_keypair(1024)
        assert len({ca.public_key.n, rogue.public_key.n, user.n}) == 3

    @pytest.mark.parametrize("visit", [1, 2])
    def test_pool_is_reused_across_tests(self, visit, key_pool):
        """Each test is dealt the pool from its first key: same objects."""
        before = key_pool.generated
        _FIRST_KEY_OF_EACH_VISIT.append(rsa.generate_keypair(1024))
        assert all(key is _FIRST_KEY_OF_EACH_VISIT[0] for key in _FIRST_KEY_OF_EACH_VISIT)
        if visit == 2:
            assert key_pool.generated == before

    @pytest.mark.fresh_keys
    def test_fresh_keys_marker_gets_the_real_function(self, key_pool):
        before = key_pool.generated
        key = rsa.generate_keypair(1024)
        assert key_pool.generated == before + 1
        assert key.n not in {pooled.n for pooled in key_pool.pooled(1024)}

    def test_session_keys_are_never_dealt(self, key_pool, user_key, second_key):
        dealt = [rsa.generate_keypair(1024) for _ in range(POOL_SIZE)]
        assert user_key.n != second_key.n
        assert not {user_key.n, second_key.n} & {key.n for key in dealt}

    def test_sizes_do_not_mix_and_validation_survives(self):
        assert rsa.generate_keypair(1024).n.bit_length() == 1024
        assert rsa.generate_keypair(2048).n.bit_length() == 2048
        with pytest.raises(KeyError_):
            rsa.generate_keypair(1023)


class TestPool:
    """The pool over a fake generator: no arithmetic, exact counts."""

    @staticmethod
    def counting_pool():
        serial = iter(range(10**6))
        return KeyPool(lambda bits: (bits, next(serial)))

    def test_outside_a_test_every_call_generates(self):
        pool = self.counting_pool()
        assert pool.generate_keypair(1024) != pool.generate_keypair(1024)
        assert pool.generated == 2 and pool.pooled(1024) == ()

    def test_dealing_starts_over_and_grows_to_the_largest_request(self):
        pool = self.counting_pool()
        with pool.dealing():
            first = [pool.generate_keypair(1024) for _ in range(3)]
        with pool.dealing():
            second = [pool.generate_keypair(1024) for _ in range(5)]
        assert second[:3] == first and len(set(second)) == 5
        assert pool.generated == 5

    def test_wraps_after_pool_size_calls(self):
        pool = self.counting_pool()
        with pool.dealing():
            keys = [pool.generate_keypair(1024) for _ in range(POOL_SIZE + 2)]
        assert len(set(keys)) == POOL_SIZE and keys[POOL_SIZE:] == keys[:2]
        assert pool.generated == POOL_SIZE

    def test_fresh_is_never_pooled(self):
        pool = self.counting_pool()
        with pool.dealing():
            outsider = pool.fresh(1024)
            assert outsider not in [pool.generate_keypair(1024) for _ in range(POOL_SIZE)]

    def test_budget_gate(self):
        pool = self.counting_pool()
        for _ in range(GENERATION_BUDGET):
            pool.fresh(1024)
        assert budget_error(pool) is None
        pool.fresh(1024)
        assert f"{GENERATION_BUDGET + 1} real RSA key generations" in budget_error(pool)

    def test_sessionfinish_fails_an_over_budget_run(self, capsys):
        from tests import conftest

        pool = self.counting_pool()
        session = SimpleNamespace(config=SimpleNamespace(stash=pytest.Stash()), exitstatus=pytest.ExitCode.OK)
        session.config.stash[conftest._KEY_POOL] = pool
        conftest.pytest_sessionfinish(session)
        assert session.exitstatus == pytest.ExitCode.OK
        for _ in range(GENERATION_BUDGET + 1):
            pool.fresh(1024)
        conftest.pytest_sessionfinish(session)
        assert session.exitstatus == pytest.ExitCode.TESTS_FAILED
        assert "over the budget" in capsys.readouterr().err
