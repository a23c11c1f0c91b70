"""A3b — primitive throughput: PAE backends, multiset hashes, RSA, PFS."""

import pytest

from repro.bench.workloads import pseudo_bytes
from repro.crypto import rsa
from repro.crypto.mset_hash import MSetXorBuckets, Prf
from repro.crypto.pae import OpenSslGcmPae
from repro.sgx.protected_fs import ProtectedFs
from repro.storage.backends import InMemoryStore
from tests.support.gcm import AesGcmPae
from tests.support.platform import loaded_enclave

KEY = bytes(16)
MB1 = pseudo_bytes("crypto", 1_000_000)
SMALL = pseudo_bytes("crypto-small", 16_384)


class TestPae:
    def test_openssl_gcm_encrypt_1mb(self, benchmark):
        pae = OpenSslGcmPae()
        blob = benchmark(lambda: pae.encrypt(KEY, MB1))
        assert len(blob) == len(MB1) + pae.overhead

    def test_openssl_gcm_decrypt_1mb(self, benchmark):
        pae = OpenSslGcmPae()
        blob = pae.encrypt(KEY, MB1)
        assert benchmark(lambda: pae.decrypt(KEY, blob)) == MB1

    def test_aes_gcm_encrypt_16kb(self, benchmark):
        pae = AesGcmPae()
        benchmark(lambda: pae.encrypt(KEY, SMALL))

    def test_aes_gcm_decrypt_16kb(self, benchmark):
        pae = AesGcmPae()
        blob = pae.encrypt(KEY, SMALL)
        assert benchmark(lambda: pae.decrypt(KEY, blob)) == SMALL


class TestMsetHash:
    def test_incremental_update(self, benchmark):
        h = MSetXorBuckets.empty(Prf(b"key"), 1)
        for i in range(1000):
            h.update(0, None, b"element-%d" % i)

        def update():
            h.update(0, b"element-1", b"element-x")
            h.update(0, b"element-x", b"element-1")

        benchmark(update)


class TestRsa:
    @pytest.fixture(scope="class")
    def key(self):
        return rsa.generate_keypair(1024)

    def test_sign(self, benchmark, key):
        benchmark(lambda: rsa.sign(key, b"message"))

    def test_verify(self, benchmark, key):
        signature = rsa.sign(key, b"message")
        assert benchmark(lambda: rsa.verify(key.public_key, b"message", signature))


class TestProtectedFs:
    def test_write_1mb(self, benchmark):
        pfs = ProtectedFs(InMemoryStore(), master_key=KEY, enclave=loaded_enclave())
        counter = iter(range(100_000))
        benchmark(lambda: pfs.write_file(f"/f{next(counter)}", MB1))

    def test_read_1mb(self, benchmark):
        pfs = ProtectedFs(InMemoryStore(), master_key=KEY, enclave=loaded_enclave())
        pfs.write_file("/f", MB1)
        assert benchmark(lambda: pfs.read_file("/f")) == MB1
