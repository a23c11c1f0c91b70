"""Data sealing: policies, cross-platform and cross-enclave failures."""

import pytest

from repro.errors import SealingError
from repro.sgx import SealPolicy, seal, unseal
from repro.sgx.enclave import Enclave, ecall
from tests.support.platform import sim_platform


class EnclaveA(Enclave):
    @ecall
    def noop(self) -> None:
        pass


class EnclaveB(Enclave):
    @ecall
    def noop(self) -> None:
        pass


class EnclaveASameVendor(Enclave):
    """Different code (measurement), same SIGNER as EnclaveA."""

    @ecall
    def other(self) -> None:
        pass


def loaded(enclave_cls, platform=None):
    enclave = enclave_cls()
    (platform or sim_platform()).load(enclave)
    return enclave


class TestRoundTrip:
    def test_mrsigner_round_trip(self):
        enclave = loaded(EnclaveA)
        assert unseal(enclave, seal(enclave, b"secret")) == b"secret"

    def test_mrenclave_round_trip(self):
        enclave = loaded(EnclaveA)
        blob = seal(enclave, b"secret", SealPolicy.MRENCLAVE)
        assert unseal(enclave, blob) == b"secret"

    def test_same_class_same_platform_unseals(self):
        platform = sim_platform()
        first = loaded(EnclaveA, platform)
        second = loaded(EnclaveA, platform)
        blob = seal(first, b"secret", SealPolicy.MRENCLAVE)
        assert unseal(second, blob) == b"secret"


class TestPolicyBoundaries:
    def test_other_platform_cannot_unseal(self):
        blob = seal(loaded(EnclaveA), b"secret")
        with pytest.raises(SealingError):
            unseal(loaded(EnclaveA), blob)  # new platform, new fuse key

    def test_mrenclave_blocks_same_vendor_different_code(self):
        platform = sim_platform()
        a = loaded(EnclaveA, platform)
        same_vendor = loaded(EnclaveASameVendor, platform)
        blob = seal(a, b"secret", SealPolicy.MRENCLAVE)
        with pytest.raises(SealingError):
            unseal(same_vendor, blob)

    def test_mrsigner_allows_same_vendor_different_code(self):
        platform = sim_platform()
        a = loaded(EnclaveA, platform)
        same_vendor = loaded(EnclaveASameVendor, platform)
        blob = seal(a, b"secret", SealPolicy.MRSIGNER)
        assert unseal(same_vendor, blob) == b"secret"


class TestTamper:
    def test_bit_flip_rejected(self):
        enclave = loaded(EnclaveA)
        blob = bytearray(seal(enclave, b"secret"))
        blob[-1] ^= 1
        with pytest.raises(SealingError):
            unseal(enclave, bytes(blob))

    def test_policy_relabel_rejected(self):
        enclave = loaded(EnclaveA)
        blob = seal(enclave, b"secret", SealPolicy.MRSIGNER)
        relabeled = blob.replace(b"mrsigner", b"mrenclav", 1)
        with pytest.raises(SealingError):
            unseal(enclave, relabeled)

    def test_garbage_rejected(self):
        enclave = loaded(EnclaveA)
        with pytest.raises(SealingError):
            unseal(enclave, b"not a sealed blob at all")

    def test_empty_rejected(self):
        enclave = loaded(EnclaveA)
        with pytest.raises(SealingError):
            unseal(enclave, b"")
