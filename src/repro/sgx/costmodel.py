"""Cost model for the simulated SGX platform.

Each constant is the virtual-time price of one hardware event.  Values
are drawn from published measurements (SCONE [73], the switchless-calls
SDK documentation, Intel's SGX performance guidance) and from calibrating
the end-to-end figures against the paper's evaluation:

* an enclave transition (ECALL or OCALL) costs ~8 µs; a switchless call
  replaces it with a ~1 µs queue operation,
* EPC paging costs ~40 µs per 4 KiB page (encrypt + integrity + copy),
* in-enclave AES-GCM runs at AES-NI speed, ~2.8 GB/s single-core,
* an SGX monotonic-counter increment takes ~100 ms and the counter wears
  out after ~1M increments (the issues the paper cites from ROTE [63]);
  a ROTE-style replicated counter costs one LAN round trip instead.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class SgxCostModel:
    """Virtual-time costs (seconds) of simulated SGX events."""

    ecall_transition: float = 8e-6
    ocall_transition: float = 8e-6
    switchless_call: float = 1e-6
    epc_page_swap: float = 40e-6
    page_size: int = 4096

    # In-enclave crypto throughput (bytes/second), AES-NI class.
    aead_bytes_per_second: float = 2.8e9
    hash_bytes_per_second: float = 3.2e9

    # Protected-FS read path: decryption plus Merkle verification and node
    # cache churn make reads markedly slower than writes in Intel's
    # library; calibrated against Fig. 3's 200 MB download latency.
    pfs_read_bytes_per_second: float = 350e6

    # Plain in-enclave memory copies (cache hits): DRAM-speed, but the
    # MEE still decrypts EPC lines on the way to the core.
    enclave_memcpy_bytes_per_second: float = 10e9

    # Asymmetric operations (RSA-2048 sign/verify, DH exponentiation).
    rsa_sign: float = 600e-6
    rsa_verify: float = 20e-6
    dh_exchange: float = 250e-6

    # Sealing adds key derivation on top of the AEAD.
    seal_fixed: float = 10e-6

    # SGX monotonic counters (the slow, wearing hardware kind).
    counter_increment: float = 0.100
    counter_read: float = 0.060
    counter_wear_limit: int = 1_000_000

    # ROTE-style replicated counter: one LAN quorum round trip.
    rote_increment: float = 0.0008
    rote_read: float = 0.0002

    def aead_time(self, nbytes: int) -> float:
        """Time to PAE-encrypt or -decrypt ``nbytes`` in the enclave."""
        return nbytes / self.aead_bytes_per_second

    def pfs_read_time(self, nbytes: int) -> float:
        """Time to decrypt ``nbytes`` of protected-FS data and verify its integrity."""
        return nbytes / self.aead_bytes_per_second + nbytes / self.pfs_read_bytes_per_second

    def hash_time(self, nbytes: int) -> float:
        """Time to hash ``nbytes`` (HMAC, Merkle updates, dedup digests)."""
        return nbytes / self.hash_bytes_per_second


DEFAULT_COSTS = SgxCostModel()
