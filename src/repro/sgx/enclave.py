"""Enclave lifecycle, measurements, and the ECALL/OCALL boundary.

An :class:`Enclave` subclass *is* the trusted code: its measurement is the
SHA-256 over the source of the modules it declares as its trusted
computing base plus its build-time configuration (e.g. the hard-coded CA
public key, exactly as in the paper).  The untrusted host never holds the
enclave object itself — :meth:`SgxPlatform.load` returns an
:class:`EnclaveHandle` that exposes only the methods marked with
:func:`ecall` and charges transition costs for every crossing.

This gives the reproduction the two properties the paper leans on:

* a *well-defined interface* — nothing but declared ECALLs is reachable,
  enforced at runtime;
* a *measurable TCB* — ``tcb_report()`` counts the lines of enclave-
  resident code, the analogue of the paper's 8441-LoC claim.
"""

from __future__ import annotations

import hashlib
import inspect
import secrets
import sys
from dataclasses import dataclass
from typing import Any, Callable, TypeVar

from repro.errors import EnclaveCrashed, EnclaveError
from repro.netsim.clock import SimClock
from repro.sgx.costmodel import DEFAULT_COSTS, SgxCostModel
from repro.sgx.epc import EpcModel

_ECALL_MARKER = "_sgx_ecall"

F = TypeVar("F", bound=Callable[..., Any])


def ecall(fn: F) -> F:
    """Mark an :class:`Enclave` method as part of the ECALL interface."""
    setattr(fn, _ECALL_MARKER, True)
    return fn


def _module_source(module_name: str) -> str:
    module = sys.modules.get(module_name)
    if module is None:
        __import__(module_name)
        module = sys.modules[module_name]
    try:
        return inspect.getsource(module)
    except (OSError, TypeError):
        # Interactive/REPL-defined enclaves have no retrievable source; the
        # measurement then covers only the module name and configuration.
        return ""


def count_loc(source: str) -> int:
    """Count non-blank, non-comment source lines (the paper's LoC metric)."""
    count = 0
    for line in source.splitlines():
        stripped = line.strip()
        if stripped and not stripped.startswith("#"):
            count += 1
    return count


@dataclass
class TcbReport:
    """Lines of code resident in the enclave, per module."""

    per_module: dict[str, int]

    @property
    def total(self) -> int:
        return sum(self.per_module.values())

    def format(self) -> str:
        lines = [f"{'module':<45} {'LoC':>6}"]
        for name in sorted(self.per_module):
            lines.append(f"{name:<45} {self.per_module[name]:>6}")
        lines.append(f"{'TOTAL':<45} {self.total:>6}")
        return "\n".join(lines)


class Enclave:
    """Base class for trusted code.

    Subclasses declare ``TCB_MODULES`` — the module names whose code runs
    inside the enclave — and implement ECALLs.  State lives in instance
    attributes; it is volatile (lost on :meth:`EnclaveHandle.destroy`)
    unless sealed out.
    """

    #: Module names that constitute the enclave's trusted computing base.
    TCB_MODULES: tuple[str, ...] = ()

    #: The vendor identity (MRSIGNER analogue) for sealing policy SIGNER.
    SIGNER: str = "repro-segshare"

    def __init__(self) -> None:
        self._platform: SgxPlatform | None = None
        self._destroyed = False

    # -- identity -----------------------------------------------------------

    def config_measurement_extra(self) -> bytes:
        """Build-time configuration folded into the measurement.

        SeGShare overrides this with the hard-coded CA public key so that a
        CA can recognize "an enclave that was built specifically for this
        CA" (Section IV-A).
        """
        return b""

    def measurement(self) -> bytes:
        """MRENCLAVE analogue: hash over the enclave class identity, the
        TCB source, and the build-time configuration."""
        hasher = hashlib.sha256()
        hasher.update(type(self).__qualname__.encode("utf-8") + b"\x00")
        for module_name in (type(self).__module__, *self.TCB_MODULES):
            hasher.update(module_name.encode("utf-8") + b"\x00")
            hasher.update(_module_source(module_name).encode("utf-8"))
        hasher.update(b"\x00config\x00" + self.config_measurement_extra())
        return hasher.digest()

    def signer_id(self) -> bytes:
        """MRSIGNER analogue."""
        return hashlib.sha256(self.SIGNER.encode("utf-8")).digest()

    def tcb_report(self) -> TcbReport:
        """LoC of every module inside the enclave boundary."""
        modules = dict.fromkeys((type(self).__module__, *self.TCB_MODULES))
        return TcbReport(
            per_module={name: count_loc(_module_source(name)) for name in modules}
        )

    # -- platform services --------------------------------------------------

    @property
    def platform(self) -> "SgxPlatform":
        if self._platform is None:
            raise EnclaveError("enclave is not loaded on a platform")
        return self._platform

    def on_load(self) -> None:
        """Hook called once the enclave is loaded (EINIT analogue)."""

    def on_destroy(self) -> None:
        """Hook called on orderly destruction, before state is dropped.

        Gives the enclave a chance to release platform-side accounting
        (EPC residency of long-lived caches).  NOT called on a crash —
        a killed enclave releases nothing, exactly like real SGX, where
        the EPC pages are reclaimed only when the host tears the enclave
        down; :meth:`SeGShareServer.restart_enclave` destroys the old
        handle either way, so the accounting is settled before a
        replacement loads.
        """

    def ocall(self, account: str = "transitions") -> None:
        """Charge one OCALL transition (call out of the enclave)."""
        self.platform.clock.charge(self.platform.costs.ocall_transition, account=account)

    def charge(self, seconds: float, account: str) -> None:
        """Charge in-enclave compute time to the platform clock."""
        self.platform.clock.charge(seconds, account=account)

    @property
    def alive(self) -> bool:
        """False once destroyed.  Host-observable liveness: whether a
        process exists is never a secret, so failure detectors (heartbeat
        probes) may read this without crossing the trust boundary."""
        return not self._destroyed

    def _check_alive(self) -> None:
        if self._destroyed:
            raise EnclaveCrashed("enclave has been destroyed")

    def abort(self, reason: str) -> None:
        """Stop for good, as the SDK's ``abort()``: volatile state is lost,
        every later ECALL fails, and a restart recovers from sealed state."""
        self._destroyed = True
        raise EnclaveCrashed(reason)


class EnclaveHandle:
    """Untrusted host's view of a loaded enclave.

    Only methods decorated with :func:`ecall` are reachable; every call
    charges one enclave transition (or a cheaper switchless enqueue when
    the handle is switched to switchless mode, Section II-A).
    """

    def __init__(self, enclave: Enclave, platform: "SgxPlatform") -> None:
        self._enclave = enclave
        self._platform = platform
        self._switchless = False
        self.calls = 0

    def use_switchless(self, enabled: bool = True) -> None:
        """Route subsequent ECALLs through the switchless queue."""
        self._switchless = enabled

    def call(self, name: str, *args: Any, **kwargs: Any) -> Any:
        """Invoke ECALL ``name``."""
        self._enclave._check_alive()
        method = getattr(type(self._enclave), name, None)
        if method is None or not getattr(method, _ECALL_MARKER, False):
            raise EnclaveError(f"{name!r} is not an ECALL of {type(self._enclave).__name__}")
        self.calls += 1
        cost = (
            self._platform.costs.switchless_call
            if self._switchless
            else self._platform.costs.ecall_transition
        )
        self._platform.clock.charge(cost, account="transitions")
        return method(self._enclave, *args, **kwargs)

    def measurement(self) -> bytes:
        """Measurements are public — the host may read (but not forge) them."""
        return self._enclave.measurement()

    def destroy(self) -> None:
        """Destroy the enclave: all volatile state is lost (Section II-A)."""
        self._enclave.on_destroy()
        self._enclave._destroyed = True
        # Drop trusted state so use-after-destroy is a hard error, not stale data.
        for attr in list(vars(self._enclave)):
            if attr not in ("_platform", "_destroyed"):
                delattr(self._enclave, attr)


class SgxPlatform:
    """One SGX-capable machine: fuse key, EPC, clock, quoting identity.

    The per-platform ``fuse_key`` is the root of sealing-key derivation —
    blobs sealed on one platform do not unseal on another, which the
    replication tests rely on.
    """

    def __init__(
        self,
        clock: SimClock,
        costs: SgxCostModel = DEFAULT_COSTS,
        platform_id: str | None = None,
        fuse_key: bytes | None = None,
    ) -> None:
        self.clock = clock
        self.costs = costs
        self.platform_id = platform_id or secrets.token_hex(8)
        # Passing fuse_key models re-running on the SAME physical machine
        # (persistent demo deployments); by default every platform is new.
        self.fuse_key = fuse_key or secrets.token_bytes(32)
        self.epc = EpcModel(clock=clock, costs=costs)
        self._loaded: list[EnclaveHandle] = []
        #: Optional :class:`repro.faults.FaultPlan` the enclaves loaded here
        #: report their counter and coherence effects to; ``None`` by default.
        self.fault_plan: Any | None = None

    def load(self, enclave: Enclave) -> EnclaveHandle:
        """Load and initialize an enclave (ECREATE/EADD/EINIT analogue)."""
        if enclave._platform is not None:
            raise EnclaveError("enclave is already loaded")
        enclave._platform = self
        handle = EnclaveHandle(enclave, self)
        self._loaded.append(handle)
        enclave.on_load()
        return handle

    @property
    def loaded_enclaves(self) -> list[EnclaveHandle]:
        return list(self._loaded)
