"""Enclave lifecycle: ECALL surface, destruction, measurements, TCB report."""

import pytest

from repro.errors import EnclaveCrashed, EnclaveError
from repro.netsim import SimClock
from repro.sgx import SgxPlatform
from repro.sgx.enclave import Enclave, count_loc, ecall
from tests.support.platform import sim_platform


class Counter(Enclave):
    TCB_MODULES = ("repro.crypto.kdf",)

    def __init__(self, start: int = 0) -> None:
        super().__init__()
        self.value = start

    @ecall
    def increment(self, by: int = 1) -> int:
        self.value += by
        return self.value

    def secret_internal(self) -> int:
        return self.value


class OtherEnclave(Enclave):
    @ecall
    def noop(self) -> None:
        pass


class TestEcallSurface:
    def test_registered_ecall_works(self):
        handle = sim_platform().load(Counter())
        assert handle.call("increment", 5) == 5
        assert handle.call("increment") == 6

    def test_non_ecall_method_unreachable(self):
        handle = sim_platform().load(Counter())
        with pytest.raises(EnclaveError):
            handle.call("secret_internal")

    def test_unknown_name_unreachable(self):
        handle = sim_platform().load(Counter())
        with pytest.raises(EnclaveError):
            handle.call("does_not_exist")

    def test_calls_are_counted(self):
        handle = sim_platform().load(Counter())
        handle.call("increment")
        handle.call("increment")
        assert handle.calls == 2


class TestLifecycle:
    def test_double_load_rejected(self):
        enclave = Counter()
        sim_platform().load(enclave)
        with pytest.raises(EnclaveError):
            sim_platform().load(enclave)

    def test_destroy_loses_state(self):
        handle = sim_platform().load(Counter(start=10))
        handle.destroy()
        with pytest.raises(EnclaveCrashed):
            handle.call("increment")

    def test_destroy_drops_attributes(self):
        enclave = Counter(start=42)
        handle = sim_platform().load(enclave)
        handle.destroy()
        assert not hasattr(enclave, "value")


class TestCosts:
    def test_ecall_charges_transition(self):
        clock = SimClock()
        platform = SgxPlatform(clock=clock)
        handle = platform.load(Counter())
        handle.call("increment")
        assert clock.accounts()["transitions"] == pytest.approx(
            platform.costs.ecall_transition
        )

    def test_switchless_is_cheaper(self):
        clock = SimClock()
        platform = SgxPlatform(clock=clock)
        handle = platform.load(Counter())
        handle.use_switchless(True)
        handle.call("increment")
        assert clock.accounts()["transitions"] == pytest.approx(
            platform.costs.switchless_call
        )


class TestMeasurement:
    def test_same_class_same_measurement(self):
        a, b = Counter(), Counter()
        sim_platform().load(a)
        sim_platform().load(b)
        assert a.measurement() == b.measurement()

    def test_different_class_different_measurement(self):
        assert Counter().measurement() != OtherEnclave().measurement()

    def test_config_changes_measurement(self):
        class Configured(Counter):
            def config_measurement_extra(self) -> bytes:
                return b"config-A"

        class Configured2(Counter):
            def config_measurement_extra(self) -> bytes:
                return b"config-B"

        assert Configured().measurement() != Configured2().measurement()

    def test_signer_id_stable(self):
        assert Counter().signer_id() == OtherEnclave().signer_id()


class TestTcbReport:
    def test_report_counts_declared_modules(self):
        report = Counter().tcb_report()
        assert "repro.crypto.kdf" in report.per_module
        assert report.total > 0
        assert "TOTAL" in report.format()

    def test_count_loc_skips_blank_and_comments(self):
        source = "x = 1\n\n# comment\n   \ny = 2  # trailing\n"
        assert count_loc(source) == 2


class TestPlatform:
    def test_fuse_keys_differ_per_platform(self):
        assert sim_platform().fuse_key != sim_platform().fuse_key

    def test_loaded_enclaves_tracked(self):
        platform = sim_platform()
        handle = platform.load(Counter())
        assert handle in platform.loaded_enclaves
