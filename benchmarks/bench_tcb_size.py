"""E7 — the enclave TCB report (paper: 8441 LoC incl. 2376 of TLS glue)."""

from repro.core.enclave_app import SeGShareEnclave


def test_tcb_report(benchmark, make_deployment):
    deployment = make_deployment()
    report = benchmark(deployment.server.enclave.tcb_report)
    benchmark.extra_info["tcb_loc_total"] = report.total
    benchmark.extra_info["tcb_modules"] = len(report.per_module)
    tls_loc = sum(
        loc for name, loc in report.per_module.items() if name.startswith("repro.tls")
    )
    benchmark.extra_info["tcb_loc_tls"] = tls_loc
    assert set(SeGShareEnclave.TCB_MODULES) <= set(report.per_module)
    assert report.total <= SeGShareEnclave.TCB_LOC_CEILING, report.format()
