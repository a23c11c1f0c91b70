"""Two-clock end-to-end benchmark on the real client -> TLS -> enclave -> store path.

See README.md in this directory; ``run.py`` is the entry point and
``/BENCHMARK.json`` registers the metrics and workloads.
"""
