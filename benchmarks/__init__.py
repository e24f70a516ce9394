"""The ledger-sync artifact script and the end-to-end benchmark.

``bench_ledger.py`` runs standalone and writes ``BENCH_ledger.json``.
``benchmarks/e2e`` is the benchmark ``BENCHMARK.json`` declares and
every performance change is measured against; its ``run.py`` imports it
as the ``benchmarks.e2e`` package.  The paper's claims are checked by
``repro-experiments validate`` and tier-1, not here.
"""
