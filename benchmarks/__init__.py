"""Paper-figure and ablation benches, and the end-to-end benchmark.

The ``bench_*.py`` files are pytest-benchmark cases
(``pytest benchmarks/bench_fig5.py``); ``bench_ledger.py`` also runs
standalone.  ``benchmarks/e2e`` is the benchmark ``BENCHMARK.json``
declares and every performance change is measured against; its
``run.py`` imports it as the ``benchmarks.e2e`` package.
"""
