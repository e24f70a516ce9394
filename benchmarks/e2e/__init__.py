"""End-to-end benchmark: four workloads, one command, outside-in layer timing.

``python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1``
runs one workload and prints one JSON result line; ``python -m
benchmarks.e2e`` runs several and compares result files.  See README.md.
"""
