"""Benchmark of the guidesampler package: four workloads timed from outside
the package, an output check on every operation, and a traced run that
breaks each operation down by layer. Run it with ``python3 perfbench/run.py``.
"""
