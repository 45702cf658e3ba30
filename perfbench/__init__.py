"""Benchmark for siegel-dynamics; run it with ``python3 perfbench/run.py``."""
