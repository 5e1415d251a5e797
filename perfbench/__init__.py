"""Benchmark for curelay: workloads, layer tracing and metric reporting.

See ``perfbench/README.md``; the entry point is ``perfbench/run.py``.
"""
