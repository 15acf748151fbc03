"""Benchmark harness for binalloc: workloads, output checks, scoring and tracing.

Import :mod:`benchkit.env` and pin the BLAS threads before importing the
other modules, because they import numpy.
"""
