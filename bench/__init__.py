"""Benchmark of the rigidconvex command line; see run.py."""
