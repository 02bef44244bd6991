"""Suite modules of the layer benchmark harness, ``benchmarks/harness.py``."""
