"""End-to-end benchmark of the functional FHE stacks and the modelling tools.

Five workloads (``ckks-chain``, ``ckks-bootstrap``, ``tfhe-int``,
``bfv-mult``, ``toolchain``) each run as a closed loop with one client in
a fresh child process; a traced run splits each request's wall time by
layer.  ``python -m benchmarks.e2e run --workload W --seed S`` runs one
workload, ``compare`` judges two sets of result files against the bounds
in ``BENCHMARK.json``.  See ``README.md`` in this directory.

This package imports nothing at import time, so the child process can
start its set-up clock before the library is loaded.
"""
