"""End-to-end benchmark: run with ``python -m benchmarks.e2e``.

Importing this package imports nothing else, so ``__main__`` can pin
the BLAS thread count before NumPy loads.
"""
