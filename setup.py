"""Build script for the optional compiled elimination kernel.

The package is fully functional without it (a pure-Python kernel is
selected at import time); building the extension makes the elimination
kernel roughly 30-70x faster (``benchmarks/bench_kernels.py`` reports
the ratio per instance).  A failed compile only warns.

    python setup.py build_ext --inplace
"""
from setuptools import Extension, setup

setup(ext_modules=[Extension("ekdom._kernel._ckernel",
                             ["src/ekdom/_kernel/_ckernel.c"], optional=True)])
