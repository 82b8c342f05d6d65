"""Build script for the optional compiled elimination kernel.

The package is fully functional without it (a pure-Python kernel is
selected at import time); building the extension just makes the solver
roughly two orders of magnitude faster.  A failed compile only warns.

    python setup.py build_ext --inplace
"""
from setuptools import Extension, setup

setup(ext_modules=[Extension("ekdom._kernel._ckernel",
                             ["src/ekdom/_kernel/_ckernel.c"], optional=True)])
