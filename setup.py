"""Build script for the optional compiled kernel.

The extension holds the configuration walk, the elimination kernel and
the certificate closure.  The package is fully functional without it
(the pure-Python twins are selected at import time); building it makes
the walk and the elimination kernel many times faster
(``benchmarks/bench_kernels.py`` reports the ratio per instance in
``BENCH_enum.json`` and ``BENCH_kernel.json``).  A failed compile only
warns.

    python setup.py build_ext --inplace

An in-place build also byte-compiles every module of ``src/ekdom`` into
its ``__pycache__``, even when the extension failed to build and even
under ``PYTHONDONTWRITEBYTECODE``, so each later ``ekdom`` process loads
bytecode instead of compiling the package from source.  The interpreter
checks each cached file against its source's modification time and size,
so an edited module is compiled afresh, never served stale.
"""
import compileall
from pathlib import Path

from setuptools import Extension, setup
from setuptools.command.build_ext import build_ext


class build_ext_and_bytecode(build_ext):
    def run(self):
        super().run()
        if self.inplace:
            compileall.compile_dir(Path(__file__).resolve().parent / "src" / "ekdom", quiet=1)


setup(ext_modules=[Extension("ekdom._kernel._ckernel",
                             ["src/ekdom/_kernel/_ckernel.c"], optional=True)],
      cmdclass={"build_ext": build_ext_and_bytecode})
