"""Build script for the optional compiled elimination kernel.

The package is fully functional without it (a pure-Python kernel is
selected at import time); building the extension makes the elimination
kernel roughly 25-55x faster (``benchmarks/bench_kernels.py`` reports
the ratio per instance).  A failed compile only warns.

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
