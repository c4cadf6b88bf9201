import os

from setuptools import Extension, setup

# The compiled kernel is optional: without it the package falls back to the
# pure-Python mirror in localpow.kernels.pure.  Set LOCALPOW_NO_EXT=1 to skip
# the build on purpose (e.g. to benchmark the fallback).  Without Cython the
# build compiles _native.c, the C file generated from _native.pyx and
# shipped next to it, so `python setup.py build_ext --inplace` needs only a C
# compiler and the Python headers.
ext_modules = []
if os.environ.get("LOCALPOW_NO_EXT") != "1":
    native = Extension(
        "localpow.kernels._native",
        ["src/localpow/kernels/_native.pyx"],
        extra_compile_args=["-O3"],
    )
    try:
        from Cython.Build import cythonize
    except ImportError:
        native.sources = ["src/localpow/kernels/_native.c"]
        ext_modules = [native]
    else:
        ext_modules = cythonize([native], compiler_directives={"language_level": "3"})

setup(ext_modules=ext_modules)
