from setuptools import Extension, setup

# localpow.kernels uses the compiled kernels when this extension imports and
# its pure-Python mirror otherwise, so a failed build is not an install error.
# _native.c is hand-written against the CPython C API, so the build needs
# only a C compiler and the Python headers.
setup(
    ext_modules=[
        Extension(
            "localpow.kernels._native",
            ["src/localpow/kernels/_native.c"],
            extra_compile_args=["-O3", "-Wall", "-Wextra"],
            optional=True,
        )
    ]
)
