from setuptools import Extension, setup

# The compiled kernels are optional: if the C extension cannot be built,
# the package still installs and falls back to the pure Python twins at
# import time.
setup(
    ext_modules=[
        Extension(
            "fqspheres._kernels._ckernels",
            ["src/fqspheres/_kernels/_ckernels.c"],
            extra_compile_args=["-O3"],
            optional=True,
        )
    ]
)
