"""Copy the sources and build the compiled kernels outside the timed region.

Each backend gets its own copy of src/ under .bench_build/, named by a
hash of the sources, so a checkout builds once and every later run
reuses the copy. The build uses the extension setup.py declares, if it
declares one. Otherwise it compiles the tracked Cython output
``_ckernels.c`` with the flag setup.py gives its extension (-O3), since
Cython is not needed for that step.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
import sysconfig
import tempfile
import time
from pathlib import Path

BUILD_TIMEOUT_S = 600

_DIRECT_BUILD = """
from setuptools import Extension, setup
setup(
    name="fqspheres-bench",
    package_dir={"": "src"},
    ext_modules=[Extension(
        "fqspheres._kernels._ckernels",
        ["src/fqspheres/_kernels/_ckernels.c"],
        extra_compile_args=["-O3"],
    )],
    script_args=["build_ext", "--inplace"],
)
"""


class BuildFailed(Exception):
    """The compiled backend could not be built."""


_IGNORE = shutil.ignore_patterns("__pycache__", "*.so", "*.pyd", "build")
_BUILD_FILES = ("setup.py", "pyproject.toml")


def _source_key(root: Path) -> str:
    """Hash of the interpreter version and every file the copy takes."""
    h = hashlib.sha256(sys.version.encode())
    files = [p for p in sorted((root / "src").rglob("*")) if p.is_file()]
    files += [root / name for name in _BUILD_FILES if (root / name).is_file()]
    for path in files:
        rel = path.relative_to(root).as_posix()
        if "__pycache__" in rel or path.suffix in (".so", ".pyd"):
            continue
        h.update(rel.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def prepare(root: Path, backend: str) -> tuple[Path, dict]:
    """The src/ of a copy ready for ``backend``, and facts about its build."""
    cache = root / ".bench_build"
    tree = cache / f"{backend}-{_source_key(root)}"
    ready = tree / "build.json"
    if ready.is_file():
        return tree / "src", dict(json.loads(ready.read_text()), build_cached=True)
    cache.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="building-", dir=cache))
    try:
        shutil.copytree(root / "src", tmp / "src", ignore=_IGNORE)
        for name in _BUILD_FILES:
            if (root / name).is_file():
                shutil.copy2(root / name, tmp / name)
        facts = build_compiled(tmp) if backend == "compiled" else {"build_path": "none"}
        (tmp / "build.json").write_text(json.dumps(facts))
        shutil.rmtree(tree, ignore_errors=True)
        tmp.rename(tree)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return tree / "src", dict(facts, build_cached=False)


def _extensions(tree: Path) -> set[Path]:
    suffix = sysconfig.get_config_var("EXT_SUFFIX") or ".so"
    return set((tree / "src").rglob("*" + suffix))


def _run(argv: list[str], tree: Path) -> subprocess.CompletedProcess:
    # TMPDIR keeps the compiler's scratch files inside the copy.
    env = dict(os.environ, TMPDIR=str(tree))
    return subprocess.run(
        argv, cwd=tree, env=env, capture_output=True, text=True, timeout=BUILD_TIMEOUT_S
    )


def build_compiled(tree: Path) -> dict:
    """Build the extension in place inside ``tree``; returns build facts."""
    start = time.perf_counter()
    before = _extensions(tree)
    how = "setup.py build_ext --inplace"
    proc = None
    if (tree / "setup.py").is_file():
        proc = _run([sys.executable, "setup.py", "build_ext", "--inplace"], tree)
    if _extensions(tree) == before:
        if not (tree / "src/fqspheres/_kernels/_ckernels.c").is_file():
            raise BuildFailed(
                "setup.py builds no extension and src/fqspheres/_kernels/_ckernels.c is missing"
            )
        how = "_ckernels.c -O3 (setup.py declares no extension)"
        proc = _run([sys.executable, "-c", _DIRECT_BUILD], tree)
    if _extensions(tree) == before:
        detail = proc.stderr.strip().splitlines()[-5:] if proc is not None else []
        raise BuildFailed("build produced no extension: " + " | ".join(detail))
    return {"build_path": how, "build_s": time.perf_counter() - start}


def toolchain() -> dict:
    """Versions and core count, recorded as information."""
    try:
        gcc = subprocess.run(
            ["gcc", "--version"], capture_output=True, text=True, timeout=30
        ).stdout.splitlines()[0]
    except (OSError, IndexError, subprocess.SubprocessError):
        gcc = "unavailable"
    return {"gcc": gcc, "python": sys.version.split()[0], "nproc": len(os.sched_getaffinity(0))}
