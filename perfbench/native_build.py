"""Build the program the way ``pip install`` ships it, from this checkout.

The package and its optional C extension are compiled from a fresh copy of
the checkout into a per-run directory under the benchmark's output
directory, so no stale ``.so`` crosses commits and the checkout itself is
never written (an in-place ``setup.py build`` rewrites tracked
``src/repro.egg-info`` files).  Build time is kept out of every metric.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys

#: What the build needs from the checkout; ``README.md`` is named by
#: ``pyproject.toml``.
_TREE = "src"
_FILES = ("setup.py", "pyproject.toml", "README.md")


class BuildError(RuntimeError):
    pass


def build(root: str, out_dir: str) -> str:
    """Copy the checkout's sources to ``out_dir`` and compile the extension
    in the copy; returns the copy's ``src`` directory for ``sys.path``."""
    src = os.path.join(root, _TREE)
    if not os.path.isdir(os.path.join(src, "repro")) or not os.path.isfile(
        os.path.join(root, "setup.py")
    ):
        raise BuildError(f"no repro sources under {root!r}")
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    shutil.copytree(
        src, os.path.join(out_dir, _TREE),
        ignore=shutil.ignore_patterns("__pycache__", "*.so", "*.pyc"),
    )
    for name in _FILES:
        if os.path.isfile(os.path.join(root, name)):
            shutil.copy2(os.path.join(root, name), out_dir)
    tmp = os.path.join(out_dir, "tmp")
    os.makedirs(tmp)
    env = dict(os.environ, TMPDIR=tmp)
    env.pop("REPRO_BUILD_NATIVE", None)
    proc = subprocess.run(
        [sys.executable, "setup.py", "build_ext", "--inplace"],
        cwd=out_dir, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise BuildError(f"setup.py build_ext failed:\n{proc.stdout[-2000:]}")
    return os.path.join(out_dir, _TREE)


def import_built(src_dir: str) -> dict:
    """Import ``repro`` from the built copy and return the run attributes
    that decide whether two runs are comparable."""
    sys.path.insert(0, src_dir)
    import numpy
    import repro
    from repro.core import native

    where = os.path.realpath(repro.__file__)
    if not where.startswith(os.path.realpath(src_dir) + os.sep):
        raise BuildError(f"imported repro from {where}, not from the fresh build")
    return {
        "native": bool(native.NATIVE_AVAILABLE),
        "openmp": bool(native.NATIVE_OPENMP),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "cpus": os.cpu_count(),
    }
