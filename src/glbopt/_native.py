"""``_native.c`` compiled, cached and loaded on first use: :func:`function`
gives its C functions, or None where the Python paths must run."""

from __future__ import annotations

import contextlib
import ctypes
import functools
import hashlib
import os
import shlex
import subprocess
import sys
import sysconfig
import tempfile
import time
from pathlib import Path

import numpy as np

SOURCE = Path(__file__).with_name("_native.c")
# a build removes the cached libraries of other sources not built or loaded for
# this long; a recent one may still be in use by another checkout sharing the cache
PRUNE_AGE_S = 30 * 24 * 3600
fallback = None  # why the native functions are not in use, once a load failed

_INT64, _FLOAT64, _BOOL = (np.ctypeslib.ndpointer(dtype, ndim=1, flags="C_CONTIGUOUS")
                           for dtype in (np.int64, np.float64, np.bool_))
_INT64_OUT = np.ctypeslib.ndpointer(np.int64, ndim=1, flags="C_CONTIGUOUS,WRITEABLE")
_UINT64 = np.ctypeslib.ndpointer(np.uint64, ndim=1, flags="C_CONTIGUOUS")

# Every exported function of _native.c: name -> (argtypes, restype).
SIGNATURES = {
    "glbopt_fill_update_table": ([ctypes.py_object, ctypes.py_object, ctypes.c_ssize_t,
                                  _INT64, _INT64, _INT64, _FLOAT64, _BOOL], ctypes.c_int),
    "glbopt_ba_targets": ([ctypes.c_ssize_t, ctypes.c_ssize_t, ctypes.py_object,
                           ctypes.c_ssize_t, _INT64_OUT], ctypes.c_int),
    "glbopt_write_list": ([ctypes.py_object, _INT64, ctypes.c_ssize_t, _FLOAT64,
                           ctypes.c_ssize_t, ctypes.c_ssize_t, *[ctypes.c_char_p] * 4,
                           _UINT64, ctypes.c_ssize_t, _UINT64, ctypes.c_ssize_t], ctypes.c_int),
}


def compile_command(source, out):
    """The system C compiler's command that builds ``source`` into the shared library ``out``."""
    cc = shlex.split(sysconfig.get_config_var("CC") or "cc")
    include = sysconfig.get_paths()["include"]
    return [*cc, "-O2", "-shared", "-fPIC", f"-I{include}", "-o", str(out), str(source)]


def library_path():
    """Where ``_native.c`` compiled for this interpreter is cached.

    The file lives in ``$XDG_CACHE_HOME/glbopt``, or ``~/.cache/glbopt`` when
    that variable is unset, empty or not an absolute path, under a name keyed
    by the source, the interpreter and the compile command less its file
    names, so a changed compiler or flag builds anew.
    """
    placeholders = ("\0source", "\0out")
    command = [arg for arg in compile_command(*placeholders) if arg not in placeholders]
    key = hashlib.sha256(b"\0".join([
        SOURCE.read_bytes(), sys.version.encode(),
        (sysconfig.get_config_var("EXT_SUFFIX") or "").encode(), *map(str.encode, command),
    ])).hexdigest()
    cache = os.environ.get("XDG_CACHE_HOME", "")
    base = Path(cache) if os.path.isabs(cache) else Path.home() / ".cache"
    return base / "glbopt" / f"_native-{key[:32]}.so"


def _build_and_load():
    """``_native.c`` compiled for this interpreter at :func:`library_path`,
    loaded with ``ctypes.PyDLL``.  A build goes to a temporary name renamed
    into place, so no reader sees a partial file; a cached file that does
    not load, such as a truncated one, is removed and built once more.  A
    load from the cache sets the file's mtime to now, so the mtime tells when
    it was last built or loaded; after a build, the other ``_native-*.so``
    files of the cache directory whose mtime is more than ``PRUNE_AGE_S`` old
    are removed."""
    lib = library_path()
    if lib.exists():
        try:
            loaded = ctypes.PyDLL(str(lib))
        except OSError:
            lib.unlink(missing_ok=True)
        else:
            with contextlib.suppress(OSError):  # a read-only cache still loads
                os.utime(lib)
            return loaded
    lib.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(suffix=".so.tmp", dir=lib.parent)
    os.close(fd)
    try:
        subprocess.run(compile_command(SOURCE, tmp), check=True,
                       stdin=subprocess.DEVNULL, capture_output=True)
        os.replace(tmp, lib)
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
    _prune(lib)
    return ctypes.PyDLL(str(lib))


def _prune(lib):
    """Remove the siblings of ``lib`` named ``_native-*.so`` whose mtime is
    more than ``PRUNE_AGE_S`` before now; one that vanishes or cannot be
    removed meanwhile is left to the next build."""
    cutoff = time.time() - PRUNE_AGE_S
    for old in lib.parent.glob("_native-*.so"):
        with contextlib.suppress(OSError):
            if old != lib and old.stat().st_mtime < cutoff:
                old.unlink()


@functools.cache
def load():
    """The functions of :data:`SIGNATURES` by name, typed, or None when the
    library cannot be compiled or loaded here; the reason is kept in
    ``fallback``.  Runs once per process."""
    global fallback
    try:
        lib = _build_and_load()
        functions = {name: getattr(lib, name) for name in SIGNATURES}
    except (OSError, subprocess.SubprocessError, AttributeError, RuntimeError) as exc:
        stderr = getattr(exc, "stderr", None)
        fallback = f"{exc!r}" + (f": {stderr.decode(errors='replace')}" if stderr else "")
        return None
    for name, (argtypes, restype) in SIGNATURES.items():
        functions[name].argtypes, functions[name].restype = argtypes, restype
    fallback = None
    return functions


def function(name):
    """The C function ``name`` of ``_native.c``, or None (see :func:`load`)."""
    functions = load()
    return None if functions is None else functions[name]
