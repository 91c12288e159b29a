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
from pathlib import Path

import numpy as np

SOURCE = Path(__file__).with_name("_native.c")
fallback = None  # why the native functions are not in use, once a load failed

_INT64, _FLOAT64, _BOOL = (np.ctypeslib.ndpointer(dtype, ndim=1, flags="C_CONTIGUOUS")
                           for dtype in (np.int64, np.float64, np.bool_))
_INT64_OUT = np.ctypeslib.ndpointer(np.int64, ndim=1, flags="C_CONTIGUOUS,WRITEABLE")

# Every exported function of _native.c: name -> (argtypes, restype).
SIGNATURES = {
    "glbopt_fill_update_table": ([ctypes.py_object, ctypes.py_object, ctypes.c_ssize_t,
                                  _INT64, _INT64, _INT64, _FLOAT64, _BOOL], ctypes.c_int),
    "glbopt_ba_targets": ([ctypes.c_ssize_t, ctypes.c_ssize_t, ctypes.py_object,
                           ctypes.c_ssize_t, _INT64_OUT], ctypes.c_int),
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
    not load, such as a truncated one, is removed and built once more."""
    lib = library_path()
    if lib.exists():
        try:
            return ctypes.PyDLL(str(lib))
        except OSError:
            lib.unlink(missing_ok=True)
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
    return ctypes.PyDLL(str(lib))


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
