"""A per-user store of parsed edge lists, eigendecompositions and spectral
radii, addressed by what their bits depend on.

``fileio.read_edge_list``, ``spectral.decompose`` and ``spectral.spectrum``
take ``cache=DIR``; the command line passes ``default_directory()``.  One
path, ``through``, serves all three kinds of entry: it keys the entry, reads
and checks it, computes and stores the result on a miss, and records and
logs the outcome.  The key (``_key``) is the sha256 of a tag naming the kind
and its parameters, the data it is computed from, and ``environment()``,
everything else its bits depend on: Python and numpy, numpy's BLAS build,
the BLAS thread variables and the number of CPUs the process may use, the
CPU features numpy dispatches on, the machine and host, and the package's
own sources, so that any change of code misses.  The command line's
manifest records the same ``environment()``.

Each caller keeps its entry layout: which arrays fit, and how a result packs
into them and back.  ``fileio`` keys an edge list by the sha256 of the
file's bytes and stores the checked graph; ``spectral`` keys a decomposition
by the solver and the graph, and stores its eigenvalues, basis and
condition, and keys the graph's spectral radius by the graph alone.  That
radius entry is rho's one home: a decomposition, a ``filter`` and a
shift-form ``classify`` read it, so a graph certifies rho once.  Every
entry stores a sha256 of its arrays, which every read checks.  A missing,
unreadable, truncated or mismatching entry is a miss; a directory that
cannot be made or written, or a full disk, leaves the entry unstored.  The
entries of all kinds together hold at most ``MAX_BYTES``: an entry larger
than that is not stored, and after each write the entries used longest ago,
by modification time, which a hit renews, are dropped until the rest fit.
"""

from __future__ import annotations

import functools
import hashlib
import json
import logging
import os
import sys

import numpy as np

log = logging.getLogger("graphdsp")

FORMAT = "graphdsp-basis-1"
MAX_BYTES = 1 << 30
SUFFIX = ".npy"
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def default_directory(environ=os.environ):
    """``$XDG_CACHE_HOME/graphdsp``, or ``$HOME/.cache/graphdsp`` where that
    variable is unset, empty or relative; None where the home directory is
    not an absolute path."""
    base = environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(base):
        home = environ.get("HOME")
        home = os.path.expanduser("~") if home is None else home
        if not os.path.isabs(home):
            return None
        base = os.path.join(home, ".cache")
    return os.path.join(base, "graphdsp")


@functools.cache
def _sources():
    """sha256 of the package's module sources, by file name."""
    h = hashlib.sha256()
    here = os.path.dirname(os.path.abspath(__file__))
    for name in sorted(os.listdir(here)):
        if name.endswith(".py"):
            with open(os.path.join(here, name), "rb") as fh:
                h.update(f"{name}:{os.fstat(fh.fileno()).st_size}:".encode())
                h.update(fh.read())
    return h.hexdigest()


def _update(h, x):
    """Feed an array's dtype, shape, memory order and bytes (in memory order,
    without a copy where it is contiguous) to the hash h."""
    fortran = x.flags.f_contiguous and not x.flags.c_contiguous
    h.update(f"{x.dtype.str}{x.shape}{'F' if fortran else 'C'};".encode())
    h.update(x.ravel(order="K").view(np.uint8))


def _cpus():
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return os.cpu_count()


def environment():
    """Everything besides the graph that the bits of a result depend on:
    Python and numpy, numpy's BLAS build (null where numpy reports none),
    the BLAS thread variables and the CPUs this process may use (from which
    OpenBLAS takes its thread count where no variable sets it), the CPU
    features numpy dispatches on, the machine and host, and a digest of the
    package's sources.  Read at each call: the variables may change."""
    config = np.show_config(mode="dicts")
    build = config.get("Build Dependencies", {}).get("blas", {})
    uname = os.uname()
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "blas": {"name": build.get("name"), "version": build.get("version"),
                     "openblas_configuration": build.get("openblas configuration")},
            "threads": {v: os.environ.get(v) for v in THREAD_VARIABLES},
            "cpus": _cpus(), "simd": config.get("SIMD Extensions", {}).get("found"),
            "machine": uname.machine, "host": uname.nodename, "sources": _sources()}


def _key(tag, arrays):
    """The entry key of data ``arrays`` under ``tag``, a list naming the kind
    of entry and its parameters: one rule for every kind."""
    h = hashlib.sha256(FORMAT.encode())
    h.update(json.dumps([*tag, environment()], sort_keys=True).encode())
    for x in arrays:
        _update(h, x)
    return h.hexdigest()


def _digest(arrays):
    h = hashlib.sha256()
    for x in arrays:
        _update(h, x)
    return np.frombuffer(h.digest(), dtype=np.uint8)


def _read(directory, key, count, fits):
    """The ``count`` arrays stored as the entry of ``key``, read-only, where
    ``fits(*arrays)`` accepts their dtypes and shapes and their digest
    checks; a hit renews the entry.  None where the entry is missing or
    unreadable, or does not fit or check."""
    path = os.path.join(directory, key + SUFFIX)
    try:
        with open(path, "rb") as fh:
            digest, *arrays = (np.lib.format.read_array(fh, allow_pickle=False)
                               for _ in range(count + 1))
            if fh.read(1):
                raise ValueError("trailing bytes")
    except (OSError, ValueError, MemoryError):  # a corrupt header can ask for any size
        return None
    if (not fits(*arrays) or digest.dtype != np.uint8 or digest.shape != (32,)
            or not np.array_equal(digest, _digest(arrays))):
        return None
    for x in arrays:
        x.setflags(write=False)
    try:
        os.utime(path)
    except OSError:
        pass
    return arrays


def through(directory, label, tag, data, count, fits, compute, pack, unpack):
    """``unpack(*arrays)`` of the ``count`` arrays stored in ``directory``
    for ``tag`` and ``data``, where ``fits(*arrays)`` accepts them; else
    ``compute()``, stored as ``pack(result)`` once it has returned, so that
    a refusal is never stored.  The result records the outcome and the key,
    logged after ``label``.  With ``directory`` None nothing is read,
    written or recorded."""
    if directory is None:
        return compute()
    key = _key(tag, data)
    arrays = _read(directory, key, count, fits)
    if arrays is None:
        result = compute()
        outcome = "miss" if store(directory, key, pack(result)) else "unavailable"
    else:
        result, outcome = unpack(*arrays), "hit"
    log.debug("basis_cache: %s %s key=%s", outcome, label, key)
    result.__dict__["_cache"] = {"cache": outcome, "key": key}
    return result


def store(directory, key, arrays):
    """Store ``arrays`` as the entry of ``key``: one file of ``np.save``
    records, their digest first, written under a name of this process and
    renamed into place.  Then drop the entries used longest ago until all
    fit in ``MAX_BYTES``.  False where the entry is larger than that or
    could not be stored."""
    if sum(x.nbytes for x in arrays) > MAX_BYTES:
        return False
    path = os.path.join(directory, key + SUFFIX)
    tmp = os.path.join(directory, f"{key}.{os.getpid()}.tmp")
    try:
        os.makedirs(directory, mode=0o700, exist_ok=True)
        try:
            with open(tmp, "wb") as fh:
                for x in (_digest(arrays), *arrays):
                    np.save(fh, x, allow_pickle=False)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.remove(tmp)
            except OSError:
                pass
            raise
        return _prune(directory, key + SUFFIX)
    except OSError:
        return False


def _prune(directory, written):
    """Drop the entries used longest ago, never the one just ``written``
    (a coarse clock can date it no later than the others), until all hold
    at most ``MAX_BYTES``; but drop ``written`` alone, and return False,
    where its file by itself is larger than that."""
    entries, total, own = [], 0, 0
    for entry in os.scandir(directory):
        if entry.name.endswith(SUFFIX):
            try:
                st = entry.stat()
            except OSError:  # removed meanwhile
                continue
            total += st.st_size
            if entry.name == written:
                own = st.st_size
            else:
                entries.append((st.st_mtime_ns, st.st_size, entry.name))
    if own > MAX_BYTES:  # its arrays fit, but not with their headers
        os.remove(os.path.join(directory, written))
        return False
    for _, size, name in sorted(entries):
        if total <= MAX_BYTES:
            break
        try:
            os.remove(os.path.join(directory, name))
        except OSError:
            pass
        total -= size
    return True
