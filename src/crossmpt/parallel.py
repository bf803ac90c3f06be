"""Thread and heap use of training and evaluation: OpenBLAS pinned to one
thread, freed heap memory kept in the process, and work split by rows over
the process's cores.

Every primitive computes a frame's values from that frame's rows alone, so a
batch decoded in contiguous row slices, one slice per thread, gives bitwise
the logits of one pass over the whole batch, for any thread count. A
training step runs its fixed row halves through `map_slices`, so its results
depend on the halves and not on the thread count. `submit` runs one job
beside them on a helper lane of its own: `estimate_ber` samples its next
chunk there while the current chunk decodes.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import os
import platform
from concurrent.futures import Future, ThreadPoolExecutor, wait
from pathlib import Path

import numpy as np

__all__ = [
    "keep_freed_heap", "map_slices", "one_blas_thread", "row_slices", "split_rows", "submit",
]

# glibc mallopt (param, value) pairs: M_MMAP_THRESHOLD (-3) at 32 MiB, the
# largest value 64-bit glibc accepts, and M_TRIM_THRESHOLD (-1)
_HEAP_POLICY = ((-3, 32 * 1024 * 1024), (-1, 256 * 1024 * 1024))


@functools.cache
def _openblas_thread_calls():
    """The get/set thread-count functions of the OpenBLAS bundled with numpy,
    or None when numpy runs another BLAS."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                get = getattr(handle, f"{prefix}_get_num_threads{suffix}", None)
                put = getattr(handle, f"{prefix}_set_num_threads{suffix}", None)
                if get is not None and put is not None:
                    get.restype = ctypes.c_int
                    put.argtypes = [ctypes.c_int]
                    return get, put
    return None


@contextlib.contextmanager
def one_blas_thread():
    """Run OpenBLAS on one thread inside the block, then restore its count.

    The GEMMs of a training step and of a decode call are big enough for
    OpenBLAS to thread but too small to gain from it; its threads then wait
    for a core, and they compete with the row threads of `map_slices`.
    """
    calls = _openblas_thread_calls()
    if calls is None:
        yield
        return
    get, put = calls
    before = get()
    put(1)
    try:
        yield
    finally:
        put(before)


def keep_freed_heap() -> None:
    """Keep freed heap memory in the process (glibc only; idempotent).

    By default glibc serves each multi-MB numpy temporary with its own mmap
    and returns it to the kernel when it is freed, and trims the top of the
    heap as soon as enough of it is free, so the next evaluation chunk or
    training step faults the same pages in again. Setting both thresholds
    freezes glibc's dynamic ones: temporaries up to 32 MiB come from the heap,
    and up to 256 MiB of free heap top stays mapped for reuse. No arithmetic
    changes.
    """
    if platform.libc_ver()[0] != "glibc":
        return
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    for param, value in _HEAP_POLICY:
        if mallopt(param, value) != 1:
            raise OSError(f"mallopt({param}, {value}) failed")


def _cores() -> int:
    """Cores this process may run on."""
    return len(os.sched_getaffinity(0))


# (pid, lanes): helper threads kept alive across calls, one single-thread
# executor per lane, so the jobs sent to a lane always run on one thread and
# allocate from that thread's malloc arena. A process forked from this one
# inherits the entry but not the threads, so the pid tells it to start its
# own.
_helpers: tuple[int, tuple[ThreadPoolExecutor, ...]] | None = None


def _lanes(size: int) -> tuple[ThreadPoolExecutor, ...]:
    """At least `size` helper lanes of this process; lanes are added when
    more are asked for, and each keeps its thread once started."""
    global _helpers
    lanes = _helpers[1] if _helpers is not None and _helpers[0] == os.getpid() else ()
    if len(lanes) < size:
        lanes += tuple(
            ThreadPoolExecutor(1, thread_name_prefix=f"crossmpt-lane{i}")
            for i in range(len(lanes), size)
        )
        _helpers = (os.getpid(), lanes)
    return lanes


def submit(fn, *args) -> Future:
    """fn(*args) on helper lane threads - 1, the lane past those that
    `map_slices` takes, so row slices never wait behind this job and every
    such job runs on one thread. The caller keeps at most one job in flight
    and reads its result."""
    t = _cores()
    return _lanes(t)[t - 1].submit(fn, *args)


def map_slices(fn, slices: list[slice]) -> list:
    """[fn(s) for s in slices], computed on min(cores, len(slices)) threads.

    The slices are dealt to the threads in contiguous groups (`row_slices`),
    the calling thread computing the first group and helper lanes 0, 1, ...
    the others; results come back in slice order. Each fn call must depend
    only on the slice it is given.
    """
    t = min(_cores(), len(slices))
    groups = [slices[s] for s in row_slices(len(slices), t)]

    def run(group):
        return [fn(rows) for rows in group]

    futures = [_lanes(t - 1)[i].submit(run, group) for i, group in enumerate(groups[1:])]
    try:
        out = run(groups[0])
    finally:
        wait(futures)
    for f in futures:
        out += f.result()
    return out


def row_slices(frames: int, groups: int) -> list[slice]:
    """`groups` contiguous row slices of a batch of `frames` rows, as equal
    as they can be; the partition depends only on the two numbers."""
    edges = [frames * i // groups for i in range(groups + 1)]
    return [slice(a, b) for a, b in zip(edges[:-1], edges[1:])]


def split_rows(fn, frames: int) -> np.ndarray:
    """fn(rows) over t = min(cores, frames) contiguous row slices of a
    batch, one slice per thread, concatenated along the first axis."""
    parts = map_slices(fn, row_slices(frames, min(_cores(), frames)))
    return parts[0] if len(parts) == 1 else np.concatenate(parts)
