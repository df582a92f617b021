"""Zero-copy shared-memory data plane for the worker pool.

Large numpy arrays crossing the pool's pipes (feature stacks and model
weights in, result maps out) used to pay a full pickle round-trip per
attempt.  This module externalizes them into POSIX shared-memory
segments (plain files under ``/dev/shm``) so only a ~100-byte
:class:`ShmArray` descriptor rides the pipe; the receiving process maps
the segment lazily and reconstructs the array as a zero-copy view.

Design notes (hard-won lifetime rules):

- **Views are created with ``np.frombuffer`` on a raw ``mmap``**, never
  through ``multiprocessing.shared_memory``.  ``np.frombuffer`` exports
  the mmap's buffer, so ``mmap.close()`` raises ``BufferError`` while
  any view is alive and the mapping is only unmapped when the last view
  dies — a view can never dangle.  (``SharedMemory.__del__`` closes its
  mapping *under* live numpy views and segfaults; ``np.ndarray(buffer=
  mm)`` does not pin the export either.  Both are banned here.)
- **Unlink-early is safe.**  POSIX keeps the pages alive while any
  mapping exists, so the parent unlinks segments at job end even though
  result views are still in use; the name disappears from ``/dev/shm``
  immediately and the memory is freed when the last view is collected.
  This is what makes crash reclamation watertight: nothing needs to
  outlive the job.
- **Read-only on the receiving side.**  A segment is written once, by
  the process that creates it, and every other process maps it
  read-only and gets an immutable view.
- **No resource tracker.**  Segments are plain ``os.open``/``mmap``
  files created with ``O_EXCL``, so there is no
  ``multiprocessing.resource_tracker`` registration to leak or
  double-unregister across the spawn boundary.
- **Parent-owned lifetime, by construction.**  Every segment belongs
  to one :class:`ShmScope` (one per pool job), opened with
  ``with ARENA.scope(label) as scope:``; ``share`` and ``adopt`` are
  methods of the scope, so there is no way to create a segment without
  an owner.  Leaving the block unlinks what the scope
  owns and sweeps segments a SIGKILL'd worker created under its name
  but never handed over.  A scope that is dropped unclosed is
  reclaimed by its finalizer — at collection, or at interpreter exit —
  and reported via the ``shm.segments_leaked`` counter.

Transport: :func:`dumps` / :func:`loads` are drop-in pickle
replacements that externalize eligible ndarrays (``type(obj) is
np.ndarray``, non-object dtype, ``nbytes`` at least :data:`THRESHOLD`)
through the pickle ``persistent_id`` hook.  Eligibility preserves C/F
contiguity the way numpy's own pickle does, so reconstructed arrays are
bitwise- and layout-identical to inline transport.  Without a writer
(the pool passes none when ``/dev/shm`` is unavailable, and counts
``shm.inline_fallbacks``), :func:`dumps` is plain pickle; see the
"payload transport" section of ``docs/performance.md``.
"""

from __future__ import annotations

import io
import mmap
import os
import pickle
import sys
import threading
import weakref
from dataclasses import dataclass

import numpy as np

from repro.obs import (
    counter_add,
    current_tracer,
    gauge_set,
    monotonic,
    span_record,
)
from repro.obs.registry import (
    SHM_ATTACH,
    SHM_ATTACHES,
    SHM_BYTES_SHARED,
    SHM_EXTERNALIZE,
    SHM_SEGMENTS_ACTIVE,
    SHM_SEGMENTS_LEAKED,
    SHM_SEGMENTS_RELEASED,
    SHM_SEGMENTS_SWEPT,
    SpanName,
)

#: Where POSIX shared-memory segments appear as plain files (Linux).
SHM_DIR = "/dev/shm"

#: Externalization threshold in bytes: arrays smaller than this ship
#: inline (descriptor + mmap overhead beats pickle only for large
#: payloads).
THRESHOLD = 64 * 1024

#: Tag namespacing our pickle persistent ids.
_PID_TAG = "repro-shm-ndarray"


def available() -> bool:
    """True when POSIX shared memory is usable on this host."""
    global _AVAILABLE
    if _AVAILABLE is None:
        # The probe is idempotent, but the write must still be locked:
        # pool supervisor and caller threads race through here on first
        # use, and an unlocked check-then-set could tear the init.
        with _AVAILABLE_LOCK:
            if _AVAILABLE is None:
                try:
                    probed = os.path.isdir(SHM_DIR) and os.access(
                        SHM_DIR, os.W_OK | os.X_OK
                    )
                except OSError:  # pragma: no cover - exotic failures
                    probed = False
                _AVAILABLE = probed
    return _AVAILABLE


_AVAILABLE: bool | None = None
_AVAILABLE_LOCK = threading.Lock()


# -- attachment cache ----------------------------------------------------------

#: name -> read-only mmap.  Process-local; workers populate it lazily on
#: first resolve and drop entries on job end (``detach``).
_ATTACH_LOCK = threading.Lock()
_ATTACHMENTS: dict[str, mmap.mmap] = {}


def _attach(name: str) -> mmap.mmap:
    with _ATTACH_LOCK:
        cached = _ATTACHMENTS.get(name)
        if cached is not None and not cached.closed:
            return cached
    fd = os.open(os.path.join(SHM_DIR, name), os.O_RDONLY)
    try:
        size = os.fstat(fd).st_size
        mapped = mmap.mmap(fd, size, access=mmap.ACCESS_READ)
    finally:
        os.close(fd)
    with _ATTACH_LOCK:
        _ATTACHMENTS[name] = mapped
    counter_add(SHM_ATTACHES)
    return mapped


def _close_mapping(mapped: mmap.mmap) -> None:
    """Close a mapping now if nothing holds views; else defer to GC.

    ``np.frombuffer`` views pin the mmap's exported buffer, so ``close``
    raises ``BufferError`` while any view is alive — in that case we
    just drop our reference and the mapping unmaps when the last view
    is collected.
    """
    try:
        mapped.close()
    except BufferError:
        pass


def detach(name: str) -> None:
    """Drop this process's cached mapping of *name* (safe under views)."""
    with _ATTACH_LOCK:
        mapped = _ATTACHMENTS.pop(name, None)
    if mapped is not None:
        _close_mapping(mapped)


def detach_all() -> None:
    """Drop every cached mapping (worker job-end hygiene)."""
    with _ATTACH_LOCK:
        mappings = list(_ATTACHMENTS.values())
        _ATTACHMENTS.clear()
    for mapped in mappings:
        _close_mapping(mapped)


# -- descriptors ---------------------------------------------------------------


@dataclass(frozen=True)
class ShmArray:
    """A ~100-byte handle for an ndarray living in a shared segment.

    Pickles as plain data; :meth:`resolve` maps the segment (cached per
    process) and returns a zero-copy view.  Views are immutable, so
    accidental mutation of shared inputs fails loud instead of
    corrupting a sibling worker.
    """

    name: str
    dtype: str
    shape: tuple
    order: str = "C"

    @property
    def nbytes(self) -> int:
        count = 1
        for dim in self.shape:
            count *= int(dim)
        return count * np.dtype(self.dtype).itemsize

    def resolve(self) -> np.ndarray:
        """Map the segment and return the read-only view (cached mapping)."""
        start = monotonic()
        mapped = _attach(self.name)
        count = 1
        for dim in self.shape:
            count *= int(dim)
        flat = np.frombuffer(mapped, dtype=np.dtype(self.dtype), count=count)
        array = flat.reshape(self.shape, order=self.order)
        array.flags.writeable = False
        _record_span(SHM_ATTACH, start, bytes=self.nbytes, segment=self.name)
        return array


def _record_span(name: SpanName, start: float, **attrs) -> None:
    """Attach a completed externalize/attach span to any active trace."""
    tracer = current_tracer()
    if tracer is not None:
        tracer.attach(span_record(name, start, monotonic(), **attrs))


# -- segment creation ----------------------------------------------------------


def _create(name: str, nbytes: int) -> mmap.mmap:
    """Create an exclusive rw segment of *nbytes* and map it."""
    path = os.path.join(SHM_DIR, name)
    fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_RDWR, 0o600)
    try:
        os.ftruncate(fd, nbytes)
        mapped = mmap.mmap(fd, nbytes, access=mmap.ACCESS_WRITE)
    except BaseException:
        os.close(fd)
        os.unlink(path)
        raise
    os.close(fd)
    return mapped


def _normalized(array: np.ndarray) -> tuple[np.ndarray, str]:
    """Contiguous bytes + order flag, mirroring numpy pickle semantics.

    Fortran-contiguous (non-C) arrays keep their layout so a round
    trip reproduces the exact strides BLAS kernels would otherwise see;
    everything else is written C-contiguous.
    """
    if array.flags.f_contiguous and not array.flags.c_contiguous:
        return np.asfortranarray(array), "F"
    return np.ascontiguousarray(array), "C"


def write_segment(name: str, array: np.ndarray) -> ShmArray:
    """Copy *array* into a fresh segment *name*; returns its descriptor.

    The caller owns the segment (registration/unlink is the arena's or
    the worker protocol's job, not this function's).
    """
    data, order = _normalized(array)
    nbytes = max(int(data.nbytes), 1)
    mapped = _create(name, nbytes)
    try:
        target = np.frombuffer(mapped, dtype=data.dtype, count=data.size)
        target[:] = data.ravel(order="K")
    finally:
        _close_mapping(mapped)
    counter_add(SHM_BYTES_SHARED, int(data.nbytes))
    return ShmArray(
        name=name, dtype=data.dtype.str, shape=tuple(data.shape), order=order
    )


# -- the arena -----------------------------------------------------------------


class ShmScope:
    """Owner of the segments of one pool job.

    Opened with :meth:`ShmArena.scope` and closed by leaving its
    ``with`` block (or :meth:`close`): every segment it created or
    adopted is unlinked, then strays named under it — segments a
    SIGKILL'd worker created but never handed over — are swept.  A
    scope that is dropped unclosed is reclaimed the same way by its
    finalizer (at collection, or at interpreter exit) and reported
    through ``shm.segments_leaked``.  A closed scope owns nothing:
    sharing into it or adopting into it unlinks the segment and raises.
    """

    def __init__(self, arena: "ShmArena", name: str) -> None:
        #: Prefix of every segment name under this scope; workers get
        #: this string to name the result segments they create.
        self.name = name
        self._arena = arena
        self._finalizer = weakref.finalize(self, arena._reclaim, name, True)

    def __enter__(self) -> "ShmScope":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        """Unlink this scope's segments and sweep its orphans (idempotent)."""
        if self._finalizer.detach() is not None:
            self._arena._reclaim(self.name, False)

    def _own(self, name: str) -> None:
        arena = self._arena
        with arena._lock:
            closed = not self._finalizer.alive
            if not closed:
                arena._segments[name] = self.name
            active = len(arena._segments)
        if closed:
            arena._unlink(name)
            raise RuntimeError(f"shm scope {self.name} is closed")
        gauge_set(SHM_SEGMENTS_ACTIVE, active)

    def share(self, array: np.ndarray) -> ShmArray:
        """Copy *array* into a new segment owned by this scope."""
        start = monotonic()
        name = self._arena._next_name(self.name)
        desc = write_segment(name, array)
        self._own(name)
        _record_span(SHM_EXTERNALIZE, start, bytes=desc.nbytes, segment=name)
        return desc

    def adopt(self, desc: ShmArray) -> None:
        """Take ownership of a worker-created segment."""
        self._own(desc.name)


class ShmArena:
    """This process's segment table: which scope owns which segment.

    A segment belongs to exactly one :class:`ShmScope`, from the moment
    the scope creates or adopts it until the scope closes.
    """

    def __init__(self, token: str | None = None) -> None:
        self.token = token or f"rs{os.getpid():x}"
        # Reentrant: a dropped scope's finalizer may run (cyclic GC) on
        # a thread that is inside one of the locked sections below.
        self._lock = threading.RLock()
        #: segment name -> name of the owning scope
        self._segments: dict[str, str] = {}
        self._seq = 0

    def scope(self, label: str) -> ShmScope:
        """Open a scope; its name is unique within this arena."""
        return ShmScope(self, self._next_name(f"{self.token}_{label}"))

    def _next_name(self, prefix: str) -> str:
        with self._lock:
            self._seq += 1
            return f"{prefix}_n{self._seq:x}"

    @property
    def segments_active(self) -> int:
        with self._lock:
            return len(self._segments)

    def _unlink(self, name: str) -> None:
        detach(name)
        try:
            os.unlink(os.path.join(SHM_DIR, name))
        except FileNotFoundError:
            pass
        except OSError:  # pragma: no cover - permissions races
            pass

    def _reclaim(self, scope: str, leaked: bool) -> None:
        """Unlink everything *scope* owns, then anything named under it.

        By the time a pool job's scope closes every worker that ran its
        tasks is idle or joined, so nothing recreates scope-named
        segments after the sweep.
        """
        with self._lock:
            owned = [n for n, o in self._segments.items() if o == scope]
            for name in owned:
                del self._segments[name]
            active = len(self._segments)
        for name in owned:
            self._unlink(name)
        gauge_set(SHM_SEGMENTS_ACTIVE, active)
        counter_add(SHM_SEGMENTS_RELEASED, len(owned))
        try:
            entries = os.listdir(SHM_DIR)
        except OSError:  # pragma: no cover - shm vanished underneath us
            entries = []
        prefix = f"{scope}_"
        strays = [e for e in entries if e.startswith(prefix)]
        for name in strays:
            self._unlink(name)
        if strays:
            counter_add(SHM_SEGMENTS_SWEPT, len(strays))
        if leaked and (owned or strays):
            counter_add(SHM_SEGMENTS_LEAKED, len(owned) + len(strays))
            print(
                f"repro.core.shm: scope {scope} was dropped unclosed; "
                f"reclaimed {len(owned) + len(strays)} shared segment(s)",
                file=sys.stderr,
            )


#: The process-wide arena (parent-side owner of pool segments).
ARENA = ShmArena()


# -- pickle transport ----------------------------------------------------------


class _ExternalizingPickler(pickle.Pickler):
    """Pickler that diverts large ndarrays into shared segments.

    ``writer(array) -> ShmArray`` decides where bytes land (arena-owned
    for parent → worker payloads, loose worker-created segments for
    worker → parent results).
    """

    def __init__(self, file, writer) -> None:
        super().__init__(file, protocol=pickle.HIGHEST_PROTOCOL)
        self._writer = writer

    def persistent_id(self, obj):
        if (
            type(obj) is np.ndarray
            and obj.dtype != object
            and obj.nbytes >= THRESHOLD
        ):
            return (_PID_TAG, self._writer(obj))
        return None


class _ResolvingUnpickler(pickle.Unpickler):
    """Unpickler that resolves :class:`ShmArray` descriptors to views.

    ``on_descriptor`` (when given) observes every descriptor before it
    resolves — the pool parent uses it to adopt worker-created result
    segments into the arena.
    """

    def __init__(self, file, on_descriptor=None) -> None:
        super().__init__(file)
        self._on_descriptor = on_descriptor

    def persistent_load(self, pid):
        tag, desc = pid
        if tag != _PID_TAG:
            raise pickle.UnpicklingError(f"unknown persistent id tag {tag!r}")
        if self._on_descriptor is not None:
            self._on_descriptor(desc)
        return desc.resolve()


def dumps(obj, *, writer=None) -> bytes:
    """Pickle *obj*, externalizing large ndarrays into shared memory.

    *writer* maps an eligible array to a :class:`ShmArray` — the pool
    passes its job scope's ``share``.  Without one, plain pickle.
    """
    if writer is None:
        return pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    buffer = io.BytesIO()
    _ExternalizingPickler(buffer, writer).dump(obj)
    return buffer.getvalue()


def loads(blob: bytes, *, on_descriptor=None):
    """Unpickle a :func:`dumps` blob, resolving shm descriptors to views."""
    return _ResolvingUnpickler(
        io.BytesIO(blob), on_descriptor=on_descriptor
    ).load()
