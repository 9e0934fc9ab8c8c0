"""The runner of ``citegen.fid.train``'s shards, which knows nothing of the model.

``train`` cuts each batch into at most two shards that ``runner`` runs
forward and backward at once, with BLAS held at one thread: the first in the
calling process, the second in a worker process that the first call forks,
whatever its batch size, kept for later calls and reaped at interpreter
exit. One shared mapping, made before the worker is forked and so inherited
by it, holds, in areas of one layout, the parameters (area 0) and each
shard's gradients, the caller's (area 1) and the worker's (area 2). Each
step sends the worker only its shard's arguments, and the caller adds the
worker's area into its own after its shard, so results depend on the shard
count and not on the machine.
"""

from __future__ import annotations

import atexit
import ctypes
import functools
import math
import mmap
import os
import pickle
import signal
import sys
import threading
from contextlib import contextmanager
from pathlib import Path

import numpy as np


@functools.cache
def _openblas():
    """The OpenBLAS that numpy bundles, with its thread-count functions
    declared, or None where that library or those functions are not found."""
    libs = Path(np.__file__).parent.with_name("numpy.libs")
    for path in sorted(libs.glob("libscipy_openblas64_*.so")):
        try:
            lib = ctypes.CDLL(str(path))
            get, set_ = (lib.scipy_openblas_get_num_threads64_,
                         lib.scipy_openblas_set_num_threads64_)
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        return lib
    return None


@contextmanager
def _one_blas_thread():
    """Run the block with OpenBLAS at one thread, then restore its count.

    Each shard then keeps to one core, where more BLAS threads would
    oversubscribe the cores, and BLAS sums do not depend on the thread count
    the process started with. A process forked inside the block gets the
    replaced count back (``_WorkerPool.forked``). Does nothing where the
    library is not found."""
    lib = _openblas()
    if lib is None:
        yield
        return
    _POOL.blas_threads.append(lib.scipy_openblas_get_num_threads64_())
    lib.scipy_openblas_set_num_threads64_(1)
    try:
        yield
    finally:
        lib.scipy_openblas_set_num_threads64_(_POOL.blas_threads.pop())


def _layout(params) -> tuple[dict[str, tuple[int, tuple[int, ...]]], int]:
    """Each tensor's offset (in float64s, a multiple of 8: 64 bytes) and
    shape in one area of the shared memory, and the area's length."""
    layout, size = {}, 0
    for k, v in params.items():
        layout[k] = size, v.shape
        size += -(-v.size // 8) * 8
    return layout, size


def _views(area: np.ndarray, layout) -> dict[str, np.ndarray]:
    """The tensors of one area, as arrays over it."""
    return {k: area[offset : offset + math.prod(shape)].reshape(shape)
            for k, (offset, shape) in layout.items()}


def _send(fd: int, obj) -> None:
    """Write ``obj`` to the pipe ``fd``, pickled, after its length."""
    data = pickle.dumps(obj, pickle.HIGHEST_PROTOCOL)
    view = memoryview(len(data).to_bytes(8, "little") + data)
    while view:
        view = view[os.write(fd, view):]


def _read(fd: int, n: int) -> bytearray:
    buf = bytearray()
    while len(buf) < n:
        chunk = os.read(fd, n - len(buf))
        if not chunk:
            raise EOFError("pipe closed")
        buf += chunk
    return buf


def _recv(fd: int):
    """The next object ``_send`` wrote to the pipe ``fd``; EOFError once
    its writer has closed it."""
    return pickle.loads(_read(fd, int.from_bytes(_read(fd, 8), "little")))


def _serve(rfd: int, wfd: int, memory: np.ndarray) -> None:
    """The worker's loop, until the pipe ``rfd`` closes: for each ``(fn,
    args)`` received, reply ``(True, fn(params, grads, config, *args))`` or
    ``(False, exception)`` on ``wfd``. ``fn`` None starts a call of
    ``runner``: args are its config and the layout and length of an area
    of ``memory``, whose parameters are area 0 and the worker's gradients
    area 2."""
    params = grads = config = None
    while True:
        try:
            fn, args = _recv(rfd)
        except EOFError:
            return
        if fn is None:
            config, layout, size = args
            params, grads = (_views(memory[i * size : (i + 1) * size], layout) for i in (0, 2))
            continue
        try:
            reply = True, fn(params, grads, config, *args)
        except Exception as e:  # the caller raises it
            reply = False, e
        try:
            _send(wfd, reply)
        except BrokenPipeError:  # the caller has gone
            return


class _WorkerPool:
    """The shared memory of ``runner`` and the worker process that runs
    second shards over it (see ``_serve``): forked on first use, with a pipe
    each way, kept for every later call, and ended by ``stop``, which runs
    at interpreter exit. Forked rather than spawned: a spawned process would
    import numpy and citegen again, about 80 ms here, before its first
    shard.

    Each call's parameters and gradients lie in areas of ``memory`` (see
    ``_Runner``). One call at a time holds ``lock``. ``pid`` is the last
    worker's (None before the first), and ``exitcode`` is None until that
    worker is reaped."""

    def __init__(self):
        self.down = self.up = -1
        self.blas_threads: list[int] = []  # replaced by _one_blas_thread blocks, outermost first
        self.forked()  # the state of a process that has made no call

    def get(self, n: int) -> None:
        """Make ``memory`` hold at least ``n`` float64s, and the worker run.
        ``memory`` only grows, and a worker shares only the mapping it was
        forked over, so growing it stops the worker."""
        if self.memory.size < n:
            self.stop()
            self.memory = np.frombuffer(mmap.mmap(-1, 8 * n), np.float64)
        if not self.running():
            self.fork()

    def fork(self) -> None:
        """Fork a worker over ``memory``; ``runner`` calls it holding ``lock``."""
        rfd, self.down = os.pipe()
        self.up, wfd = os.pipe()
        memory = self.memory  # in the worker, forked() drops the pool's, and the caller's pipe ends
        self.pid, self.exitcode = os.fork(), None
        if self.pid == 0:  # the worker; it never returns into the caller's code
            code = 0
            try:  # no import: one that another thread was running at the fork never ends here
                signal.signal(signal.SIGINT, signal.SIG_IGN)  # it ends when its pipe closes
                with _one_blas_thread():
                    _serve(rfd, wfd, memory)
            except BaseException:
                sys.excepthook(*sys.exc_info())
                code = 1
            finally:
                os._exit(code)
        os.close(rfd)
        os.close(wfd)

    def close(self) -> None:
        """Close this process's ends of the pipes; the worker then ends."""
        for fd in (self.down, self.up):
            if fd >= 0:
                os.close(fd)
        self.down = self.up = -1

    def running(self) -> bool:
        """Whether the worker can take shards; reaps it if it has ended."""
        if self.exitcode is None:
            pid, status = os.waitpid(self.pid, os.WNOHANG)
            if pid:
                self.close()
                self.exitcode = os.waitstatus_to_exitcode(status)
        return self.exitcode is None

    def send(self, fn, args) -> None:
        try:
            _send(self.down, (fn, args))
        except OSError:  # it has ended; reply() says so
            self.stop()

    def reply(self) -> tuple[bool, object]:
        """``(ok, result or exception)`` of the shard last sent; a
        ChildProcessError if the worker has ended."""
        if self.exitcode is None:
            try:
                return _recv(self.up)
            except (EOFError, OSError):
                self.stop()
        return False, ChildProcessError(f"shard worker {self.pid} ended with exit code "
                                        f"{self.exitcode}")

    def stop(self) -> None:
        """Close the pipes, which ends the worker once its shard is done, and reap it."""
        if self.exitcode is None:
            self.close()
            self.exitcode = os.waitstatus_to_exitcode(os.waitpid(self.pid, 0)[1])

    def forked(self) -> None:
        """Runs in every forked child, the worker included, which drops what
        it inherited of its parent's calls: the pipes of the parent's
        worker, which must not serve it; ``memory``, which the parent still
        shares, so its own calls map their own; and ``lock``, which a thread
        the child does not have may hold, so its own call would wait for
        good. No block of ``_one_blas_thread`` runs in the child, so OpenBLAS
        gets back the count the outermost one replaced."""
        self.lock = threading.Lock()
        self.close()
        self.memory, self.pid, self.exitcode = np.empty(0), None, 0  # no worker of its own
        if self.blas_threads:
            _openblas().scipy_openblas_set_num_threads64_(self.blas_threads[0])
            self.blas_threads.clear()


_POOL = _WorkerPool()
atexit.register(_POOL.stop)
os.register_at_fork(after_in_child=_POOL.forked)


class _Runner:
    """The shards of one ``runner`` call. The rows of ``areas`` lie over the
    pool's ``memory``: the parameters, then each shard's gradients, the
    first's and the second's; ``params`` and ``grads`` (one per shard) are
    their tensors."""

    def __init__(self, params, config):
        layout, size = _layout(params)
        _POOL.get(3 * size)
        self.areas = _POOL.memory[: 3 * size].reshape(3, size)
        self.params, *self.grads = (_views(area, layout) for area in self.areas)
        for k, v in params.items():
            self.params[k][...] = v
        self.config = config
        _POOL.send(None, (config, layout, size))

    def map(self, fn, *iterables) -> list:
        """``fn(params, grads, config, *args)`` of each shard's args, in shard
        order, with that shard's gradients: the first shard in this process,
        the second meanwhile in the worker, whose exception is raised."""
        first, *rest = zip(*iterables)
        if not rest:
            return [fn(self.params, self.grads[0], self.config, *first)]
        (second,) = rest
        try:
            _POOL.send(fn, second)
            try:
                out = fn(self.params, self.grads[0], self.config, *first)
            finally:  # drain the pipe, even when the first shard failed
                ok, value = _POOL.reply()
        except KeyboardInterrupt:  # the pipe may hold part of a message
            _POOL.stop()
            raise
        if not ok:
            raise value
        return [out, value]


@contextmanager
def runner(params, config):
    """A ``_Runner`` whose ``params`` are a copy of ``params`` in shared
    memory, whose ``map`` runs one shard or two, and whose BLAS is held at
    one thread until the block ends. Calls from several threads run one at
    a time."""
    with _POOL.lock, _one_blas_thread():
        yield _Runner(params, config)
