"""Paths held in pooled blocks: drawn on one thread, finished and read on another.

The OU replication engine in :mod:`submoments.lab` runs two threads
around one :class:`Lane`: the calling thread draws each replication's
normals into the lane's blocks, and the lane's reducer thread finishes
each block into the path and runs the covariance kernel over the blocks
through a :class:`PathView`, which gives the kernel the window-reader
protocol a :class:`~submoments.grids.FileSequence` gives it.
"""

from __future__ import annotations

import threading
from collections import deque

import numpy as np

from .models import moving_average


class Abandoned(Exception):
    """Raised on a reducer thread when the path it reads will never be drawn."""


class Lane:
    """The replication engine's pool of path blocks and its reducer thread.

    The drawing thread queues a replication's :class:`BlockPath` and draws its
    normals into blocks taken from the pool.  The reducer thread takes the paths in
    that order and calls ``reduce_path(path)``, which finishes and reads the
    blocks; they come back to the pool as the path's last walk passes them,
    and when its reduction ends.  The first error a reduction raises is kept
    in ``error``: the paths queued after it are dropped, and the drawing
    thread raises it at its next :meth:`take` or :meth:`queue`.
    """

    def __init__(self, blocks: int, rows: int, reduce_path):
        self.error = None
        self.cond = threading.Condition()
        self.rows = rows  # a block's
        self._free: list = []
        self._room = blocks  # blocks the pool may still allocate
        self._paths: deque = deque()
        self._drop = False
        self._reduce_path = reduce_path
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def take(self) -> np.ndarray:
        """A free block, waiting while every block the pool may hold is in use."""
        with self.cond:
            while self.error is None and not self._free and not self._room:
                self.cond.wait()
            if self.error is not None:
                raise self.error
            if self._free:
                return self._free.pop()
            self._room -= 1
        return np.empty(self.rows)

    def give(self, blocks) -> None:
        with self.cond:
            self._free.extend(blocks)
            self.cond.notify_all()

    def queue(self, path) -> None:
        with self.cond:
            if self.error is not None:
                raise self.error
            self._paths.append(path)
            self.cond.notify_all()

    def close(self, drop: bool) -> None:
        """End the reducer thread once it has reduced the queued paths, or dropped them."""
        with self.cond:
            self._drop = drop
            self._paths.append(None)
            self.cond.notify_all()
        self._thread.join()

    def _run(self) -> None:
        while True:
            with self.cond:
                while not self._paths:
                    self.cond.wait()
                path = self._paths.popleft()
                skip = self.error is not None or self._drop
            if path is None:
                return
            try:
                if not skip:
                    self._reduce_path(path)
            except Abandoned:
                pass
            except BaseException as exc:  # raised again on the drawing thread and by _replicate
                with self.cond:
                    self.error = exc
                    self.cond.notify_all()
            finally:
                path.release()


class BlockPath:
    """One replication's fine path in a lane's blocks, ``lane.rows`` rows each.

    The drawing thread draws the normals into blocks (:meth:`take`, :meth:`land`);
    the reducer thread turns each into the path with the function
    ``make_finish()`` returns, in order, when a read first reaches it, and
    gives the leading blocks back with :meth:`release`.
    """

    def __init__(self, lane: Lane, gi: int, rep: int, make_finish):
        self.lane, self.gi, self.rep = lane, gi, rep
        self.blocks: list = []  # the rows of each block taken, in row order
        self._make_finish, self._finish = make_finish, None
        self._landed = self._finished = self._released = 0
        self._abandoned = False

    def take(self, rows: int) -> np.ndarray:
        block = self.lane.take()[:rows]
        with self.lane.cond:
            self.blocks.append(block)
        return block

    def land(self, _block) -> None:
        with self.lane.cond:
            self._landed += 1
            self.lane.cond.notify_all()

    def abandon(self) -> None:
        with self.lane.cond:
            self._abandoned = True
            self.lane.cond.notify_all()

    def release(self, k: int | None = None) -> None:
        """Give the blocks before block ``k``, or all taken so far, back to the pool."""
        with self.lane.cond:
            k = len(self.blocks) if k is None else k
            given, self._released = self.blocks[self._released : k], max(k, self._released)
        self.lane.give([block.base for block in given])

    def gather(self, first: int, count: int, step: int, out: np.ndarray) -> np.ndarray:
        """Fine rows ``first, first + step, ...``, ``count`` of them, as a 1-d array.

        Rows in one block are a view of it; rows across a block edge are
        copied into ``out``.
        """
        size = self.lane.rows
        last = first + (count - 1) * step
        k0, k1 = first // size, last // size
        if k0 < self._released:
            raise RuntimeError(f"block {k0} of a path was read after it went back to the pool")
        while self._finished <= k1:
            with self.lane.cond:
                while self._landed <= self._finished:
                    if self._abandoned:
                        raise Abandoned
                    self.lane.cond.wait()
            if self._finish is None:
                # not before a block has landed: a process's first filter
                # set-up loads a module, holding the lock its first draw needs
                self._finish = self._make_finish()
            self._finish(self.blocks[self._finished])
            self._finished += 1
        if k0 == k1:
            return self.blocks[k0][first - k0 * size : last - k0 * size + 1 : step]
        out, row, filled = out[:count], first, 0
        for k in range(k0, k1 + 1):
            rows = self.blocks[k][row - k * size : min(last + 1, (k + 1) * size) - k * size : step]
            out[filled : filled + rows.size] = rows
            filled += rows.size
            row += rows.size * step
        return out


class PathView:
    """A coarse sequence of a :class:`BlockPath`, observable or hidden, as the kernel reads it.

    Coarse row ``c`` is the observable at fine row ``offset + stride - 1 +
    c * stride``, as :func:`~submoments.grids.subsample_sequence` picks it:
    the path itself, the path times ``scale``, or the moving average of the
    path with ``weights``, made window by window with the operations the
    whole-path observable uses, so each value has the same bits.  A ``last``
    view is the path's last read: the kernel's second walk over it gives
    each block back once it has passed it.
    """

    def __init__(self, path: BlockPath, point, offset: int, scale=None, weights=None, last=False):
        self.shape = (point.scheme.n_obs + max(point.kappas), 1)
        self._path, self._stride, self._offset = path, point.scheme.stride, offset
        self._scale, self._weights, self._last = scale, weights, last

    def window_reader(self, rows: int):
        path, stride, w = self._path, self._stride, self._weights
        # the fine rows under ``rows`` coarse ones: a moving average reads every one
        out = np.empty(rows if w is None else (rows - 1) * stride + w.size)
        walks = 0

        def window(lo: int, n: int) -> np.ndarray:
            nonlocal walks
            walks += lo == 0
            first = self._offset + stride - 1 + lo * stride
            if self._last and walks == 2:
                path.release(first // path.lane.rows)
            if w is not None:
                fine = path.gather(first, (n - 1) * stride + w.size, 1, out)
                return moving_average(fine[:, None], w)[::stride]
            values = path.gather(first, n, stride, out)
            if self._scale is not None:
                values = np.multiply(values, self._scale, out=out[:n])
            return values[:, None]

        return window
