"""Paths held in pooled blocks: drawn on one thread, finished and read on another.

The OU replication engine in :mod:`submoments.lab` runs two threads over
two queues of blocks.  The calling thread takes each block from ``free``,
draws its normals into it and puts it on ``drawn``.  The reducer thread
walks the same (grid point, replication) order: each pair's
:class:`BlockPath` pulls the pair's blocks off ``drawn`` as the covariance
kernel's reads reach them, finishes each into the path, and puts them back
on ``free`` behind the kernel's last walk.  The kernel reads the blocks
through a :class:`PathView`, which gives it the window-reader protocol a
:class:`~submoments.grids.FileSequence` gives it.  A ``None`` on ``drawn``
means the draw failed: the read raises, and the reducer ends on that error
as on any other.
"""

from __future__ import annotations

import numpy as np

from .models import moving_average


class BlockPath:
    """One replication's fine path in pooled blocks of ``size`` rows each.

    Its blocks come off the ``drawn`` queue in row order; a read that first
    reaches one turns it into the path with ``finish(block)``, and
    :meth:`release` puts the leading blocks back on ``free``.  A ``None`` on
    ``drawn`` means the draw failed: the read raises ``RuntimeError``.
    """

    def __init__(self, drawn, free, size: int, finish):
        self.drawn, self.free, self.size = drawn, free, size
        self.blocks: list = []  # the rows of each block pulled so far, finished, in row order
        self._finish = finish
        self._released = 0

    def release(self, k: int | None = None) -> None:
        """Put the blocks before block ``k``, or all pulled so far, back on ``free``."""
        k = len(self.blocks) if k is None else k
        for block in self.blocks[self._released : k]:
            self.free.put(block.base)
        self._released = max(k, self._released)

    def gather(self, first: int, count: int, step: int, out: np.ndarray) -> np.ndarray:
        """Fine rows ``first, first + step, ...``, ``count`` of them, as a 1-d array.

        Rows in one block are a view of it; rows across a block edge are
        copied into ``out``.
        """
        size = self.size
        last = first + (count - 1) * step
        k0, k1 = first // size, last // size
        if k0 < self._released:
            raise RuntimeError(f"block {k0} of a path was read after it went back to the pool")
        while len(self.blocks) <= k1:
            block = self.drawn.get()
            if block is None:
                raise RuntimeError("the draw of a path being read failed")
            self._finish(block)
            self.blocks.append(block)
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
                path.release(first // path.size)
            if w is not None:
                fine = path.gather(first, (n - 1) * stride + w.size, 1, out)
                return moving_average(fine[:, None], w)[::stride]
            values = path.gather(first, n, stride, out)
            if self._scale is not None:
                values = np.multiply(values, self._scale, out=out[:n])
            return values[:, None]

        return window
