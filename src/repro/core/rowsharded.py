"""Sample-sharded, out-of-core realization of the reduced LS-SVM system.

The feature-wise multi-GPU split (paper §III) caps ``m`` by host RAM because
every operator holds dense ``X``. Following *Parallel Support Vector
Machines in Practice* (Tyree et al.), :class:`RowShardedQMatrix` partitions
the *samples* instead: shard ``J`` owns its row block ``X_J`` and the
matching slice ``v_J`` of the CG vector, computes a full-length partial
product, and the partials are combined with the deterministic allreduce in
:mod:`repro.parallel.reduction`:

* linear kernel — the Gram factorization ``K_bar @ v = X_bar (X_bar^T v)``
  splits into per-shard feature-space partials ``w_J = X_J^T v_J`` (a true
  ``d``-length allreduce, exactly the ``MultiNodeQMatrix`` communication
  pattern) followed by a second streamed pass ``out_B = X_B @ w``;
* non-linear kernels — shard ``J`` streams *all* row blocks against its
  columns, accumulating ``p_J[I] += K(X_I, X_J') @ v_J'`` tile by tile;
  ``out = allreduce_sum(p_J)``. Tiles reuse the pipeline's kernel math
  (``kernel_matrix`` with precomputed RBF row norms) and the byte-budgeted
  :class:`repro.core.tile_pipeline.TileCache`.

Data arrives through the row-block protocol (``iter_blocks`` /
``row_block`` / ``gather_rows``), so the operator works identically over an
in-memory array (:class:`repro.io.chunked.ArrayRowSource`) and an
out-of-core :class:`repro.io.chunked.ChunkedDataset` — peak memory is a few
row blocks plus O(m) vectors, never ``m × d``. Partial results are folded
through :func:`repro.parallel.reduction.sum_partials` in bounded groups so
the combine step also respects the byte budget.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from ..exceptions import DataError, InvalidParameterError
from ..io.chunked import as_row_source
from ..membudget import active_memory_budget
from ..parallel.partition import BlockRange, chunk_ranges
from ..parallel.reduction import sum_partials
from ..parallel.thread_pool import shared_pool
from ..parameter import Parameter
from ..telemetry.context import current_context
from ..types import KernelType
from .kernels import kernel_matrix, kernel_row, kernel_scalar, squared_row_norms
from .qmatrix import DEFAULT_ROW_BLOCK, QMatrixBase
from .tile_pipeline import DEFAULT_TILE_CACHE_MB, TileCache, _SweepStats

__all__ = ["RowShardedQMatrix"]

#: Fold partial outputs through the allreduce once this many accumulate,
#: bounding the combine step's memory at ``_FOLD_PARTIALS`` full vectors.
_FOLD_PARTIALS = 8


class RowShardedQMatrix(QMatrixBase):
    """Matrix-free ``Q_tilde`` over row-sharded (possibly on-disk) data.

    Parameters
    ----------
    data:
        A row source (``ChunkedDataset`` / ``ArrayRowSource``) or a dense
        array, holding all ``m`` training points.
    num_shards:
        Number of row shards (simulated nodes). Mutually exclusive with
        ``shard_size``; the default derives one shard per source block.
    shard_size:
        Fixed shard height in rows (the last shard may be ragged).
    tile_rows:
        Height/width bound of the kernel tiles streamed by the non-linear
        path; one tile holds at most ``tile_rows**2`` entries.
    tile_cache_mb:
        Byte budget (MiB) of the kernel-tile cache; like ``TilePipeline``
        the cache switches itself off when the full working set cannot
        fit (always the case at out-of-core scale).
    compute_dtype:
        Mixed-precision tile evaluation, as in ``ImplicitQMatrix``.
    """

    operator_name = "row_sharded"

    def __init__(
        self,
        data,
        y: np.ndarray,
        param: Parameter,
        *,
        num_shards: Optional[int] = None,
        shard_size: Optional[int] = None,
        ridge: Optional[np.ndarray] = None,
        binary_labels: bool = True,
        tile_rows: int = 1024,
        solver_threads: Optional[int] = None,
        tile_cache_mb: Optional[float] = None,
        compute_dtype=None,
    ) -> None:
        source = as_row_source(data)
        m = int(source.num_rows)
        d = int(source.num_features)
        if m < 2:
            raise DataError("LS-SVM training requires at least two data points")
        if d < 1:
            raise DataError("training data has no features")
        param = param.with_gamma_for(d)
        y = np.asarray(y, dtype=param.dtype).ravel()
        if y.shape[0] != m:
            raise DataError(
                f"number of points ({m}) and labels ({y.shape[0]}) differ"
            )
        if binary_labels:
            labels = np.unique(y)
            if not np.all(np.isin(labels, (-1.0, 1.0))):
                raise DataError(f"labels must be -1/+1, got {labels[:8]}")
            if labels.size < 2:
                raise DataError("training data contains only a single class")
        elif not np.all(np.isfinite(y)):
            raise DataError("regression targets contain NaN or infinite values")

        self.source = source
        self._block_rows = int(getattr(source, "block_rows", DEFAULT_ROW_BLOCK))
        self.tile_rows = int(tile_rows)
        if self.tile_rows <= 0:
            raise DataError("tile_rows must be positive")

        n = m - 1
        self.x_m = np.asarray(source.row(m - 1), dtype=param.dtype)
        if not np.all(np.isfinite(self.x_m)):
            raise DataError("training data contains NaN or infinite values")
        kw = param.kernel_kwargs()
        is_rbf = param.kernel is KernelType.RBF
        q_bar = np.empty(n, dtype=param.dtype)
        self._row_norms = np.empty(n, dtype=np.float64) if is_rbf else None
        # One streaming pass: q_bar, RBF row norms, and finiteness checks.
        for start, stop, block in source.iter_blocks(stop=n):
            block = np.asarray(block, dtype=param.dtype)
            if not np.all(np.isfinite(block)):
                raise DataError("training data contains NaN or infinite values")
            q_bar[start:stop] = kernel_row(self.x_m, block, param.kernel, **kw)
            if is_rbf:
                self._row_norms[start:stop] = squared_row_norms(block)
        k_mm = kernel_scalar(self.x_m, self.x_m, param.kernel, **kw)
        self._finish_init(y, param, q_bar, k_mm, ridge=ridge)

        self.shards = self._resolve_shards(n, num_shards, shard_size)
        self.compute_dtype = (
            np.dtype(compute_dtype) if compute_dtype is not None else self.dtype
        )
        cache_mb = DEFAULT_TILE_CACHE_MB if tile_cache_mb is None else tile_cache_mb
        capacity = int(float(cache_mb) * 1024 * 1024)
        budget = active_memory_budget()
        if budget is not None and tile_cache_mb is None:
            # Under a budget the default cache must not become the thing
            # that blows it: leave most of the budget to the streaming
            # blocks and solver vectors.
            capacity = min(capacity, budget // 4)
        working_set = n * n * self.compute_dtype.itemsize
        use_cache = (
            param.kernel is not KernelType.LINEAR
            and capacity > 0
            and working_set <= capacity
        )
        self.cache = TileCache(capacity) if use_cache else None
        self.pool = shared_pool(solver_threads)
        # Row-tile grid of the streamed kernel path (aligned to tile_rows).
        self._row_tiles: List[Tuple[int, int]] = [
            (s, min(s + self.tile_rows, n)) for s in range(0, n, self.tile_rows)
        ]

    @staticmethod
    def _resolve_shards(
        n: int, num_shards: Optional[int], shard_size: Optional[int]
    ) -> List[BlockRange]:
        if num_shards is not None and shard_size is not None:
            raise InvalidParameterError(
                "num_shards and shard_size are mutually exclusive"
            )
        if num_shards is not None:
            num_shards = int(num_shards)
            if num_shards < 1:
                raise InvalidParameterError(
                    f"num_shards must be >= 1, got {num_shards}"
                )
            return [r for r in chunk_ranges(n, num_shards) if len(r) > 0]
        if shard_size is None:
            shard_size = DEFAULT_ROW_BLOCK
        shard_size = int(shard_size)
        if shard_size < 1:
            raise InvalidParameterError(
                f"shard_size must be >= 1, got {shard_size}"
            )
        return [
            BlockRange(s, min(s + shard_size, n)) for s in range(0, n, shard_size)
        ]

    # -- dense views (lazy; only touched post-fit) -------------------------

    @property
    def X(self) -> np.ndarray:
        """All ``m`` training points as a lazy array (memmap for on-disk data).

        Training never reads this; it backs the fitted model's support
        vectors so prediction works after an out-of-core fit.
        """
        return self.source.as_array()

    @property
    def X_bar(self) -> np.ndarray:
        return self.X[:-1]

    @property
    def num_shards(self) -> int:
        return len(self.shards)

    # -- row-block protocol ------------------------------------------------

    def iter_row_blocks(self, block_rows: Optional[int] = None):
        n = self.shape[0]
        for start, stop, block in self.source.iter_blocks(block_rows, stop=n):
            yield start, stop, np.asarray(block, dtype=self.dtype)

    def gather_rows(self, indices) -> np.ndarray:
        indices = np.asarray(indices, dtype=np.intp)
        if indices.size and int(indices.max(initial=0)) >= self.shape[0]:
            raise DataError(
                f"row index {int(indices.max())} out of range for the "
                f"{self.shape[0]} reduced-system rows"
            )
        return np.asarray(self.source.gather_rows(indices), dtype=self.dtype)

    def _iter_range_blocks(self, start: int, stop: int, step: Optional[int] = None):
        """Stream ``[start, stop)`` in dtype-cast blocks of ``step`` rows."""
        step = step or self._block_rows
        for b in range(start, stop, step):
            e = min(b + step, stop)
            yield b, e, np.asarray(self.source.row_block(b, e), dtype=self.dtype)

    # -- matvec ------------------------------------------------------------

    def _kernel_matvec(self, v: np.ndarray) -> np.ndarray:
        return self._sweep(v[:, None])[:, 0]

    def _kernel_matvec_multi(self, V: np.ndarray) -> np.ndarray:
        return self._sweep(V)

    def _sweep(self, V: np.ndarray) -> np.ndarray:
        """``K_bar @ V`` via per-shard partials + deterministic allreduce."""
        ctx = current_context()
        stats = _SweepStats()
        with ctx.span(
            "row_shard_sweep", shards=self.num_shards, columns=V.shape[1]
        ) as span:
            if self.param.kernel is KernelType.LINEAR:
                out = self._sweep_linear(V)
            else:
                out = self._sweep_kernel(V, stats)
        ctx.inc("tile_sweeps")
        ctx.inc("tiles_computed", stats.computed)
        if self.cache is not None:
            ctx.inc("cache_hits", stats.hits)
            ctx.inc("cache_misses", stats.misses)
            ctx.inc("cache_evictions", stats.evictions)
            ctx.inc("cache_oversized", stats.oversized)
        if span is not None:
            ctx.observe("sweep_seconds", span.dur)
        return out

    def _sweep_linear(self, V: np.ndarray) -> np.ndarray:
        """Gram-factored linear matvec: shard-local ``X_J^T v_J`` + allreduce.

        Phase 1 streams each shard once for its feature-space partial
        (``d × k``, the only inter-shard communication), phase 2 streams
        again for the disjoint output rows ``out_B = X_B @ w``.
        """
        n = self.shape[0]
        d = int(self.source.num_features)
        partials = []
        for shard in self.shards:
            # The in-shard fold is node-local work: accumulate in block
            # order (deterministic) and save the allreduce machinery for
            # the one true inter-shard combine below.
            local = np.zeros((d, V.shape[1]), dtype=self.dtype)
            for bstart, bstop, block in self._iter_range_blocks(
                shard.start, shard.stop
            ):
                local += block.T @ V[bstart:bstop]
            partials.append(local)
        w = sum_partials(partials)
        out = np.empty((n, V.shape[1]), dtype=self.dtype)
        for shard in self.shards:
            for bstart, bstop, block in self._iter_range_blocks(
                shard.start, shard.stop
            ):
                out[bstart:bstop] = block @ w
        return out

    def _tile(
        self,
        rstart: int,
        rstop: int,
        cstart: int,
        cstop: int,
        rows: np.ndarray,
        cols: np.ndarray,
        stats: _SweepStats,
    ) -> np.ndarray:
        """Kernel tile ``K(X[rstart:rstop], X[cstart:cstop])`` via the cache."""
        key = (rstart, cstart)
        if self.cache is not None:
            cached = self.cache.get(key)
            if cached is not None:
                with stats.lock:
                    stats.hits += 1
                return cached
            with stats.lock:
                stats.misses += 1
        kw = self.param.kernel_kwargs()
        tile = kernel_matrix(
            rows,
            cols,
            self.param.kernel,
            gamma=kw.get("gamma"),
            degree=kw.get("degree", 3),
            coef0=kw.get("coef0", 0.0),
            a_sq=None if self._row_norms is None else self._row_norms[rstart:rstop],
            b_sq=None if self._row_norms is None else self._row_norms[cstart:cstop],
        ).astype(self.compute_dtype, copy=False)
        with stats.lock:
            stats.computed += 1
        if self.cache is not None:
            evicted, oversized = self.cache.put(key, tile)
            with stats.lock:
                stats.evictions += evicted
                stats.oversized += int(oversized)
        return tile

    def _sweep_kernel(self, V: np.ndarray, stats: _SweepStats) -> np.ndarray:
        """Streamed non-linear matvec (Tyree row-partitioned scheme).

        Shard ``J`` holds ``V[J]`` and accumulates a full-length partial by
        streaming every row tile against its column tiles; the per-shard
        partials genuinely overlap and are combined with the allreduce,
        folded in bounded groups so at most :data:`_FOLD_PARTIALS` full
        vectors are ever alive.
        """
        n = self.shape[0]
        k = V.shape[1]
        cd = self.compute_dtype
        Vc = np.ascontiguousarray(V, dtype=cd)
        partials: List[np.ndarray] = []
        for shard in self.shards:
            p = np.zeros((n, k), dtype=self.dtype)
            for cstart, cstop, cols in self._iter_range_blocks(
                shard.start, shard.stop, step=self.tile_rows
            ):
                cols_c = np.ascontiguousarray(cols, dtype=cd)
                v_block = Vc[cstart:cstop]

                def run(tile_idx: int) -> None:
                    rstart, rstop = self._row_tiles[tile_idx]
                    rows = np.asarray(
                        self.source.row_block(rstart, rstop), dtype=cd
                    )
                    tile = self._tile(
                        rstart, rstop, cstart, cstop, rows, cols_c, stats
                    )
                    # Row tiles are disjoint in p, so workers don't race.
                    p[rstart:rstop] += tile @ v_block

                self.pool.map_tasks(run, range(len(self._row_tiles)))
            partials.append(p)
            if len(partials) >= _FOLD_PARTIALS:
                partials = [sum_partials(partials)]
        return sum_partials(partials)
