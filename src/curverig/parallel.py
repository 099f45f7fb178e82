"""Deterministic chunked iteration.

Work is split into chunks whose boundaries depend only on the item count,
and the chunks run in order in the calling thread.  The `threads` argument
is accepted for compatibility and has no effect: the work is pure Python
under the interpreter lock, where a thread pool measured slower.
"""

from __future__ import annotations

from typing import Callable


def parallel_chunked(worker: Callable, n_items: int, threads: int = 1,
                     chunk_size: int = 64) -> list:
    """Apply worker(start, stop) over fixed chunks in order; concatenate.

    worker returns a list.  `threads` is ignored.
    """
    chunk_size = max(1, chunk_size)
    out = []
    for a in range(0, n_items, chunk_size):
        out.extend(worker(a, min(a + chunk_size, n_items)))
    return out
