"""One batched rounding engine for both pipelines, and its keyed draws.

Both algorithms round one LP solution top-down many times.  The support is a
CSR child table: every entry is a child ``c`` below a parent, with a draw
slot and an interval ``[lo_c, hi_c)``.  The engine advances a frontier of
(repetition, node) pairs one level at a time for a block of repetitions and
keeps ``c`` when its parent was kept and ``lo_c <= U(key, rep, slot_c) <
hi_c``.  Children sharing a slot and tiling ``[0, inf)`` give an inverse-CDF
choice of exactly one; an interval ``[0, p)`` on a slot of its own is an
independent Bernoulli(p) coin.

The draw ``U(key, rep, slot)`` is a pure function of its arguments: a 64-bit
stream key from ``np.random.SeedSequence(key)``, mixed with the repetition
and then with the slot by SplitMix64 steps.  Draws therefore depend on
neither the traversal order nor the block size.
"""

from __future__ import annotations

import numpy as np

# repetitions per engine call; bounds the frontier arrays of one call
BLOCK = 1024

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)
_ONE = np.uint64(1)


def _mix(z: np.ndarray) -> np.ndarray:
    """SplitMix64 output function on a uint64 array, arithmetic mod 2^64.
    numpy wraps uint64 arrays silently but warns when two scalars overflow,
    so ``z`` must be an array."""
    z = (z ^ (z >> np.uint64(30))) * _M1
    z = (z ^ (z >> np.uint64(27))) * _M2
    return z ^ (z >> np.uint64(31))


def _rep_states(key: tuple[int, ...], rep: np.ndarray) -> np.ndarray:
    k = np.random.SeedSequence(list(key)).generate_state(1, np.uint64)
    return _mix(k + (np.asarray(rep, dtype=np.uint64) + _ONE) * _GAMMA)


def _unit(state: np.ndarray, salt: np.ndarray) -> np.ndarray:
    z = _mix(state + salt)
    return (z >> np.uint64(11)).astype(np.float64) * 2.0 ** -53


def _salt(slot) -> np.ndarray:
    return (np.asarray(slot, dtype=np.uint64) + _ONE) * _GAMMA


def draws(key: tuple[int, ...], rep, slot) -> np.ndarray:
    """``U(key, rep, slot)`` in [0, 1) for aligned 1-d arrays ``rep`` and
    ``slot``; ``key`` names the stream, e.g. ``(seed,)``."""
    return _unit(_rep_states(key, rep), _salt(slot))


def blocks(n: int):
    """(start, stop) of the engine calls that cover repetitions 0..n-1."""
    for start in range(0, n, BLOCK):
        yield start, min(start + BLOCK, n)


def csr(n: int, rows, *cols) -> tuple[np.ndarray, ...]:
    """``(ptr, *cols)`` of the entries ``(rows[j], cols[..][j])`` grouped by
    row over rows 0..n-1, keeping their order within a row."""
    rows = np.asarray(rows, dtype=np.int64)
    order = np.argsort(rows, kind="stable")
    ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=ptr[1:])
    return (ptr, *(np.asarray(c)[order] for c in cols))


def membership(n: int, pairs: list[tuple[int, int]]) -> tuple[np.ndarray, ...]:
    """``(ptr, col)``: the integer columns each node 0..n-1 counts towards,
    from (node, column) pairs."""
    return csr(n, [o for o, _ in pairs],
               np.asarray([c for _, c in pairs], dtype=np.int64))


def expand(ptr: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(position in ``rows``, entry index) of every CSR entry of every row."""
    first = ptr[rows]
    count = ptr[rows + 1] - first
    ends = np.cumsum(count)
    pos = np.repeat(np.arange(len(rows)), count)
    entry = np.arange(ends[-1] if len(ends) else 0) + np.repeat(
        first - ends + count, count)
    return pos, entry


def pair_counts(ptr: np.ndarray, col: np.ndarray, ncol: int, rep: np.ndarray,
                node: np.ndarray, nrep: int) -> np.ndarray:
    """(nrep, ncol) counts of the CSR entries of the sampled nodes, per
    repetition ``rep`` in 0..nrep-1."""
    pos, entry = expand(ptr, node)
    flat = rep[pos] * ncol + col[entry]
    return np.bincount(flat, minlength=nrep * ncol).reshape(nrep, ncol)


def per_rep(rep: np.ndarray, node: np.ndarray, start: int,
            stop: int) -> list[np.ndarray]:
    """The sampled nodes of each repetition start..stop-1."""
    order = np.argsort(rep, kind="stable")
    cuts = np.searchsorted(rep[order], np.arange(start + 1, stop))
    return np.split(node[order], cuts)


class ChildTable:
    """The rounding support as CSR rows of children, one row per node."""

    def __init__(self, n: int, root: int, parent, child, slot, lo, hi):
        self.root = root
        self.ptr, self.child, self.salt, self.lo, self.hi = csr(
            n, parent, np.asarray(child, dtype=np.int64), _salt(slot),
            np.asarray(lo, dtype=float), np.asarray(hi, dtype=float))

    def sample(self, key: tuple[int, ...], start: int,
               stop: int) -> tuple[np.ndarray, np.ndarray]:
        """Kept (repetition, node) pairs of repetitions start..stop-1,
        root included, level by level."""
        state = _rep_states(key, np.arange(start, stop))
        rep = np.arange(stop - start)
        node = np.full(stop - start, self.root, dtype=np.int64)
        reps, nodes = [rep], [node]
        while len(node):
            pos, entry = expand(self.ptr, node)
            rep = rep[pos]
            u = _unit(state[rep], self.salt[entry])
            keep = (self.lo[entry] <= u) & (u < self.hi[entry])
            rep, node = rep[keep], self.child[entry[keep]]
            reps.append(rep)
            nodes.append(node)
        return np.concatenate(reps) + start, np.concatenate(nodes)
