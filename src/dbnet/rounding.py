"""One batched rounding engine for both pipelines, and its keyed draws.

Both algorithms round one LP solution top-down many times.  The support is a
CSR child table: every entry is a child ``c`` below a parent, with a draw
slot and an interval ``[lo_c, hi_c)``.  The engine advances a frontier of
(repetition, node) pairs for a block of repetitions and keeps ``c`` when its
parent was kept and ``lo_c <= U(key, rep, slot_c) < hi_c``, drawing only
where that outcome is uncertain.  Children sharing a slot and tiling ``[0, inf)`` give an inverse-CDF
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


def tops(n: int, child: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """The top of every node 0..n-1 in the forest of links ``child[j] ->
    parent[j]``, one link at most per child, by pointer jumping."""
    top = np.arange(n)
    top[child] = parent
    while len(child):
        top[child] = top[top[child]]
        child = child[top[child] != top[top[child]]]
    return top


class Rows:
    """``rows[i]`` is row i of a CSR table, as a list."""

    __slots__ = ("ptr", "col")

    def __init__(self, ptr: np.ndarray, col: np.ndarray):
        self.ptr, self.col = ptr, col

    def __getitem__(self, i) -> list[int]:
        return self.col[self.ptr[i]:self.ptr[i + 1]].tolist()


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
    """The rounding support as CSR rows of children, one row per node, read
    component by component.

    The entries must form a tree below ``root``: every child has one entry.
    Draws lie in [0, 1 - 2^-53], so a sure entry, with ``lo <= 0`` and
    ``hi >= 1``, is kept whenever its parent is, and one with ``lo >= 1``,
    ``hi <= 0`` or ``lo >= hi`` never is.  The sure entries join nodes into components,
    each named by its top node, its head.  ``sample`` keeps whole components
    and draws only the remaining entries, stored under the head of their
    parent's component; the child of a kept one is the head of the next.
    ``heads`` stops short of expanding the components into their members,
    for counts that ``head_sums`` and ``head_rows`` give per component."""

    def __init__(self, n: int, root: int, parent, child, slot, lo, hi):
        self.root = root
        parent = np.asarray(parent, dtype=np.int64)
        child = np.asarray(child, dtype=np.int64)
        lo = np.asarray(lo, dtype=float)
        hi = np.asarray(hi, dtype=float)
        sure = (lo <= 0) & (hi >= 1)
        drawn = ~sure & (lo < 1) & (hi > 0) & (lo < hi)
        head = tops(n, child[sure], parent[sure])
        members = np.concatenate(([root], child[sure | drawn]))
        self.member_ptr, self.member = csr(n, head[members], members)
        self.member_head = np.repeat(np.arange(n), np.diff(self.member_ptr))
        self.drawn_ptr, self.child, self.salt, self.lo, self.hi = csr(
            n, head[parent[drawn]], child[drawn], _salt(slot)[drawn],
            lo[drawn], hi[drawn])

    def heads(self, key: tuple[int, ...], start: int,
              stop: int) -> tuple[np.ndarray, np.ndarray]:
        """Kept (repetition, component head) pairs of repetitions
        start..stop-1, the root's component first, then round by round
        the heads that the drawn entries below the last round keep."""
        state = _rep_states(key, np.arange(start, stop))
        rep = np.arange(stop - start)
        head = np.full(stop - start, self.root, dtype=np.int64)
        reps, heads = [rep], [head]
        while len(head) and len(self.child):
            pos, entry = expand(self.drawn_ptr, head)
            rep = rep[pos]
            u = _unit(state[rep], self.salt[entry])
            keep = (self.lo[entry] <= u) & (u < self.hi[entry])
            rep, head = rep[keep], self.child[entry[keep]]
            reps.append(rep)
            heads.append(head)
        return np.concatenate(reps) + start, np.concatenate(heads)

    def sample(self, key: tuple[int, ...], start: int,
               stop: int) -> tuple[np.ndarray, np.ndarray]:
        """Kept (repetition, node) pairs of repetitions start..stop-1, root
        included, component by component."""
        rep, head = self.heads(key, start, stop)
        pos, entry = expand(self.member_ptr, head)
        return rep[pos], self.member[entry]

    def head_sums(self, weight: np.ndarray) -> np.ndarray:
        """Per head, the sum of ``weight`` over its component's members;
        0 at a node that heads no component."""
        return np.bincount(self.member_head, weights=weight[self.member],
                           minlength=len(self.member_ptr) - 1)

    def head_rows(self, ptr: np.ndarray,
                  col: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(ptr, col)`` of a CSR table over nodes, regrouped by head: a
        head's row holds the rows of all its component's members, with
        multiplicity, so ``pair_counts`` over heads counts what it counts
        over their members."""
        pos, entry = expand(ptr, self.member)
        return csr(len(self.member_ptr) - 1, self.member_head[pos],
                   col[entry])
