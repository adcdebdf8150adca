"""Partitions and standard bitableaux.

Tableaux are tuples of row tuples filled with 1..n; bitableaux are pairs of
tableaux sharing the entries 1..n between them.  Everything is generated by
recursion on where the largest entry sits, which is slow but obviously
correct; sizes stay tiny at desk scale.
"""

from __future__ import annotations

from functools import lru_cache

Partition = tuple[int, ...]
Tableau = tuple[tuple[int, ...], ...]
BiTableau = tuple[Tableau, Tableau]


@lru_cache(maxsize=None)
def partitions(k: int) -> tuple[Partition, ...]:
    """All partitions of k, largest-first parts, reverse-lexicographic order."""
    if k == 0:
        return ((),)
    out: list[Partition] = []

    def rec(remaining: int, maxpart: int, prefix: tuple[int, ...]):
        if remaining == 0:
            out.append(prefix)
            return
        for part in range(min(remaining, maxpart), 0, -1):
            rec(remaining - part, part, prefix + (part,))

    rec(k, k, ())
    return tuple(out)


def _remove_corner(shape: Partition, row: int) -> Partition:
    s = list(shape)
    s[row] -= 1
    if s[row] == 0:
        s.pop(row)
    return tuple(s)


def _corners(shape: Partition) -> list[int]:
    return [
        r
        for r in range(len(shape))
        if r + 1 == len(shape) or shape[r] > shape[r + 1]
    ]


@lru_cache(maxsize=None)
def bipartitions(k: int) -> tuple[tuple[Partition, Partition], ...]:
    out = []
    for a in range(k + 1):
        for lam in partitions(a):
            for mu in partitions(k - a):
                out.append((lam, mu))
    return tuple(out)


@lru_cache(maxsize=None)
def standard_bitableaux(pair: tuple[Partition, Partition]) -> tuple[BiTableau, ...]:
    lam, mu = pair
    n = sum(lam) + sum(mu)
    if n == 0:
        return (((), ()),)
    out: list[BiTableau] = []
    for comp, shape in ((0, lam), (1, mu)):
        if not shape:
            continue
        for r in _corners(shape):
            sub = _remove_corner(shape, r)
            subpair = (sub, mu) if comp == 0 else (lam, sub)
            for t0, t1 in standard_bitableaux(subpair):
                rows = [list(row) for row in (t0 if comp == 0 else t1)]
                while len(rows) <= r:
                    rows.append([])
                rows[r].append(n)
                grown = tuple(tuple(row) for row in rows)
                out.append((grown, t1) if comp == 0 else (t0, grown))
    return tuple(sorted(out))


def entry_position(t: Tableau, k: int) -> tuple[int, int] | None:
    for r, row in enumerate(t):
        for c, v in enumerate(row):
            if v == k:
                return (r, c)
    return None


def bitab_position(bt: BiTableau, k: int) -> tuple[int, int, int]:
    """(component, row, col) of entry k."""
    for comp in (0, 1):
        pos = entry_position(bt[comp], k)
        if pos is not None:
            return (comp, pos[0], pos[1])
    raise ValueError(f"entry {k} not found")


def swap_entries(bt: BiTableau, a: int, b: int) -> BiTableau:
    def sw(t: Tableau) -> Tableau:
        return tuple(
            tuple(b if v == a else a if v == b else v for v in row) for row in t
        )

    return (sw(bt[0]), sw(bt[1]))


def is_standard(t: Tableau) -> bool:
    for r, row in enumerate(t):
        for c, v in enumerate(row):
            if c + 1 < len(row) and row[c + 1] <= v:
                return False
            if r + 1 < len(t) and c < len(t[r + 1]) and t[r + 1][c] <= v:
                return False
    return True
