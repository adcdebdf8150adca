"""Domain sets of the three families and the generator action on them.

A domain is a parity sequence: a tuple over {0,1} recording which basis
directions of the defining superspace are odd.  Family "A" (gl(m+1|n+1)) uses
sequences of length m+n+2 with n+1 ones; family "B" (osp(2m+1|2n)) uses length
m+n with n ones; family "CD" (osp(2m|2n)) tags each sequence with one of
D / C+ / C- subject to the last-parity constraint.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from typing import NamedTuple, Union

TAGS = ("D", "C+", "C-")


class CDDomain(NamedTuple):
    parities: tuple[int, ...]
    tag: str


Domain = Union[tuple, CDDomain]


class UsageError(ValueError):
    """Input the program declines: a bad argument, a q0 outside the
    semisimple range, or a run past a size or time budget.  The CLI turns
    it, and nothing else, into one "error:" line and exit 2."""


class Family(namedtuple("Family", "kind m n")):
    """One of the three families, with its integer parameters.

    kind "A": m, n >= 0.   kind "B": m >= 0, n >= 1.   kind "CD": m, n >= 1;
    CD covers C(n+1) at m = 1 and D(m,n) at m >= 2.
    """

    __slots__ = ()

    def __new__(cls, kind: str, m: int, n: int):
        if kind == "A":
            if m < 0 or n < 0:
                raise UsageError(f"family A needs m, n >= 0, got ({m}, {n})")
        elif kind == "B":
            if m < 0 or n < 1:
                raise UsageError(f"family B needs m >= 0, n >= 1, got ({m}, {n})")
        elif kind == "CD":
            if m < 1 or n < 1:
                raise UsageError(f"family CD needs m, n >= 1, got ({m}, {n})")
        else:
            raise UsageError(f"unknown family kind {kind!r}")
        return super().__new__(cls, kind, m, n)

    @property
    def rank(self) -> int:
        """Number of generators |N|."""
        return self.m + self.n + 1 if self.kind == "A" else self.m + self.n

    @property
    def seq_len(self) -> int:
        """Length of the parity sequences."""
        return self.m + self.n + 2 if self.kind == "A" else self.m + self.n

    @property
    def num_ones(self) -> int:
        return self.n + 1 if self.kind == "A" else self.n

    @property
    def space_dim(self) -> int:
        """Dimension of the ambient coordinate space of the root vectors."""
        return self.seq_len if self.kind == "A" else self.m + self.n

    def name(self) -> str:
        if self.kind == "A":
            return f"A({self.m},{self.n})"
        if self.kind == "B":
            return f"B({self.m},{self.n})"
        return f"osp({2 * self.m}|{2 * self.n})"


def _parity_sequences(length: int, ones: int) -> list[tuple[int, ...]]:
    seqs = []
    for positions in itertools.combinations(range(length), ones):
        s = [0] * length
        for p in positions:
            s[p] = 1
        seqs.append(tuple(s))
    return sorted(seqs)


def enumerate_domains(family: Family) -> tuple[Domain, ...]:
    """All domains, lexicographic by parities then tag D < C+ < C-."""
    plain = _parity_sequences(family.seq_len, family.num_ones)
    if family.kind in ("A", "B"):
        return tuple(plain)
    out: list[CDDomain] = []
    for p in plain:
        if p[-1] == 0:
            out.append(CDDomain(p, "D"))
        else:
            out.append(CDDomain(p, "C+"))
            out.append(CDDomain(p, "C-"))
    out.sort(key=lambda a: (a.parities, TAGS.index(a.tag)))
    return tuple(out)


def domain_sort_key(a: Domain):
    if isinstance(a, CDDomain):
        return (a.parities, TAGS.index(a.tag))
    return (a, -1)


def _swap(p: tuple[int, ...], k: int) -> tuple[int, ...]:
    """Swap positions k, k+1 (1-based k)."""
    q = list(p)
    q[k - 1], q[k] = q[k], q[k - 1]
    return tuple(q)


def act(family: Family, i: int, a: Domain) -> Domain:
    """Action of generator i (1-based) on domain a.  Involutive by construction."""
    if not 1 <= i <= family.rank:
        raise ValueError(f"generator index {i} out of range 1..{family.rank}")
    if family.kind == "A":
        return _swap(a, i)
    if family.kind == "B":
        if i == family.rank:
            return a
        return _swap(a, i)
    # CD: the seven-case table
    p, tag = a
    l = family.rank
    if tag == "D":
        if i <= l - 2 and p[i - 1] != p[i]:
            return CDDomain(_swap(p, i), "D")
        if i == l - 1 and p[i - 1] != p[i]:
            return CDDomain(_swap(p, i), "C+")
        if i == l and p[l - 2] != p[l - 1]:
            return CDDomain(_swap(p, l - 1), "C-")
        return a
    if tag == "C+":
        if i <= l - 2 and p[i - 1] != p[i]:
            return CDDomain(_swap(p, i), "C+")
        if i == l - 1 and p[i - 1] != p[i]:
            return CDDomain(_swap(p, i), "D")
        return a
    # tag == "C-"
    if i <= l - 2 and p[i - 1] != p[i]:
        return CDDomain(_swap(p, i), "C-")
    if i == l and p[l - 2] != p[l - 1]:
        return CDDomain(_swap(p, l - 1), "D")
    return a


def domain_to_json(a: Domain):
    if isinstance(a, CDDomain):
        return {"p": list(a.parities), "tag": a.tag}
    return list(a)


def domain_from_json(family: Family, data) -> Domain:
    """The inverse of domain_to_json: a list of JSON integers 0 and 1, for CD
    in a dict with a string tag.  Anything else raises ValueError."""
    p = data["p"] if family.kind == "CD" else data
    if not isinstance(p, list) or any(type(x) is not int or x not in (0, 1) for x in p):
        raise ValueError(f"parities {p!r} are not a list of integers 0 and 1")
    if family.kind == "CD":
        if not isinstance(data["tag"], str):
            raise ValueError(f"tag {data['tag']!r} is not a string")
        return CDDomain(tuple(p), data["tag"])
    return tuple(p)


def domain_str(a: Domain) -> str:
    if isinstance(a, CDDomain):
        return "(" + ",".join(map(str, a.parities)) + ")^" + a.tag
    return "(" + ",".join(map(str, a)) + ")"
