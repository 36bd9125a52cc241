"""Seeded instance generator for the benchmark.

Independent of ``ehlcp.harness``, so a change to the program's own
generators cannot change the benchmark's inputs.

Each workload op starts from a base instance drawn from a fixed catalogue
seed (see ``workloads.py``); the workload seed then applies one of the
transforms below.  Each keeps every verdict the op computes and the order
in which the program searches, so every seed gives other input files that
cost the same number of LPs, determinants and branches: the figures of two
seeds differ by measurement noise, not by how much search a random draw
happens to need (untransformed random tuples at the benchmark's sizes
range from 0.02 s to 2 s per op).
"""

from __future__ import annotations

from fractions import Fraction

from check import is_solution, kernel_residual

_MASK = (1 << 64) - 1


class Rng:
    """SplitMix64 stream (Steele, Lea and Flood 2014)."""

    def __init__(self, *seeds: int):
        self.state = 0
        for s in seeds:
            self.state = (self.state ^ (s & _MASK)) & _MASK
            self.state = self.next_u64()

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def randint(self, lo: int, hi: int) -> int:
        return lo + self.next_u64() % (hi - lo + 1)


def _matrix(rng: Rng, n: int, lo: int, hi: int) -> list:
    return [[Fraction(rng.randint(lo, hi)) for _ in range(n)] for _ in range(n)]


def _identity(n: int) -> list:
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def base_tuple(family: str, n: int, k: int, rng: Rng, b: int = 2) -> list:
    """k+1 matrices of one family:

    generic     entries uniform in [-b, b];
    degenerate  generic with one column of one matrix zeroed, so a
                column representative is singular;
    z           C_0 = I and every C_i a Z-matrix (off-diagonal <= 0).
    """
    if family == "z":
        mats = [_identity(n)]
        for _ in range(k):
            mats.append([
                [Fraction(rng.randint(-b, b) if i == j else rng.randint(-b, 0))
                 for j in range(n)]
                for i in range(n)
            ])
        return mats
    mats = [_matrix(rng, n, -b, b) for _ in range(k + 1)]
    if family == "degenerate":
        col = rng.randint(0, n - 1)
        for row in mats[rng.randint(0, k)]:
            row[col] = Fraction(0)
    elif family != "generic":
        raise ValueError(f"unknown family {family!r}")
    return mats


def instance(mats: list, d: list, q: list) -> dict:
    return {"n": len(mats[0]), "k": len(mats) - 1, "C": mats, "d": d, "q": q}


def random_instance(family: str, n: int, k: int, rng: Rng, b: int = 2) -> dict:
    """Tuple of the family with d_j in {1..b}^n and q in {-b..b}^n."""
    mats = base_tuple(family, n, k, rng, b)
    d = [[Fraction(rng.randint(1, b)) for _ in range(n)] for _ in range(k - 1)]
    q = [Fraction(rng.randint(-b, b)) for _ in range(n)]
    return instance(mats, d, q)


def segment_instance(n: int, k: int, rng: Rng, b: int = 2) -> dict:
    """Instance whose solution set contains a whole segment.

    A generic tuple is made to have a singular column representative with
    a known kernel vector y; y gives a disjoint-support kernel tuple w, and
    q is chosen so that a point x and x + w both solve the instance (the
    construction of Theorem 3.1's convexity tests).
    """
    mats = base_tuple("generic", n, k, rng, b)
    selector = [rng.randint(0, k) for _ in range(n)]
    y = [Fraction(rng.randint(1, b) * (1 if rng.randint(0, 1) else -1)) for _ in range(n)]
    r0 = rng.randint(0, n - 1)
    y[r0] = Fraction(1)
    # column r0 of C_{selector[r0]} := -sum_{r != r0} y_r * (column r of its matrix)
    for row in range(n):
        mats[selector[r0]][row][r0] = -sum(
            y[r] * mats[selector[r]][row][r] for r in range(n) if r != r0
        )
    w = [[Fraction(0)] * n for _ in range(k + 1)]
    for r in range(n):
        i = selector[r]
        w[i][r] = -y[r] if i == 0 else y[r]
    scale = max(abs(v) for x in w for v in x)
    w = [[v / scale for v in x] for x in w]
    d = [[Fraction(2)] * n for _ in range(k - 1)]
    xs = [[Fraction(0)] * n for _ in range(k + 1)]
    for r in range(n):
        m = selector[r]
        if m == 0:
            xs[0][r] = Fraction(1)
        else:
            for j in range(1, m):
                xs[j][r] = Fraction(2)
            xs[m][r] = Fraction(1)
    zero_q = instance(mats, d, [Fraction(0)] * n)
    q = kernel_residual(zero_q, xs)
    inst = instance(mats, d, q)
    other = [[a + b_ for a, b_ in zip(x, wx)] for x, wx in zip(xs, w)]
    if not (is_solution(inst, xs) and is_solution(inst, other)):
        raise AssertionError("segment construction failed")
    return inst


def permute_rows(inst: dict, rng: Rng) -> dict:
    """C_i -> P C_i and q -> P q for a random signed permutation P.

    The same equations in another order and sign: the kernel, every
    solution and every verdict stay as they were, every representative
    determinant changes by the same factor det P = +-1, and no entry
    changes size.  Breaks C_0 = I, so not for Z-structured tuples.
    """
    n = inst["n"]
    order = list(range(n))
    for i in range(n - 1, 0, -1):
        j = rng.randint(0, i)
        order[i], order[j] = order[j], order[i]
    signs = [1 if rng.randint(0, 1) else -1 for _ in range(n)]
    mats = [[[signs[r] * m[order[r]][c] for c in range(n)] for r in range(n)]
            for m in inst["C"]]
    q = [signs[r] * inst["q"][order[r]] for r in range(n)]
    return instance(mats, inst["d"], q)


def diagonal_similarity(inst: dict, rng: Rng) -> dict:
    """C_i -> D^-1 C_i D, d_j -> D^-1 d_j, q -> D^-1 q with D positive
    diagonal, entries in {1, 2}.

    Keeps C_0 = I, the sign of every entry (so Z-matrices stay Z), every
    determinant and principal minor, and maps each solution and kernel
    vector x to D^-1 x without changing a sign.
    """
    n = inst["n"]
    s = [Fraction(rng.randint(1, 2)) for _ in range(n)]
    mats = [[[m[i][j] * s[j] / s[i] for j in range(n)] for i in range(n)] for m in inst["C"]]
    d = [[dj[c] / s[c] for c in range(n)] for dj in inst["d"]]
    q = [inst["q"][i] / s[i] for i in range(n)]
    return instance(mats, d, q)


def signature_similarity(inst: dict, rng: Rng) -> dict:
    """C_i -> S C_i S with S = diag(+-1); d and q are left as they are.

    Every representative determinant and principal minor keeps its value
    and no entry changes size; for check ops only, since solutions and sign
    patterns are not carried along.
    """
    n = inst["n"]
    s = [1 if rng.randint(0, 1) else -1 for _ in range(n)]
    mats = [[[s[i] * m[i][j] * s[j] for j in range(n)] for i in range(n)] for m in inst["C"]]
    return instance(mats, inst["d"], inst["q"])


def to_json(inst: dict) -> dict:
    """Instance document in the CLI's schema; non-integers as "p/q"."""

    def enc(x: Fraction):
        return x.numerator if x.denominator == 1 else str(x)

    return {
        "n": inst["n"],
        "k": inst["k"],
        "C": [[[enc(x) for x in row] for row in m] for m in inst["C"]],
        "d": [[enc(x) for x in dj] for dj in inst["d"]],
        "q": [enc(x) for x in inst["q"]],
    }

