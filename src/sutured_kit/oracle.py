"""Closed-form rank tables used as ground truth in tests.

The solid-torus table: for a solid torus with n = 2k+2 parallel (p, q)
sutures there is an identification of its Spin^c classes with Z under
which the rank in grading i is binomial(k, floor(i/p)) for
0 <= i < p(k+1) and zero elsewhere.  Gluing two sutured solid tori along
boundary annuli multiplies total ranks, removing two sutures; closed
manifolds with n balls removed contribute a factor 2^(n-1); connected
sums of sutured pieces contribute an extra factor of 2.

Ranks grow exponentially in the inputs, so each calculator bounds its
inputs before computing and raises ResultTooLarge past the bound.
"""

from math import comb, gcd

from .errors import NonCoprime, NonPositiveRank, OddSutureCount, ResultTooLarge

# A rank below 2^MAX_RANK_BITS has at most 4215 decimal digits, so it prints
# under CPython's default 4300-digit limit on int-to-str conversion.
MAX_RANK_BITS = 14_000
# A solid-torus table has p(k+1) gradings of at most k+1 bits each.
MAX_TABLE_BITS = 2 ** 18


class RankTable:
    """Finitely supported map grading -> positive rank."""

    def __init__(self, ranks):
        self.ranks = ranks

    def support(self):
        return sorted(self.ranks)

    def values_in_order(self):
        return [self.ranks[i] for i in self.support()]

    def to_json(self):
        return {"ranks": {str(i): self.ranks[i] for i in self.support()}}


def _check_torus_params(p, q, n):
    if p < 1:
        raise NonPositiveRank(f"p must be positive, got {p}")
    if gcd(p, q) != 1:
        raise NonCoprime(f"gcd({p}, {q}) != 1")
    if n < 2 or n % 2 != 0:
        raise OddSutureCount(f"the suture count must be even and >= 2, got {n}")


def solid_torus_sfh(p, q, n):
    """Rank table of the solid torus with n parallel (p, q) sutures."""
    _check_torus_params(p, q, n)
    k = (n - 2) // 2
    if p * (k + 1) ** 2 > MAX_TABLE_BITS:
        raise ResultTooLarge(f"p = {p} and n = {n} give {p * (k + 1)} ranks of up to "
                             f"2^{k}; p * (n/2)^2 must be at most {MAX_TABLE_BITS}")
    return RankTable({i: comb(k, i // p) for i in range(p * (k + 1))})


def closed_manifold_rank(hf_rank, n):
    """Rank after removing n balls from a closed manifold: hf_rank * 2^(n-1)."""
    if hf_rank < 1:
        raise NonPositiveRank(f"rank must be positive, got {hf_rank}")
    if n < 1:
        raise NonPositiveRank(f"ball count must be positive, got {n}")
    if hf_rank.bit_length() + n - 1 > MAX_RANK_BITS:
        raise ResultTooLarge(f"ball count n = {n} and a rank of {hf_rank.bit_length()} bits "
                             f"give a rank of more than {MAX_RANK_BITS} bits")
    return hf_rank * 2 ** (n - 1)


def connected_sum_rank(a, b, with_closed=False):
    """Total rank of a connected sum.

    Two sutured pieces contribute a * b * 2; summing a sutured piece with
    a closed manifold of hat-rank b gives a * b.
    """
    if a < 1 or b < 1:
        raise NonPositiveRank("ranks must be positive")
    if a.bit_length() + b.bit_length() + 1 > MAX_RANK_BITS:
        raise ResultTooLarge(f"ranks a and b of {a.bit_length()} and {b.bit_length()} bits "
                             f"give a rank of more than {MAX_RANK_BITS} bits")
    return a * b if with_closed else 2 * a * b
