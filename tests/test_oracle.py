from math import comb, gcd

import pytest

from conftest import equivalent_up_to_affine, tensor_rank_identity, total_rank
from sutured_kit.errors import NonCoprime, NonPositiveRank, OddSutureCount, ResultTooLarge
from sutured_kit.oracle import (MAX_RANK_BITS, MAX_TABLE_BITS, RankTable, closed_manifold_rank,
                                connected_sum_rank, solid_torus_sfh)


class TestSolidTorus:
    def test_product_case(self):
        assert solid_torus_sfh(1, 0, 2).ranks == {0: 1}

    def test_four_longitudinal_sutures(self):
        assert solid_torus_sfh(1, 0, 4).ranks == {0: 1, 1: 1}

    def test_two_slope_sutures(self):
        assert solid_torus_sfh(2, 3, 2).ranks == {0: 1, 1: 1}

    def test_binomial_blocks(self):
        t = solid_torus_sfh(2, 1, 6)  # k = 2
        assert t.ranks == {0: 1, 1: 1, 2: 2, 3: 2, 4: 1, 5: 1}

    def test_closed_form_on_grid(self):
        for p in range(1, 5):
            for q in range(-5, 6):
                if gcd(p, q) != 1:
                    continue
                for n in range(2, 14, 2):
                    k = (n - 2) // 2
                    t = solid_torus_sfh(p, q, n)
                    assert t.ranks == {i: comb(k, i // p)
                                       for i in range(p * (k + 1))}
                    # RankTable takes its ranks as given: positive ints only
                    assert all(type(r) is int and r >= 1 for r in t.ranks.values())
                    # each binomial row value appears in p consecutive
                    # gradings, so the total is p * 2^k
                    assert total_rank(t) == p * 2 ** k
                    support = t.support()
                    assert support == list(range(p * (k + 1)))

    def test_parameter_errors(self):
        with pytest.raises(OddSutureCount):
            solid_torus_sfh(1, 0, 3)
        with pytest.raises(OddSutureCount):
            solid_torus_sfh(1, 0, 0)
        with pytest.raises(NonCoprime):
            solid_torus_sfh(2, 4, 2)
        with pytest.raises(NonPositiveRank):
            solid_torus_sfh(0, 1, 2)


class TestTensorIdentity:
    def test_examples(self):
        assert tensor_rank_identity(1, 0, 2, 4)
        assert tensor_rank_identity(2, 3, 4, 2)
        assert tensor_rank_identity(1, 0, 6, 2)

    def test_exhaustive_grid(self):
        for p in range(1, 5):
            for q in range(-5, 6):
                if gcd(p, q) != 1:
                    continue
                for n in range(2, 10, 2):
                    for m in range(2, 10, 2):
                        assert tensor_rank_identity(p, q, n, m)


class TestRankCombinators:
    def test_closed_manifold(self):
        assert closed_manifold_rank(7, 1) == 7
        assert closed_manifold_rank(2, 2) == 4
        assert closed_manifold_rank(1, 3) == 4

    def test_connected_sum(self):
        assert connected_sum_rank(1, 1, False) == 2
        assert connected_sum_rank(3, 5, False) == 30
        assert connected_sum_rank(4, 7, with_closed=True) == 28
        assert connected_sum_rank(9, 1, with_closed=True) == 9

    def test_ball_removal_rule(self):
        # removing n balls multiplies the rank by 2^n
        for n in range(1, 6):
            r = 3
            for _ in range(n):
                r = connected_sum_rank(r, 1, False)
            assert r == 3 * 2 ** n

    def test_errors(self):
        with pytest.raises(NonPositiveRank):
            closed_manifold_rank(0, 1)
        with pytest.raises(NonPositiveRank):
            connected_sum_rank(1, 0, False)


class TestBounds:
    """Each calculator refuses, before computing, a result that would not print."""

    def test_largest_ranks_print(self):
        for rank in (closed_manifold_rank(1, MAX_RANK_BITS),
                     connected_sum_rank(2 ** 6998, 2 ** 6998, False)):
            assert rank.bit_length() <= MAX_RANK_BITS
            assert len(str(rank)) <= 4300

    def test_rank_bound(self):
        with pytest.raises(ResultTooLarge, match="n = 14001"):
            closed_manifold_rank(1, MAX_RANK_BITS + 1)
        with pytest.raises(ResultTooLarge):
            closed_manifold_rank(3, MAX_RANK_BITS)
        with pytest.raises(ResultTooLarge):
            connected_sum_rank(2 ** 7000, 2 ** 6999, with_closed=True)

    def test_table_bound(self):
        k = int(MAX_TABLE_BITS ** 0.5) - 1
        table = solid_torus_sfh(1, 0, 2 * k + 2)
        assert len(table.ranks) == k + 1
        assert max(table.ranks.values()).bit_length() <= k + 1
        with pytest.raises(ResultTooLarge, match=f"n = {2 * k + 4}"):
            solid_torus_sfh(1, 0, 2 * k + 4)
        with pytest.raises(ResultTooLarge, match=f"p = {MAX_TABLE_BITS + 1}"):
            solid_torus_sfh(MAX_TABLE_BITS + 1, 1, 2)


class TestRankTable:
    def test_affine_comparison(self):
        a = RankTable({0: 1, 1: 2, 2: 1})
        assert equivalent_up_to_affine(a, RankTable({5: 1, 6: 2, 7: 1}))
        assert not equivalent_up_to_affine(a, RankTable({0: 1, 1: 1, 2: 2}))
        asym = RankTable({0: 1, 1: 1, 2: 2})
        assert equivalent_up_to_affine(asym, RankTable({4: 2, 5: 1, 6: 1}))

    def test_json(self):
        t = solid_torus_sfh(1, 0, 4)
        assert t.to_json() == {"ranks": {"0": 1, "1": 1}}
