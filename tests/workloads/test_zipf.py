"""Zipfian sampling: distribution shape and the determinism discipline."""

import math
import random

import pytest

from repro.workloads.zipf import ZipfSampler, _rank_pow


class TestRankPow:
    @pytest.mark.parametrize("rank", [1, 2, 3, 7, 100])
    @pytest.mark.parametrize("skew", [0.0, 0.5, 1.0, 1.5, 2.0, 3.5])
    def test_matches_pow_semantics(self, rank, skew):
        # The decomposition must agree with rank**skew to full precision
        # on this platform; cross-platform it is additionally *stable*,
        # which bare pow is not.
        assert _rank_pow(rank, skew) == pytest.approx(rank ** skew, rel=1e-12)

    def test_half_power_uses_sqrt(self):
        assert _rank_pow(2, 0.5) == math.sqrt(2)
        assert _rank_pow(4, 1.5) == 4.0 * math.sqrt(4)


class TestZipfSampler:
    def test_rejects_bad_support(self):
        with pytest.raises(ValueError, match="support size"):
            ZipfSampler(0)

    @pytest.mark.parametrize("skew", [-0.5, 0.3, 1.25, 0.9999])
    def test_rejects_non_half_multiples(self, skew):
        with pytest.raises(ValueError, match="multiple of 0.5"):
            ZipfSampler(4, skew)

    def test_weights_sum_to_one_and_decrease(self):
        w = ZipfSampler(8, 1.0).weights()
        assert sum(w) == pytest.approx(1.0)
        assert all(a > b for a, b in zip(w, w[1:]))

    def test_zero_skew_is_uniform(self):
        w = ZipfSampler(5, 0.0).weights()
        assert all(x == pytest.approx(0.2) for x in w)

    def test_sample_consumes_exactly_one_draw(self):
        # The generators rely on one-draw-per-sample to keep RNG streams
        # alignment-stable across malloc/free decisions.
        class CountingRng:
            def __init__(self):
                self.calls = 0

            def random(self):
                self.calls += 1
                return 0.5

        rng = CountingRng()
        s = ZipfSampler(6, 1.0)
        s.sample(rng)
        assert rng.calls == 1

    def test_samples_in_range_and_skewed(self):
        rng = random.Random(7)
        s = ZipfSampler(4, 2.0)
        counts = [0] * 4
        for _ in range(2000):
            counts[s.sample(rng)] += 1
        assert sum(counts) == 2000
        # strong skew: rank 1 dominates every other rank
        assert counts[0] > max(counts[1:])

    def test_deterministic_given_seed(self):
        a = [ZipfSampler(10, 1.5).sample(random.Random(3)) for _ in range(20)]
        b = [ZipfSampler(10, 1.5).sample(random.Random(3)) for _ in range(20)]
        assert a == b
