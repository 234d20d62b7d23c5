"""Quantitative tests for the workload generators.

The existing workload tests check bounds and determinism; these check
the *distributions*: Zipfian sample frequencies must match the
theoretical probabilities within a statistical tolerance, skew must
respond to theta, and the random-write driver must cover its LBA space
roughly uniformly.  Sample sizes are picked so the tolerances sit at
3-4 sigma of the binomial noise — deterministic seeds keep the checks
stable.
"""

import math

import pytest

from repro.errors import ReproError
from repro.lsm import DB, DBConfig, DbBench, MemEnv
from repro.sim import Simulator
from repro.units import KIB, MIB
from repro.workloads import RandomWriteWorkload, ZipfianKeyChooser


def zipf_probabilities(key_space, theta):
    weights = [1.0 / (rank ** theta) for rank in range(1, key_space + 1)]
    total = sum(weights)
    return [w / total for w in weights]


def frequencies(samples, key_space):
    counts = [0] * key_space
    for s in samples:
        counts[s] += 1
    return [c / len(samples) for c in counts]


class TestZipfianDistribution:
    def test_head_frequencies_match_theory(self):
        """Observed top-rank frequencies within 10% of the Zipf pmf."""
        key_space, theta, n = 50, 1.0, 40_000
        chooser = ZipfianKeyChooser(key_space, theta=theta, seed=11)
        observed = frequencies(chooser.sample(n), key_space)
        expected = zipf_probabilities(key_space, theta)
        for rank in range(10):
            assert abs(observed[rank] - expected[rank]) \
                <= 0.10 * expected[rank], \
                f"rank {rank}: observed {observed[rank]:.4f} " \
                f"vs expected {expected[rank]:.4f}"

    def test_total_variation_distance_small(self):
        """Half the summed |observed - expected| stays under 3%."""
        key_space, theta, n = 100, 0.99, 50_000
        chooser = ZipfianKeyChooser(key_space, theta=theta, seed=5)
        observed = frequencies(chooser.sample(n), key_space)
        expected = zipf_probabilities(key_space, theta)
        tvd = 0.5 * sum(abs(o - e) for o, e in zip(observed, expected))
        assert tvd < 0.03, f"total variation distance {tvd:.4f}"

    def test_head_mass_grows_with_theta(self):
        """More skew = more of the mass on the top 10% of keys."""
        key_space, n = 200, 20_000
        masses = []
        for theta in (0.3, 0.8, 1.2):
            chooser = ZipfianKeyChooser(key_space, theta=theta, seed=7)
            samples = chooser.sample(n)
            masses.append(sum(1 for s in samples if s < key_space // 10) / n)
        assert masses[0] < masses[1] < masses[2]
        # And each observed head mass tracks its theoretical value.
        for theta, mass in zip((0.3, 0.8, 1.2), masses):
            expected = sum(zipf_probabilities(key_space,
                                              theta)[:key_space // 10])
            assert abs(mass - expected) < 0.03

    def test_low_theta_approaches_uniform(self):
        key_space, n = 20, 20_000
        chooser = ZipfianKeyChooser(key_space, theta=0.05, seed=3)
        observed = frequencies(chooser.sample(n), key_space)
        for freq in observed:
            assert abs(freq - 1 / key_space) < 0.02

    def test_deterministic_per_seed(self):
        first = ZipfianKeyChooser(64, seed=9).sample(500)
        second = ZipfianKeyChooser(64, seed=9).sample(500)
        assert first == second
        assert first != ZipfianKeyChooser(64, seed=10).sample(500)

    def test_every_key_reachable(self):
        """The CDF covers the whole key space: the tail is rare, not
        impossible."""
        chooser = ZipfianKeyChooser(4, theta=0.5, seed=1)
        seen = set(chooser.sample(5_000))
        assert seen == {0, 1, 2, 3}


class TestRandomWriteDistribution:
    def test_lba_starts_cover_the_space_uniformly(self):
        """Mean and quartiles of the start LBA behave uniformly."""
        space = 100_000
        workload = RandomWriteWorkload(lba_space=space, seed=13)
        ops = list(workload.operations(5_000))
        starts = sorted(op.lba for op in ops)
        mean = sum(starts) / len(starts)
        assert abs(mean / space - 0.5) < 0.02
        assert abs(starts[len(starts) // 4] / space - 0.25) < 0.03
        assert abs(starts[3 * len(starts) // 4] / space - 0.75) < 0.03

    def test_write_sizes_cover_their_range(self):
        """Sizes are uniform over [min_sectors, max_sectors]: the mean
        sits mid-range and both extremes occur (Figure 3's 'random
        writes of up to 1 MB')."""
        workload = RandomWriteWorkload(lba_space=10_000, sector_size=4096,
                                       min_bytes=4 * KIB, max_bytes=1 * MIB,
                                       seed=21)
        sizes = [op.num_sectors for op in workload.operations(5_000)]
        low, high = 1, MIB // 4096
        assert min(sizes) == low
        assert max(sizes) == high
        expected_mean = (low + high) / 2
        assert abs(sum(sizes) / len(sizes) - expected_mean) \
            < 0.03 * expected_mean

    def test_infinite_stream_when_count_is_zero(self):
        stream = RandomWriteWorkload(lba_space=10_000, seed=2).operations()
        taken = [next(stream) for __ in range(100)]
        assert len(taken) == 100

    def test_fill_bytes_in_payload_range(self):
        ops = RandomWriteWorkload(lba_space=10_000, seed=4).operations(300)
        fills = {op.fill for op in ops}
        assert all(1 <= fill <= 250 for fill in fills)
        assert len(fills) > 50   # not a constant


def db_bench(**kwargs) -> DbBench:
    sim = Simulator()
    return DbBench(DB(MemEnv(sim), DBConfig(), sim), **kwargs)


class TestKeyValueGenerator:
    """db_bench keys and values: :meth:`DbBench.key` / :meth:`DbBench.value`."""

    def test_keys_sort_like_their_indexes(self):
        generator = db_bench()
        keys = [generator.key(i) for i in (0, 1, 9, 10, 99, 1234)]
        assert keys == sorted(keys)

    def test_values_printable_and_deterministic(self):
        generator = db_bench(value_size=64)
        values = {generator.value(i)[:1] for i in range(200)}
        assert len(values) > 10   # fill bytes vary with the index
        for value in values:
            assert 33 <= value[0] <= 122
        assert generator.value(7) == generator.value(7)


class TestValidationErrors:
    """Bad parameters raise ReproError naming the class and field."""

    def test_random_write_lba_space(self):
        with pytest.raises(ReproError,
                           match="RandomWriteWorkload.*lba_space"):
            RandomWriteWorkload(lba_space=4, max_bytes=1 * MIB)

    def test_zipfian_key_space(self):
        with pytest.raises(ReproError, match="ZipfianKeyChooser.*key_space"):
            ZipfianKeyChooser(key_space=0)

    def test_zipfian_theta(self):
        with pytest.raises(ReproError, match="ZipfianKeyChooser.*theta"):
            ZipfianKeyChooser(key_space=10, theta=2.5)
