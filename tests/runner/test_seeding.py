"""Tests for deterministic per-task seed derivation."""

import pytest

from repro.errors import ConfigurationError
from repro.runner.seeding import derive_seed, derive_seeds


def test_seeds_are_deterministic():
    assert derive_seed(2008, 0) == derive_seed(2008, 0)
    assert derive_seeds(2008, 5) == derive_seeds(2008, 5)


def test_known_values_are_stable_across_releases():
    """Regression pin: campaign results depend on these exact values.

    If this test fails, every recorded Monte-Carlo number in the repo
    changes — treat that as a breaking change, not a test to update.
    """
    assert derive_seed(2008, 0) == 7353395464880583996
    assert derive_seed(2008, 1) == 5091930132786625538
    assert derive_seed(2008, 0, "18-pad") == 2321542788861319178


def test_adjacent_indices_are_well_mixed():
    seeds = derive_seeds(2008, 100)
    assert len(set(seeds)) == 100
    # No seed should share a long prefix pattern with its neighbour in a
    # way a plain counter would; crude check: top bytes differ widely.
    tops = {seed >> 48 for seed in seeds}
    assert len(tops) > 90


def test_salt_separates_streams():
    plain = derive_seeds(2008, 10)
    salted = derive_seeds(2008, 10, "18-pad")
    assert all(a != b for a, b in zip(plain, salted))


def test_base_seed_separates_streams():
    assert derive_seeds(1, 10) != derive_seeds(2, 10)


def test_seeds_fit_in_63_bits():
    for seed in derive_seeds(2008, 50, "salt"):
        assert 0 <= seed < 2**63


def test_negative_index_rejected():
    with pytest.raises(ConfigurationError):
        derive_seed(2008, -1)
