"""Substream derivation: the generator of a (seed, *scope) stream."""

import hashlib

import numpy as np

from epimon.rng import substream


def listed_words_generator(seed, *scope):
    """The derivation with the digest words passed to SeedSequence as a
    Python list of ints."""
    digest = hashlib.sha256(repr((int(seed),) + scope).encode("ascii")).digest()
    words = np.frombuffer(digest, dtype=np.uint32).tolist()
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(words)))


def test_table_scopes_draw_different_values():
    # The bootstrap, BFAR and simulate tables each have their own stream.
    for seed in (0, 5, 2**63 - 1):
        boot, bfar, simulate = (
            substream(seed, scope).integers(0, 1000, size=64)
            for scope in ("boot", "bfar", "simulate")
        )
        assert not np.array_equal(boot, bfar)
        assert not np.array_equal(boot, simulate)
        assert not np.array_equal(bfar, simulate)


def test_substream_matches_listed_seed_words():
    scopes = [
        (seed, name, index)
        for seed in (0, 13, 2**31 - 1, 2**63 - 1)
        for name in ("boot", "bfar", "simulate", "episodes")
        for index in (*range(30), 2**20 + 7, 10**12)
    ]
    assert len(scopes) >= 500
    for seed, name, index in scopes:
        got = substream(seed, name, index)
        want = listed_words_generator(seed, name, index)
        assert np.array_equal(got.integers(0, 2**63 - 1, size=4),
                              want.integers(0, 2**63 - 1, size=4))
        assert np.array_equal(got.standard_normal(3), want.standard_normal(3))
