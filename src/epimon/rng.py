"""Deterministic RNG substream derivation.

Every randomized routine in the package draws from a generator derived from
(seed, *scope) where scope is a tuple of strings/ints naming the consumer
(e.g. ("boot",) for the bootstrap's index table, whose draws serve every
window length, ("bfar",) for BFAR's table of simulated streams, or
("simulate",) for the standard normals behind every block of ``epimon
simulate``). Streams are independent for distinct scopes and
bit-reproducible across runs and platforms. A consumer with many
repetitions draws them as the rows or columns of one table from its one
generator, in repetition order, so results do not depend on the order in
which repetitions are evaluated.
"""

from __future__ import annotations

import hashlib

import numpy as np


def substream(seed: int, *scope) -> np.random.Generator:
    """Return a Generator for the (seed, *scope) stream.

    The scope tuple is hashed with SHA-256 so the derivation does not depend
    on Python's per-process hash randomization. The digest words go to
    SeedSequence as an array: the same entropy as a list, coerced faster.
    """
    digest = hashlib.sha256(repr((int(seed),) + scope).encode("ascii")).digest()
    words = np.frombuffer(digest, dtype=np.uint32)
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(words)))
