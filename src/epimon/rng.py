"""Deterministic RNG substream derivation.

Every randomized routine in the package draws from a generator derived from
(seed, *scope) where scope is a tuple of strings/ints naming the consumer
(e.g. ("boot", b) for bootstrap repetition b, whose draws serve every window
length, or ("bfar", b) for BFAR outer repetition b). Streams are independent
for distinct scopes, bit-reproducible across runs and platforms, and
order-independent, so repetitions may be evaluated in any order or in
parallel without changing results.
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
