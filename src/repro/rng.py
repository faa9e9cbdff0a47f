"""Deterministic random-number utilities.

Every stochastic component of the simulator (trace generators, the
probabilistic mitigations, refresh-policy shuffling) receives its own
:class:`random.Random` stream derived from a single experiment seed, so
that runs are reproducible and components are statistically independent.
"""

from __future__ import annotations

import hashlib
import random
from typing import Iterator


def derive_seed(root_seed: int, *labels: object) -> int:
    """Derive a child seed from *root_seed* and a label path.

    Uses SHA-256 over the textual path so that the mapping is stable
    across Python versions and processes (unlike ``hash()``).
    """
    text = repr((int(root_seed),) + tuple(str(label) for label in labels))
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def stream(root_seed: int, *labels: object) -> random.Random:
    """Return an independent :class:`random.Random` for a label path."""
    return random.Random(derive_seed(root_seed, *labels))


def seed_sequence(root_seed: int, count: int, *labels: object) -> Iterator[int]:
    """Yield *count* independent seeds below a label path."""
    for index in range(count):
        yield derive_seed(root_seed, *labels, index)

