"""Weight functions of TiVaPRoMi (Eq. 1 and Eq. 2 of the paper).

The *weight* of a row is the number of refresh intervals since the row
was last restored -- by the periodic refresh by default, or by a
mitigating refresh recorded in the history table.  The activation
probability is ``p_r = w_r * Pbase``, so the weight is the "time
varying" part of the technique.
"""

from __future__ import annotations


def linear_weight(current_interval: int, last_refresh_interval: int, refint: int) -> int:
    """Eq. 1: intervals elapsed since *last_refresh_interval*.

    Both arguments are window-relative interval indices in
    ``[0, refint)``; the wrap-around branch covers rows whose refresh
    slot lies later in the window than the current interval (they were
    last refreshed in the *previous* window).
    """
    if not 0 <= current_interval < refint:
        raise ValueError(f"current interval {current_interval} outside [0, {refint})")
    if not 0 <= last_refresh_interval < refint:
        raise ValueError(
            f"refresh interval {last_refresh_interval} outside [0, {refint})"
        )
    delta = current_interval - last_refresh_interval
    if delta < 0:
        delta += refint
    return delta


def log_weight(weight: int) -> int:
    """Eq. 2: ``2 ** ceil(log2(w + 1))``.

    Quantises the linear weight up to the next power of two, so weights
    grow quickly while small (every value in ``[16, 31]`` maps to 32,
    as the paper's example states).  The ``+ 1`` handles ``w = 0``,
    which maps to 1 rather than an undefined logarithm.
    """
    if weight < 0:
        raise ValueError(f"weight must be non-negative: {weight}")
    # ceil(log2(x)) == (x - 1).bit_length() for x >= 1, so with
    # x = weight + 1 the exponent is weight.bit_length().
    return 1 << weight.bit_length()


def probability(weight: int, pbase: float) -> float:
    """Trigger probability ``p_r = w * Pbase``, capped at 1."""
    return min(1.0, weight * pbase)


def trigger_probability(
    current_interval: int,
    last_refresh_interval: int,
    refint: int,
    pbase: float,
    weighting: str = "linear",
    in_table: bool = False,
) -> float:
    """Eq. 1 + Eq. 2 + cap in one call.

    ``weighting`` selects the variant: ``"linear"`` uses the raw Eq. 1
    weight, ``"log"`` always quantises it with Eq. 2, and ``"loli"``
    quantises only rows *not* held in the history table (the LoLiPRoMi
    hybrid).  The optimized engine uses this to materialise per-interval
    probability vectors from the same math the reference mitigation
    evaluates row-by-row.
    """
    weight = linear_weight(current_interval, last_refresh_interval, refint)
    if weighting == "log" or (weighting == "loli" and not in_table):
        weight = log_weight(weight)
    elif weighting not in ("linear", "loli"):
        raise ValueError(f"unknown weighting: {weighting}")
    return probability(weight, pbase)
