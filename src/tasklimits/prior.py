"""Complexity-weighted hypothesis priors with Kraft validation and truncation.

Hypotheses carry declared prefix-free code lengths (in bits). The prior
weight of a hypothesis is ``2**-length`` normalized over the class, which is
well defined whenever the Kraft sum ``sum(2**-length)`` is at most 1.
Truncating the class at level n splits the prior mass into a head ``z_n``
and a tail ``tau_n`` with ``z_n + tau_n = 1``.

Code lengths are capped at 52 bits, so every raw mass is a whole number of
``2**-52`` units. A class keeps one table, built once: the raw head mass at
each level 0..52, a prefix sum of the per-length counts in those units.
The Kraft gate, every prior split and every band of renormalized weights
read it, and a tail mass is the total minus a head mass, which is exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import ValidationError
from .taskspace import TOLERANCE

MAX_CODE_LENGTH = 52


@dataclass(frozen=True)
class HypothesisDescriptor:
    """One hypothesis: an id, a prefix-free code length, and a kernel reference."""

    id: int
    code_length: int
    kernel_ref: str

    def __post_init__(self) -> None:
        if self.id < 0:
            raise ValidationError(f"hypothesis id must be non-negative, got {self.id}")
        if not 0 <= self.code_length <= MAX_CODE_LENGTH:
            raise ValidationError(
                f"code length must lie in [0, {MAX_CODE_LENGTH}], got {self.code_length}"
            )

    @property
    def raw_weight(self) -> float:
        """Unnormalized prior mass ``2**-code_length`` (exact in float64)."""
        return 2.0 ** -self.code_length


@dataclass(frozen=True)
class HypothesisClass:
    """Finite hypothesis list whose code lengths satisfy the Kraft inequality.

    ``prefix_mass[n]`` is the raw mass of the hypotheses with code length <= n,
    for n in 0..52; its last entry is the Kraft sum.
    """

    hypotheses: tuple[HypothesisDescriptor, ...]
    prefix_mass: tuple[float, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        hyps = tuple(self.hypotheses)
        if not hyps:
            raise ValidationError("hypothesis class must be non-empty")
        ids = [h.id for h in hyps]
        if len(set(ids)) != len(ids):
            raise ValidationError("hypothesis ids must be unique")
        counts = [0] * (MAX_CODE_LENGTH + 1)
        for h in hyps:
            counts[h.code_length] += 1
        # Integer units of 2**-52: each prefix sum is exact, and one rounding to
        # float64 gives the correctly rounded sum that ``math.fsum`` would.
        units, prefix = 0, []
        for length, count in enumerate(counts):
            units += count << (MAX_CODE_LENGTH - length)
            prefix.append(math.ldexp(units, -MAX_CODE_LENGTH))
        if prefix[-1] > 1.0 + TOLERANCE:
            raise ValidationError(
                f"Kraft sum {prefix[-1]!r} exceeds 1 for the declared code lengths"
            )
        object.__setattr__(self, "hypotheses", hyps)
        object.__setattr__(self, "prefix_mass", tuple(prefix))

    @property
    def kraft_sum(self) -> float:
        return self.prefix_mass[-1]

    @property
    def max_code_length(self) -> int:
        return max(h.code_length for h in self.hypotheses)

    def head_mass(self, n: int) -> float:
        """Raw mass of the hypotheses with code length <= n (0 below level 0)."""
        return self.prefix_mass[min(n, MAX_CODE_LENGTH)] if n >= 0 else 0.0


@dataclass(frozen=True)
class TruncatedPrior:
    """Prior mass split at a complexity level.

    ``z_n`` is the normalized mass of hypotheses with code length <= level,
    ``tau_n`` the mass of the rest.
    """

    level: int
    z_n: float
    tau_n: float


def truncate(hclass: HypothesisClass, n: int) -> TruncatedPrior:
    """Split the prior at complexity level ``n`` (head: code length <= n)."""
    if n < 0:
        raise ValidationError(f"truncation level must be >= 0, got {n}")
    z, head = hclass.kraft_sum, hclass.head_mass(n)
    return TruncatedPrior(level=n, z_n=head / z, tau_n=(z - head) / z)


def prior_weights(
    hclass: HypothesisClass, lo: int = -1, hi: int = MAX_CODE_LENGTH
) -> list[float]:
    """Prior weights renormalized over the code lengths in ``(lo, hi]``, in hypothesis order.

    Hypotheses outside the band get 0. The defaults give the normalized prior;
    ``(-1, n]`` is the head and ``(n, 52]`` the tail of the split at level n.
    The caller checks that the band holds a hypothesis.
    """
    mass = hclass.head_mass(hi) - hclass.head_mass(lo)
    return [h.raw_weight / mass if lo < h.code_length <= hi else 0.0 for h in hclass.hypotheses]
