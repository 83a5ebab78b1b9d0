"""The KnBest provider-selection strategy [11].

Given the full capable set ``P_q``, KnBest narrows the mediation to a
small working set in two stages:

1. **Stage 1 (exploration):** draw ``K``, a uniform random sample of
   ``k`` providers from ``P_q``.  Randomness guarantees every provider
   keeps receiving proposals in the long run -- without it, an
   interest-driven mediator would starve unpopular providers entirely.
2. **Stage 2 (load-awareness):** keep ``Kn``, the ``kn`` *least
   utilized* providers of ``K``.  This is where query load enters the
   process: heavily loaded providers drop out before intentions are
   even consulted.

The mediator then consults only ``Kn`` (bounding the per-query message
cost to ``O(kn)``) and allocates the query to the ``min(n, kn)``
best-scored members.  Varying ``k`` and ``kn`` tunes the process
between pure load balancing (``kn`` small relative to ``k``) and pure
interest matching (``kn = k``), which Scenario 6 demonstrates.
"""

from __future__ import annotations

from typing import List, Protocol, Sequence, Tuple, TypeVar

from repro.des.rng import RandomStream


class UtilizationAware(Protocol):
    """Anything with a ``participant_id`` and a current ``utilization``."""

    @property
    def participant_id(self) -> str: ...  # pragma: no cover - protocol

    @property
    def utilization(self) -> float: ...  # pragma: no cover - protocol


P = TypeVar("P", bound=UtilizationAware)


class KnBestSelector:
    """Two-stage KnBest selection with deterministic tie-breaking.

    Parameters
    ----------
    k:
        Stage-1 sample size (candidate pool).
    kn:
        Stage-2 working-set size; must satisfy ``1 <= kn <= k``.
    stream:
        Seeded random stream used for the stage-1 sample, so runs are
        reproducible.
    """

    def __init__(self, k: int, kn: int, stream: RandomStream) -> None:
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        if not 1 <= kn <= k:
            raise ValueError(f"kn must satisfy 1 <= kn <= k, got kn={kn}, k={k}")
        self.k = k
        self.kn = kn
        self._stream = stream

    def sample_working(
        self, candidates: Sequence[P]
    ) -> Tuple[int, List[P], List[float]]:
        """Run both stages over the capable set ``P_q``.

        Returns ``(|K|, Kn, utilizations-of-Kn)``: ``Kn`` is the
        ``min(kn, |K|)`` least utilized providers of the stage-1 sample,
        least utilized first.  When fewer than ``k`` candidates exist
        the whole set is sampled (the strategy degrades gracefully as
        providers depart).  ``candidates`` may be any sequence -- in
        particular the registry's reusable ``capable_snapshot`` tuple,
        which stage 1 samples in place.  Utilization ties break on
        ``participant_id`` so that a seeded run is bit-for-bit
        reproducible; decorate-sort compares the ``(utilization,
        participant_id)`` prefix in C (ids are unique, so the provider
        in slot 3 never participates in a comparison).  The stage-2
        utilizations are handed back so intention models reading load
        at this same instant reuse them instead of recomputing.
        """
        sampled: List[P] = self._stream.sample(candidates, self.k)
        decorated = [(p.utilization, p.participant_id, p) for p in sampled]
        decorated.sort()
        kn = self.kn
        working = [row[2] for row in decorated[:kn]]
        loads = [row[0] for row in decorated[:kn]]
        return len(sampled), working, loads

    def __repr__(self) -> str:
        return f"KnBestSelector(k={self.k}, kn={self.kn})"
