"""Unit and property tests for the KnBest selection strategy [11]."""

from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.knbest import KnBestSelector
from repro.des.rng import RandomStream
from tests.oracle.reference_policies import ReferenceKnBestSelector


@dataclass(frozen=True)
class FakeProvider:
    participant_id: str
    utilization: float


def providers(utilizations):
    return [FakeProvider(f"p{i:03d}", u) for i, u in enumerate(utilizations)]


class TestValidation:
    def test_k_must_be_positive(self):
        with pytest.raises(ValueError, match="k must be"):
            KnBestSelector(0, 0, RandomStream(1))

    def test_kn_within_bounds(self):
        with pytest.raises(ValueError, match="kn must satisfy"):
            KnBestSelector(5, 6, RandomStream(1))
        with pytest.raises(ValueError, match="kn must satisfy"):
            KnBestSelector(5, 0, RandomStream(1))


def stages(k, kn, seed, candidates):
    """``(K, Kn)`` from two product selectors on the same seed.

    With ``kn = k`` stage 2 keeps the whole sample, so the twin
    selector's working set is exactly ``K`` (least utilized first).
    """
    _, sampled, _ = KnBestSelector(k, k, RandomStream(seed)).sample_working(candidates)
    _, working, _ = KnBestSelector(k, kn, RandomStream(seed)).sample_working(candidates)
    return sampled, working


class TestSelection:
    def test_sizes_match_parameters(self):
        selector = KnBestSelector(k=5, kn=2, stream=RandomStream(1))
        k_effective, working, loads = selector.sample_working(providers([0.1] * 20))
        assert k_effective == 5
        assert len(working) == len(loads) == 2

    def test_small_candidate_sets_degrade_gracefully(self):
        selector = KnBestSelector(k=10, kn=4, stream=RandomStream(1))
        k_effective, working, _ = selector.sample_working(providers([0.5, 0.5]))
        assert k_effective == 2
        assert len(working) == 2

    def test_working_set_is_least_utilized_of_sample(self):
        sampled, working = stages(4, 2, 7, providers([0.9, 0.1, 0.5, 0.3]))
        sampled_utils = sorted(p.utilization for p in sampled)
        working_utils = sorted(p.utilization for p in working)
        assert working_utils == sampled_utils[:2]

    def test_working_set_ordered_least_utilized_first(self):
        selector = KnBestSelector(k=4, kn=4, stream=RandomStream(7))
        _, working, loads = selector.sample_working(providers([0.9, 0.1, 0.5, 0.3]))
        utils = [p.utilization for p in working]
        assert utils == sorted(utils) == loads

    def test_utilization_ties_break_by_id(self):
        selector = KnBestSelector(k=3, kn=3, stream=RandomStream(7))
        _, working, _ = selector.sample_working(providers([0.5, 0.5, 0.5]))
        ids = [p.participant_id for p in working]
        assert ids == sorted(ids)

    def test_deterministic_given_stream_seed(self):
        candidates = providers([i / 30 for i in range(30)])
        first = stages(5, 3, 42, candidates)
        second = stages(5, 3, 42, candidates)
        for a, b in zip(first, second):
            assert [p.participant_id for p in a] == [p.participant_id for p in b]

    def test_stage1_randomness_explores_population(self):
        """Across many queries the random stage must touch most providers."""
        selector = KnBestSelector(k=5, kn=5, stream=RandomStream(3))
        candidates = providers([0.5] * 40)
        seen = set()
        for _ in range(200):
            _, sampled, _ = selector.sample_working(candidates)
            seen.update(p.participant_id for p in sampled)
        assert len(seen) >= 38  # all but a couple of the 40

    @given(
        st.lists(st.floats(min_value=0, max_value=1), min_size=1, max_size=40),
        st.integers(min_value=1, max_value=15),
        st.integers(min_value=1, max_value=15),
        st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=60)
    def test_invariants(self, utils, k, kn_raw, seed):
        kn = min(kn_raw, k)
        candidates = providers(utils)
        sampled, working = stages(k, kn, seed, candidates)
        sampled_ids = {p.participant_id for p in sampled}
        working_ids = {p.participant_id for p in working}
        # sizes
        assert len(sampled) == min(k, len(candidates))
        assert len(working) == min(kn, len(sampled))
        # subset chain: Kn subset of K subset of P_q
        assert working_ids <= sampled_ids
        assert sampled_ids <= {p.participant_id for p in candidates}
        # no duplicates
        assert len(sampled_ids) == len(sampled)
        # stage 2 keeps exactly the least utilized of the sample
        threshold = max(p.utilization for p in working)
        outside = [p for p in sampled if p.participant_id not in working_ids]
        assert all(p.utilization >= threshold for p in outside)
        # the two-stage reference derivation agrees
        selection = ReferenceKnBestSelector(k, kn, RandomStream(seed)).select(candidates)
        assert list(selection.working) == working
