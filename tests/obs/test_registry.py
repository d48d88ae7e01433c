"""Tests for the deterministic histogram (repro.obs.registry)."""

import pytest

from repro.obs.registry import DEFAULT_DURATION_BUCKETS, Histogram


class TestHistogram:
    def test_bucketing_is_upper_bound_inclusive(self):
        histogram = Histogram("h", (1.0, 2.0, 5.0))
        for value in (0.5, 1.0, 1.5, 2.0, 5.0, 5.1):
            histogram.observe(value)
        # v lands in the first bucket with v <= bound; > last bound
        # overflows into the implicit final bucket
        assert histogram.counts == [2, 2, 1, 1]
        assert histogram.count == 6

    def test_mean_is_exact_without_per_sample_storage(self):
        histogram = Histogram("h", (10.0,))
        histogram.observe(1.0)
        histogram.observe(2.0)
        assert histogram.mean() == 1.5

    def test_empty_mean_raises(self):
        with pytest.raises(ValueError):
            Histogram("h", (1.0,)).mean()

    def test_boundaries_must_be_strictly_increasing(self):
        with pytest.raises(ValueError):
            Histogram("h", (1.0, 1.0))
        with pytest.raises(ValueError):
            Histogram("h", ())

    def test_bucket_labels_cover_every_bucket(self):
        histogram = Histogram("h", (1.0, 5.0))
        labels = histogram.bucket_labels()
        assert labels == ["<= 1", "(1, 5]", "> 5"]
        assert len(labels) == len(histogram.counts)

    def test_identical_observations_produce_identical_state(self):
        # determinism: two histograms fed the same stream are equal in
        # every exported field (the trace round-trip relies on this)
        values = [0.0, 1.0, 3.0, 7.0, 2000.0]
        a = Histogram("h", DEFAULT_DURATION_BUCKETS)
        b = Histogram("h", DEFAULT_DURATION_BUCKETS)
        for value in values:
            a.observe(value)
            b.observe(value)
        assert (a.counts, a.count, a.total) == (b.counts, b.count, b.total)
