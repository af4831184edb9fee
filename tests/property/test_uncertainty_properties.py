"""Property-based tests of the secondary-uncertainty machinery (hypothesis).

Random uncertain ELTs are sampled and summarised and the results must satisfy
the distributional contracts regardless of the draw:

* sampled losses respect the distribution bounds (non-negative, finite),
  keep the float64 dtype, pin zero-CV records to their means and zero-mean
  records to zero — for both distribution families;
* the mean of many replications of a record converges to its expected
  (``expected_elt``) loss;
* :meth:`ReplicationSummary.from_values` is invariant under permutation of
  the replication axis and always satisfies ``low <= mean <= high``;
* :meth:`UncertainLayer.sample_net_row` is bit-identical to building the
  sampled layer and combining its dense loss matrix — the identity the
  batched replication engine rests on;
* :meth:`LayerLossMatrix.combined_net_losses`, built from the ELT records, has
  the bytes of the dense reduction written out here (:func:`dense_net_row`) —
  the identity every fused quote rests on — and the lazily built dense stack
  still serves the per-ELT reads.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.elt.combined import LayerLossMatrix
from repro.elt.table import EventLossTable
from repro.financial.policies import apply_financial_terms_matrix
from repro.financial.terms import FinancialTerms, LayerTerms
from repro.uncertainty.analysis import ReplicationSummary, UncertainLayer
from repro.uncertainty.table import (
    MIN_SAMPLED_CV,
    LossDistributionFamily,
    UncertainEventLossTable,
)
from repro.utils.rng import spawn_rngs

CATALOG_SIZE = 25

families = st.sampled_from(list(LossDistributionFamily))


@st.composite
def uncertain_elt(draw, min_records: int = 1):
    n_records = draw(st.integers(min_value=min_records, max_value=8))
    event_ids = draw(
        st.lists(
            st.integers(min_value=0, max_value=CATALOG_SIZE - 1),
            min_size=n_records, max_size=n_records, unique=True,
        )
    )
    mean_losses = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=1e4, allow_nan=False),
            min_size=n_records, max_size=n_records,
        )
    )
    cv_losses = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=2.0, allow_nan=False),
            min_size=n_records, max_size=n_records,
        )
    )
    terms = FinancialTerms(
        retention=draw(st.floats(min_value=0.0, max_value=100.0)),
        share=draw(st.floats(min_value=0.1, max_value=1.0)),
        fx_rate=draw(st.floats(min_value=0.5, max_value=2.0)),
    )
    return UncertainEventLossTable(
        np.array(event_ids, dtype=np.int64),
        np.array(mean_losses, dtype=np.float64),
        np.array(cv_losses, dtype=np.float64),
        catalog_size=CATALOG_SIZE,
        family=draw(families),
        terms=terms,
    )


def dense_net_row(matrix: LayerLossMatrix) -> np.ndarray:
    """The reference: net the dense ``(n_elts, catalog)`` stack, reduce over ELTs."""
    net = apply_financial_terms_matrix(
        matrix.losses, matrix.retentions, matrix.limits, matrix.shares, matrix.fx_rates
    )
    return net.sum(axis=0)


@st.composite
def plain_elt(draw):
    """0-8 unsorted records; retention, finite / zero limit, share < 1, fx != 1."""
    event_ids = draw(
        st.lists(st.integers(min_value=0, max_value=CATALOG_SIZE - 1), max_size=8, unique=True)
    )
    losses = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=1e4, allow_nan=False),
            min_size=len(event_ids), max_size=len(event_ids),
        )
    )
    terms = FinancialTerms(
        retention=draw(st.sampled_from([0.0, 3.5, 250.0])),
        limit=draw(st.sampled_from([0.0, 40.0, 2e3, float("inf")])),
        share=draw(st.sampled_from([0.0, 0.3, 1.0])),
        fx_rate=draw(st.sampled_from([0.5, 1.0, 1.37])),
    )
    return EventLossTable(
        np.array(event_ids, dtype=np.int64), np.array(losses, dtype=np.float64),
        catalog_size=CATALOG_SIZE, terms=terms,
    )


class TestSampledLossBounds:
    @given(elt=uncertain_elt(), seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_samples_respect_bounds_and_dtype(self, elt, seed):
        sampled = elt.sample_losses(rng=seed)
        assert sampled.dtype == np.float64
        assert sampled.shape == elt.mean_losses.shape
        assert np.all(sampled >= 0.0)
        assert np.all(np.isfinite(sampled))
        # Degenerate records are pinned, not sampled (a CV below
        # MIN_SAMPLED_CV counts as deterministic — the cv -> 0 limit).
        pinned = (elt.cv_losses < MIN_SAMPLED_CV) | (elt.mean_losses == 0.0)
        np.testing.assert_array_equal(sampled[pinned], elt.mean_losses[pinned])
        # Zero mean stays exactly zero regardless of the CV.
        assert np.all(sampled[elt.mean_losses == 0.0] == 0.0)

    @given(elt=uncertain_elt(), seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_sample_elt_wraps_sample_losses(self, elt, seed):
        table = elt.sample_elt(rng=seed)
        np.testing.assert_array_equal(table.losses, elt.sample_losses(rng=seed))
        np.testing.assert_array_equal(table.event_ids, elt.event_ids)
        assert table.terms is elt.terms


class TestReplicationConvergence:
    @given(
        mean=st.floats(min_value=10.0, max_value=1e4),
        cv=st.floats(min_value=0.05, max_value=1.0),
        family=families,
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=12, deadline=None)
    def test_replication_mean_converges_to_expected_loss(self, mean, cv, family, seed):
        elt = UncertainEventLossTable(
            np.array([3]), np.array([mean]), np.array([cv]),
            catalog_size=CATALOG_SIZE, family=family,
        )
        expected = elt.expected_elt().losses[0]
        draws = np.array([
            elt.sample_losses(rng)[0] for rng in spawn_rngs(seed, 4000)
        ])
        tolerance = 5.0 * cv * mean / np.sqrt(draws.size)
        assert abs(draws.mean() - expected) <= tolerance


class TestReplicationSummaryProperties:
    values_lists = st.lists(
        st.floats(min_value=-1e9, max_value=1e9, allow_nan=False),
        min_size=1, max_size=40,
    )

    @given(values=values_lists, seed=st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=80, deadline=None)
    def test_permutation_invariance(self, values, seed):
        array = np.asarray(values, dtype=np.float64)
        permuted = np.random.default_rng(seed).permutation(array)
        a = ReplicationSummary.from_values(array)
        b = ReplicationSummary.from_values(permuted)
        # Percentiles sort internally, so the band is exactly invariant; the
        # moments are invariant up to summation-order rounding.
        assert a.low == b.low
        assert a.high == b.high
        np.testing.assert_allclose(b.mean, a.mean, rtol=1e-12, atol=1e-300)
        np.testing.assert_allclose(b.std, a.std, rtol=1e-9, atol=1e-300)

    @given(values=values_lists)
    @settings(max_examples=80, deadline=None)
    def test_band_and_mean_bounds(self, values):
        """Universal ordering facts: min <= low <= high <= max bracket the band.

        (``low <= mean <= high`` is *not* universal — a pathological list can
        push the mean outside the 5th/95th percentiles — so that ordering is
        asserted on real replication output in ``test_engine_summaries_ordered``.)
        """
        array = np.asarray(values, dtype=np.float64)
        summary = ReplicationSummary.from_values(array)
        # One-ulp slack: the mean (pairwise summation) and the percentile
        # interpolation may land a rounding step outside [min, max].
        lo = np.nextafter(array.min(), -np.inf)
        hi = np.nextafter(array.max(), np.inf)
        assert lo <= summary.low <= summary.high <= hi
        assert lo <= summary.mean <= hi
        assert summary.std >= 0.0

    def test_engine_summaries_ordered(self):
        """On sampled replication metrics the band brackets the mean."""
        elt = UncertainEventLossTable(
            np.array([1, 4, 7]), np.array([100.0, 250.0, 80.0]),
            np.array([0.5, 0.5, 0.5]), catalog_size=CATALOG_SIZE,
        )
        draws = [elt.sample_losses(rng).sum() for rng in spawn_rngs(11, 40)]
        summary = ReplicationSummary.from_values(draws)
        assert summary.low <= summary.mean <= summary.high


class TestSampleNetRowIdentity:
    @given(
        n_elts=st.integers(min_value=1, max_value=3),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        data=st.data(),
    )
    @settings(max_examples=25, deadline=None)
    def test_net_row_matches_dense_layer_build(self, n_elts, seed, data):
        elts = [data.draw(uncertain_elt()) for _ in range(n_elts)]
        layer = UncertainLayer(elts, LayerTerms(), name="prop")
        direct = layer.sample_net_row(rng=seed)
        sampled = layer.sample_layer(rng=seed).loss_matrix()
        assert direct.tobytes() == sampled.combined_net_losses().tobytes()
        assert direct.tobytes() == dense_net_row(sampled).tobytes()


class TestCombinedNetRowIsTheDenseReduction:
    # 1..33 ELTs crosses NumPy's 8-wide unrolled reduction (8, 9, 16, 17, 32, 33).
    @given(elts=st.lists(plain_elt(), min_size=1, max_size=33))
    @settings(max_examples=60, deadline=None)
    def test_records_first_row_has_the_dense_bytes(self, elts):
        matrix = LayerLossMatrix(elts)
        net = matrix.combined_net_losses()
        assert matrix._losses is None  # built from records, not from the dense stack
        assert net.tobytes() == dense_net_row(matrix).tobytes()
        assert not net.flags.writeable

    @given(elts=st.lists(plain_elt(), min_size=1, max_size=9), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_lazy_dense_stack_serves_per_elt_reads(self, elts, data):
        matrix = LayerLossMatrix(elts)
        matrix.combined_net_losses()
        dense = np.stack([elt.dense_losses() for elt in elts])
        ids = np.array(
            data.draw(st.lists(st.integers(min_value=0, max_value=CATALOG_SIZE - 1), max_size=12)),
            dtype=np.int64,
        )
        np.testing.assert_array_equal(matrix.gather(ids), dense[:, ids])
        np.testing.assert_array_equal(matrix.ground_up_event_losses(ids), dense[:, ids].sum(axis=0))
        for index in range(len(elts)):
            np.testing.assert_array_equal(matrix.row(index), dense[index])
            assert not matrix.row(index).flags.writeable
        assert matrix.losses is matrix.losses

    @pytest.mark.parametrize("n_elts", [1, 2, 8, 9, 17, 33])
    def test_named_corners(self, n_elts):
        """Disjoint and overlapping ids, an empty ELT and a zero limit, wide catalog."""
        rng = np.random.default_rng(n_elts)
        catalog = 4_000
        elts = []
        for index in range(n_elts):
            lo = 0 if index % 2 else (index * 97) % 3_000  # odd ELTs overlap, even ones drift
            ids = rng.permutation(np.arange(lo, lo + 600))[: 0 if index == 1 else 400]
            terms = FinancialTerms(
                retention=float(index % 3) * 40.0,
                limit=0.0 if index == 2 else (5e3 if index % 4 else float("inf")),
                share=0.25 + 0.75 * (index % 2),
                fx_rate=1.0 + 0.1 * (index % 5),
            )
            elts.append(
                EventLossTable(ids, rng.uniform(0.0, 1e4, size=ids.size), catalog, terms)
            )
        matrix = LayerLossMatrix(elts)
        assert matrix.combined_net_losses().tobytes() == dense_net_row(matrix).tobytes()
