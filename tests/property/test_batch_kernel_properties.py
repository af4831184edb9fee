"""Property-based tests of the fused multi-layer batch kernel (hypothesis).

Random stacks of layers (random ELTs, random terms, random ragged trials) are
pushed through :func:`repro.core.kernels.layer_trial_losses_batch` and the
kernel must satisfy its algebraic contracts regardless of the draw:

* permuting the layers permutes the output rows and changes nothing else;
* a batch of one layer equals :func:`repro.core.kernels.layer_trial_losses`;
* layers whose ELTs hold no records contribute exactly zero;
* the chunked fused gather is independent of the chunk size;
* the row-major (``np.take``) gather reproduces, byte for byte, the
  event-major ``stack[:, ids]`` kernel it replaced.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.kernels import layer_trial_losses, layer_trial_losses_batch
from repro.elt.table import EventLossTable
from repro.financial.terms import FinancialTerms, LayerTerms, LayerTermsVectors
from repro.portfolio.layer import Layer

CATALOG_SIZE = 30


@st.composite
def random_layer(draw, tag: str, allow_empty: bool = True):
    n_elts = draw(st.integers(min_value=1, max_value=3))
    elts = []
    for e in range(n_elts):
        n_records = draw(
            st.integers(min_value=0 if allow_empty else 1, max_value=10)
        )
        event_ids = draw(
            st.lists(
                st.integers(min_value=0, max_value=CATALOG_SIZE - 1),
                min_size=n_records, max_size=n_records, unique=True,
            )
        )
        losses = draw(
            st.lists(
                st.floats(min_value=0.0, max_value=1e4, allow_nan=False),
                min_size=n_records, max_size=n_records,
            )
        )
        terms = FinancialTerms(
            retention=draw(st.floats(min_value=0.0, max_value=50.0)),
            limit=draw(
                st.one_of(st.just(float("inf")), st.floats(min_value=10.0, max_value=1e4))
            ),
            share=draw(st.floats(min_value=0.1, max_value=1.0)),
        )
        elts.append(
            EventLossTable(
                np.array(event_ids, dtype=np.int64),
                np.array(losses, dtype=np.float64),
                CATALOG_SIZE,
                terms,
                f"{tag}-elt{e}",
            )
        )
    layer_terms = LayerTerms(
        occurrence_retention=draw(st.floats(min_value=0.0, max_value=100.0)),
        occurrence_limit=draw(
            st.one_of(st.just(float("inf")), st.floats(min_value=10.0, max_value=1e4))
        ),
        aggregate_retention=draw(st.floats(min_value=0.0, max_value=500.0)),
        aggregate_limit=draw(
            st.one_of(st.just(float("inf")), st.floats(min_value=50.0, max_value=1e5))
        ),
    )
    return Layer(elts, layer_terms, name=tag)


@st.composite
def random_yet_arrays(draw):
    n_trials = draw(st.integers(min_value=1, max_value=8))
    lengths = draw(
        st.lists(st.integers(min_value=0, max_value=12),
                 min_size=n_trials, max_size=n_trials)
    )
    offsets = np.concatenate(([0], np.cumsum(lengths))).astype(np.int64)
    total = int(offsets[-1])
    event_ids = np.array(
        draw(st.lists(st.integers(min_value=0, max_value=CATALOG_SIZE - 1),
                      min_size=total, max_size=total)),
        dtype=np.int64,
    )
    return event_ids, offsets


@st.composite
def layers_and_yet(draw, min_layers: int = 1, max_layers: int = 4):
    n_layers = draw(st.integers(min_value=min_layers, max_value=max_layers))
    layers = [draw(random_layer(f"layer{i}")) for i in range(n_layers)]
    event_ids, offsets = draw(random_yet_arrays())
    return layers, event_ids, offsets


def _batch(layers, event_ids, offsets, **kwargs):
    return layer_trial_losses_batch(
        [layer.loss_matrix() for layer in layers],
        event_ids,
        offsets,
        [layer.terms for layer in layers],
        **kwargs,
    )


@given(layers_and_yet(min_layers=2))
@settings(max_examples=60, deadline=None)
def test_permutation_of_layers_invariance(drawn):
    """Batched pricing commutes with any permutation of the layer axis."""
    layers, event_ids, offsets = drawn
    year, max_occ = _batch(layers, event_ids, offsets)
    perm = np.arange(len(layers))[::-1]
    year_p, max_occ_p = _batch([layers[i] for i in perm], event_ids, offsets)
    np.testing.assert_array_equal(year_p, year[perm])
    np.testing.assert_array_equal(max_occ_p, max_occ[perm])


@given(random_layer("solo"), random_yet_arrays())
@settings(max_examples=60, deadline=None)
def test_single_layer_batch_equals_layer_trial_losses(layer, yet_arrays):
    """A batch of one layer degenerates to the per-layer kernel exactly."""
    event_ids, offsets = yet_arrays
    year_b, max_b = _batch([layer], event_ids, offsets)
    year_s, max_s = layer_trial_losses(
        layer.loss_matrix(), event_ids, offsets, layer.terms
    )
    assert year_b.shape == (1, offsets.size - 1)
    np.testing.assert_array_equal(year_b[0], year_s)
    np.testing.assert_array_equal(max_b[0], max_s)


@given(layers_and_yet())
@settings(max_examples=40, deadline=None)
def test_empty_elt_layer_contributes_zero(drawn):
    """A layer whose ELTs hold no records yields identically zero rows."""
    layers, event_ids, offsets = drawn
    empty_elt = EventLossTable(
        np.array([], dtype=np.int64),
        np.array([], dtype=np.float64),
        CATALOG_SIZE,
        FinancialTerms(),
        "empty",
    )
    empty_layer = Layer([empty_elt], LayerTerms(), name="empty-layer")
    year, max_occ = _batch(layers + [empty_layer], event_ids, offsets)
    assert np.all(year[-1] == 0.0)
    assert np.all(max_occ[-1] == 0.0)
    # ...and its presence does not perturb the other layers.
    year_without, _ = _batch(layers, event_ids, offsets)
    np.testing.assert_array_equal(year[:-1], year_without)


@given(layers_and_yet(), st.integers(min_value=1, max_value=64))
@settings(max_examples=40, deadline=None)
def test_chunked_fused_gather_is_chunk_size_invariant(drawn, chunk_events):
    """Fused results do not depend on the gather chunk size.

    Streamed chunking accumulates each trial's total from per-chunk partial
    sums, so year losses may differ from the whole-stream gather in the last
    bits (within 1e-9 relative); the per-trial maxima merge exactly.
    """
    layers, event_ids, offsets = drawn
    whole_year, whole_max = _batch(layers, event_ids, offsets)
    chunk_year, chunk_max = _batch(
        layers, event_ids, offsets, chunk_events=chunk_events
    )
    np.testing.assert_allclose(chunk_year, whole_year, rtol=1e-9, atol=1e-6)
    np.testing.assert_array_equal(chunk_max, whole_max)


@given(layers_and_yet())
@settings(max_examples=40, deadline=None)
def test_shortcut_and_cumulative_agree_batched(drawn):
    """Telescoped and full-cumulative aggregate passes agree layer-wise."""
    layers, event_ids, offsets = drawn
    shortcut, _ = _batch(layers, event_ids, offsets, use_shortcut=True)
    cumulative, _ = _batch(layers, event_ids, offsets, use_shortcut=False)
    np.testing.assert_allclose(shortcut, cumulative, rtol=1e-9, atol=1e-6)


# --------------------------------------------------------------------------- #
# Row-major gather == the event-major kernel it replaced, byte for byte
# --------------------------------------------------------------------------- #
STACK_FORMS = ("owned", "read-only", "buffer-backed", "column-strided", "fortran")


def _as_form(values: np.ndarray, form: str) -> np.ndarray:
    """The same ``(n_rows, catalog)`` values in the memory forms a stack
    reaches the kernel in (plan-owned, cached read-only, attached to a
    shared-memory-style foreign buffer, non-contiguous views)."""
    if form == "read-only":
        frozen = values.copy()
        frozen.flags.writeable = False
        return frozen
    if form == "buffer-backed":
        return np.ndarray(values.shape, dtype=np.float64, buffer=memoryview(values.tobytes()))
    if form == "column-strided":
        wide = np.zeros((values.shape[0], 2 * values.shape[1]))
        wide[:, ::2] = values
        return wide[:, ::2]
    if form == "fortran":
        return np.asfortranarray(values)
    return values.copy()


def _event_major_reference(stack, ids, offsets, vectors, row_map, record_max):
    """The fused pass written out with the old ``stack[:, ids]`` gather."""
    combined = stack[:, ids]
    if row_map is not None:
        combined = combined[row_map]
    occurrence = np.clip(
        combined - vectors.occurrence_retentions[:, None],
        0.0, vectors.occurrence_limits[:, None],
    )
    n_trials = offsets.size - 1
    totals = np.zeros((vectors.n_layers, n_trials))
    maxima = np.zeros((vectors.n_layers, n_trials))
    non_empty = np.diff(offsets) > 0
    if non_empty.any():
        starts = offsets[:-1][non_empty]
        totals[:, non_empty] = np.add.reduceat(occurrence, starts, axis=1)
        maxima[:, non_empty] = np.maximum(
            np.maximum.reduceat(occurrence, starts, axis=1), 0.0
        )
    year = np.clip(
        totals - vectors.aggregate_retentions[:, None],
        0.0, vectors.aggregate_limits[:, None],
    )
    return year, (maxima if record_max else None)


@st.composite
def stack_problem(draw):
    n_stack_rows = draw(st.integers(min_value=1, max_value=40))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = np.random.default_rng(seed)
    # Magnitudes over 12 decades and ~half zeros: any change of summation
    # order inside a trial would show in the last bits.
    stack = 10.0 ** rng.uniform(-4, 8, size=(n_stack_rows, CATALOG_SIZE))
    stack[rng.random(stack.shape) < 0.5] = 0.0
    if draw(st.booleans()):
        n_layers = draw(st.integers(min_value=1, max_value=40))
        row_map = rng.integers(0, n_stack_rows, size=n_layers)  # repeats and gaps
    else:
        n_layers, row_map = n_stack_rows, None
    lengths = draw(st.lists(st.integers(min_value=0, max_value=40), min_size=0, max_size=8))
    offsets = np.concatenate(([0], np.cumsum(lengths))).astype(np.int64)
    ids = rng.integers(0, CATALOG_SIZE, size=int(offsets[-1]))
    vectors = LayerTermsVectors(
        10.0 ** rng.uniform(-4, 3, size=n_layers),
        np.where(rng.random(n_layers) < 0.3, np.inf, 10.0 ** rng.uniform(0, 8, size=n_layers)),
        10.0 ** rng.uniform(-4, 4, size=n_layers),
        np.where(rng.random(n_layers) < 0.3, np.inf, 10.0 ** rng.uniform(0, 9, size=n_layers)),
    )
    return stack, ids, offsets, vectors, row_map


@given(
    stack_problem(),
    st.sampled_from(STACK_FORMS),
    st.one_of(st.none(), st.integers(min_value=1, max_value=400)),
    st.booleans(),
)
@settings(max_examples=150, deadline=None)
def test_row_major_gather_matches_event_major_reference(
    problem, form, chunk_events, record_max
):
    """Monolithic or streamed, with or without ``row_map``, from any stack
    memory form: the same bytes as the ``stack[:, ids]`` kernel."""
    stack, ids, offsets, vectors, row_map = problem
    want_year, want_max = _event_major_reference(
        stack, ids, offsets, vectors, row_map, record_max
    )
    year, max_occ = layer_trial_losses_batch(
        (), ids, offsets, vectors,
        stack=_as_form(stack, form), row_map=row_map,
        chunk_events=chunk_events, record_max_occurrence=record_max,
    )
    assert year.shape == want_year.shape
    assert year.tobytes() == want_year.tobytes()
    if record_max:
        assert max_occ.tobytes() == want_max.tobytes()
    else:
        assert max_occ is None
