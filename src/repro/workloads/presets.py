"""Named workload presets.

Three families of presets are provided:

* ``tiny`` — seconds-scale workloads for unit and property tests;
* ``bench`` — the scaled-down workloads the benchmark harness runs (chosen so
  a full benchmark session finishes in minutes on a laptop while preserving
  the paper's parameter *ratios*);
* ``PAPER_FULL_SCALE`` — the paper's headline configuration (1 million trials,
  1000 events per trial, one layer of 15 ELTs over a 2-million-event catalog).
  This preset is never *executed*; its :meth:`~WorkloadSpec.shape`
  parameterises the analytical device/CPU cost models in
  ``benchmarks/paper`` that the figure benchmarks use to project full-scale
  runtimes.
"""

from __future__ import annotations

from typing import Dict

from repro.workloads.generator import WorkloadSpec

__all__ = [
    "PAPER_FULL_SCALE",
    "tiny_spec",
    "bench_spec",
    "paper_scaled_spec",
    "preset",
    "preset_names",
]

#: The paper's headline experiment: 1M trials x 1000 events x 15 ELTs x 1 layer
#: on a 2M-event catalog (Section III-B and Figure 6).
PAPER_FULL_SCALE = WorkloadSpec(
    n_trials=1_000_000,
    events_per_trial=1000,
    n_layers=1,
    elts_per_layer=15,
    catalog_size=2_000_000,
    buildings_per_exposure=1000,
    n_regions=64,
    fixed_trial_length=True,
    seed=20120101,
)


def tiny_spec(seed: int = 7) -> WorkloadSpec:
    """A milliseconds-scale workload for unit tests."""
    return WorkloadSpec(
        n_trials=64,
        events_per_trial=20,
        n_layers=2,
        elts_per_layer=3,
        catalog_size=500,
        buildings_per_exposure=40,
        n_regions=8,
        seed=seed,
    )


def bench_spec(seed: int = 42) -> WorkloadSpec:
    """The default benchmark workload (a ~1/500 linear scale of the paper's).

    The paper's ratios are preserved: trials : events/trial : ELTs/layer stay
    at 2000 : 100 : 15 (vs 1,000,000 : 1000 : 15), and the catalog is kept
    20x larger than an ELT's non-zero record count so that the direct access
    tables remain sparse.
    """
    return WorkloadSpec(
        n_trials=2000,
        events_per_trial=100,
        n_layers=1,
        elts_per_layer=15,
        catalog_size=40_000,
        buildings_per_exposure=100,
        n_regions=32,
        seed=seed,
    )


def paper_scaled_spec(trial_fraction: float = 0.002, seed: int = 42) -> WorkloadSpec:
    """The paper's configuration with the trial count scaled by ``trial_fraction``.

    Events per trial, ELTs per layer and layer count keep the paper's values;
    only the trial dimension (which the paper itself shows is linear,
    Fig. 2b) is reduced.
    """
    if not 0.0 < trial_fraction <= 1.0:
        raise ValueError(f"trial_fraction must be in (0, 1], got {trial_fraction}")
    n_trials = max(1, int(round(PAPER_FULL_SCALE.n_trials * trial_fraction)))
    return PAPER_FULL_SCALE.scaled(
        n_trials=n_trials,
        catalog_size=100_000,
        buildings_per_exposure=200,
        n_regions=64,
        seed=seed,
    )


_PRESETS: Dict[str, WorkloadSpec] = {
    "tiny": tiny_spec(),
    "bench": bench_spec(),
    "bench-large": bench_spec().scaled(n_trials=10_000),
    "paper-1permille": paper_scaled_spec(0.001),
    "paper-full": PAPER_FULL_SCALE,
}


def preset_names() -> tuple[str, ...]:
    """Names of the available presets."""
    return tuple(_PRESETS)


def preset(name: str) -> WorkloadSpec:
    """Look a preset up by name."""
    try:
        return _PRESETS[name]
    except KeyError as exc:
        raise KeyError(
            f"unknown preset {name!r}; available presets: {', '.join(_PRESETS)}"
        ) from exc
