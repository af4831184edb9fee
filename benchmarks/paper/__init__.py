"""Models and ablation structures used only by the paper-figure scripts.

Nothing in :mod:`repro` imports this package; the engine never runs it.

* :mod:`benchmarks.paper.device` — the analytical GPU cost model
  (:class:`SimulatedGPU`, :class:`KernelCostModel`, ``multi_gpu_estimate``)
  that projects the paper's CUDA timings (Figs. 4, 5a, 5b and 6a);
* :mod:`benchmarks.paper.projection` — the analytical CPU cost model
  (:class:`CPUCostModel`) and ``project_summary`` (Figs. 3a, 6a and 6b);
* :mod:`benchmarks.paper.lookup_structures` — the sorted and hashed ELT
  lookups that ``bench_ablation_elt_structures`` compares with the engine's
  direct access table.

Their outputs are projections, not measurements: the figure scripts attach
them to ``extra_info`` next to the timed scaled run.
"""
