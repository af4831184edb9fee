"""The performance ledger: one harness, five named workloads, absolute numbers.

``BENCHMARK.json`` at the repo root describes this package to the benchmark
driver; ``README.md`` next to this file describes it to people.  Entry points:

* ``python3 benchmarks/ledger/run.py --workload W --seed N --seconds S --trace 0|1``
  (the driver's form: one workload, one pass, one JSON result line);
* ``python -m benchmarks.ledger --seed 2012 --out ledger.json`` (every
  workload, untraced then traced, each in its own child process);
* ``python -m benchmarks.ledger compare A.json B.json``.
"""
