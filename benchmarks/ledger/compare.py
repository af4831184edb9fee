"""``compare A.json B.json``: per (metric, workload) ratio, base and verdict.

Verdicts use the bounds of ``BENCHMARK.json`` and each run's own round
spread: ``worse`` when B is worse than A by more than the bound,
``unresolved`` when either run's spread over its three rounds is wider than
the bound (the difference cannot be told from noise), else ``ok``.  A failed
op in B that A did not have is always ``worse`` (the bound on failures is 0).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Mapping

from benchmarks.ledger.env import ROOT


def load_bounds(path: Path | None = None) -> dict[str, dict[str, Any]]:
    """``{metric: {"better": ..., "bound": ..., "unit": ...}}`` from BENCHMARK.json."""
    document = json.loads((path or ROOT / "BENCHMARK.json").read_text())
    return {entry["name"]: entry for entry in document["end_to_end"]}


def verdict(base: float, new: float, better: str, bound: float,
            spread_base: float = 0.0, spread_new: float = 0.0) -> str:
    """``ok | worse | unresolved`` for one (metric, workload) cell."""
    if base <= 0:
        return "unresolved"
    change = (new - base) / base
    worsening = change if better == "lower" else -change
    if worsening > bound:
        return "worse"
    if max(spread_base, spread_new) > bound:
        return "unresolved"
    return "ok"


def compare(a: Mapping[str, Any], b: Mapping[str, Any],
            bounds: Mapping[str, Mapping[str, Any]]) -> list[dict[str, Any]]:
    """One row per (workload, end-to-end metric) present in both ledgers."""
    rows: list[dict[str, Any]] = []
    for workload, cell_a in a["workloads"].items():
        cell_b = b["workloads"].get(workload)
        if cell_b is None:
            continue
        for metric, spec in bounds.items():
            base = cell_a["end_to_end"].get(metric)
            new = cell_b["end_to_end"].get(metric)
            if base is None or new is None:
                continue
            rows.append({
                "workload": workload, "metric": metric, "unit": spec["unit"],
                "base": base["value"], "new": new["value"],
                "ratio": new["value"] / base["value"] if base["value"] else float("nan"),
                "bound": spec["bound"],
                "verdict": verdict(base["value"], new["value"], spec["better"], spec["bound"],
                                   base.get("round_spread", 0.0), new.get("round_spread", 0.0)),
            })
        failed_a, failed_b = cell_a.get("ops_failed", 0), cell_b.get("ops_failed", 0)
        rows.append({
            "workload": workload, "metric": "failed_share", "unit": "ratio",
            "base": cell_a.get("failed_share", 0.0), "new": cell_b.get("failed_share", 0.0),
            "ratio": float("nan"), "bound": 0.0,
            "verdict": "worse" if failed_b > failed_a else "ok",
        })
    return rows


def main(path_a: str, path_b: str) -> int:
    """Print the comparison; exit code 1 when any cell is ``worse``."""
    a = json.loads(Path(path_a).read_text())
    b = json.loads(Path(path_b).read_text())
    rows = compare(a, b, load_bounds())
    print(f"{'workload':<14}{'metric':<18}{'base (A)':>14}{'new (B)':>14}"
          f"{'B/A':>8}{'bound':>7}  verdict")
    for row in rows:
        print(f"{row['workload']:<14}{row['metric']:<18}{row['base']:>14.4f}{row['new']:>14.4f}"
              f"{row['ratio']:>8.3f}{row['bound']:>7.2f}  {row['verdict']}  [{row['unit']}]")
    worse = [row for row in rows if row["verdict"] == "worse"]
    unresolved = sum(row["verdict"] == "unresolved" for row in rows)
    print(f"compare: {len(rows)} cells, {len(worse)} worse, {unresolved} unresolved")
    return 1 if worse else 0
