"""Driver entry point: ``python3 benchmarks/ledger/run.py --workload ...``.

Run as a script from the root of a checkout, so the one thing it does before
handing over to :mod:`benchmarks.ledger.cli` is make the checkout's ``src``
tree (the program under test) and the checkout itself (this package)
importable.  In a directory that holds only the benchmark — no ``src`` — it
exits with code 2 and prints no result.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def main(argv: list[str] | None = None) -> int:
    for entry in (str(ROOT / "src"), str(ROOT)):
        if entry not in sys.path:
            sys.path.insert(0, entry)
    try:
        import repro  # noqa: F401 - the program under test must be present
    except ImportError as exc:
        print(f"ledger: cannot import the program under test from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 2
    from benchmarks.ledger.cli import main as cli_main

    return cli_main(argv)


if __name__ == "__main__":
    raise SystemExit(main())
