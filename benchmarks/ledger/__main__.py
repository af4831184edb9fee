"""``python -m benchmarks.ledger`` — same entry as ``run.py``."""

from benchmarks.ledger.run import main

if __name__ == "__main__":
    raise SystemExit(main())
