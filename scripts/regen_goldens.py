"""Write the golden corpus: every pinned value, from the current tree.

Runs every producer of ``tests/golden/corpus.py`` and writes the corpus to
``OUT`` (default: ``tests/golden/corpus.json``).  Tier-1 is the check: its
gates compare the tree with the committed corpus and name what moved.  Every
mean is exactly rounded (``math.fsum``), so any interpreter ``src/`` runs on
writes the same bytes.

Usage::

    PYTHONPATH=src python scripts/regen_goldens.py [OUT]
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests" / "golden"))

import corpus  # noqa: E402


def main(argv: list) -> int:
    if len(argv) > 2 or any(arg.startswith("-") for arg in argv[1:]):
        print(__doc__.strip().splitlines()[-1].strip(), file=sys.stderr)
        return 2
    out = Path(argv[1]) if len(argv) > 1 else corpus.CORPUS_PATH
    started = time.perf_counter()
    entries = corpus.write(out)
    print(f"wrote {entries} corpus entries to {out} in {time.perf_counter() - started:.1f} s")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
