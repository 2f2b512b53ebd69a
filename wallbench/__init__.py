"""wallbench — the repo's wall-clock ledger.

Seven named workloads drive the simulator's user paths end to end
(deck text → ``parse_netlist`` → ``compile_circuit`` → ``simulate`` →
``to_csv_text``; HTTP submit → result bytes) with tracing off, check
every output, and report end-to-end metrics; a separate traced pass
attributes host time to layers from outside the program. See
``wallbench/README.md`` for the metric glossary.

The package runs from a bare checkout: ``src/`` is put on ``sys.path``
here so ``python3 -m wallbench`` needs no ``PYTHONPATH``.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

if SRC.is_dir() and str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))
