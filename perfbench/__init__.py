"""Host wall-time benchmark of the JAFAR reproduction.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` runs one workload (``fig3-sweep``, ``scan-4m``,
``tpch-fig4``, or ``all`` for the three in turn) through the public entry
points of :mod:`repro.analysis`, checks every simulated output, and prints
the metrics named in ``BENCHMARK.json``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import importlib
import pathlib
import sys

#: The checkout root: the directory that holds ``perfbench/`` and ``src/``.
ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class ProgramMissing(RuntimeError):
    """The program under test is not importable from this checkout."""


def import_program():
    """Import :mod:`repro` from this checkout's ``src/`` and return it.

    Refuses a ``repro`` found anywhere else (an installed copy), so the
    benchmark always measures the source tree it ships with.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise ProgramMissing(f"no program sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    repro = importlib.import_module("repro")
    location = pathlib.Path(repro.__file__).resolve()
    if SRC not in location.parents:
        raise ProgramMissing(f"repro imported from {location}, not from {SRC}")
    return repro
