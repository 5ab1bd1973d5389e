"""The library imports the standard library and nothing else.

README promises "pure Python (3.10+, standard library only)"; the test
dependencies (pytest, hypothesis, networkx for the reorder oracle) are
installed beside it, so an import of one of them from ``src/`` would pass
every other test.  This one runs the two variants that reorder — a Fabric++
SCM cell and a FabricSharp EHR cell — in an interpreter started without
site-packages and with ``networkx`` blocked, and lists what got loaded.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

PROGRAM = """
import json, sys
sys.modules["networkx"] = None
from repro import ExperimentConfig, run_repetition
from repro.network.config import NetworkConfig
from repro.workload.workloads import uniform_workload

committed = {}
for variant, chaincode in (("fabric++", "SCM"), ("fabricsharp", "EHR")):
    config = ExperimentConfig(
        variant=variant,
        workload=uniform_workload(chaincode),
        network=NetworkConfig(cluster="C1", database="leveldb", block_size=50),
        arrival_rate=150.0,
        duration=2.0,
        seed=5,
    )
    committed[variant] = run_repetition(config, 0).metrics.committed_transactions
loaded = sorted({name.split(".")[0] for name, module in sys.modules.items() if module is not None})
print(json.dumps({"committed": committed, "loaded": loaded}))
"""


def test_a_fabricpp_and_a_fabricsharp_run_need_only_the_standard_library():
    completed = subprocess.run(
        [sys.executable, "-S", "-c", PROGRAM],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=120,
        check=False,
    )
    assert completed.returncode == 0, completed.stderr
    report = json.loads(completed.stdout)
    assert all(count > 0 for count in report["committed"].values()), report["committed"]
    assert not [name for name in report["loaded"] if name.startswith("networkx")]
    # ``__mp_main__`` is the alias multiprocessing gives ``__main__``.
    outside = set(report["loaded"]) - set(sys.stdlib_module_names)
    outside -= {"repro", "__main__", "__mp_main__"}
    assert not outside, f"modules from outside the standard library: {sorted(outside)}"
