"""The functions and methods that the benchmark's tracer and per-layer
table name must stay in the program: a rename or deletion would break
every traced benchmark run, so it fails here first."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# -B: importing perfbench writes no bytecode under perfbench/
SCRIPT = """
import json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import smoothsum.labcli
import run, tracer
t = tracer.Tracer()
t.install()
_, per_layer = run.declared_units()
print(json.dumps({"layers": sorted(run.layer_metrics(t.summary())),
                  "declared": sorted(per_layer)}))
"""


def test_tracer_finds_every_per_layer_name():
    result = subprocess.run(
        [sys.executable, "-B", "-c", SCRIPT, str(ROOT / "perfbench"),
         str(ROOT / "src")], capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    names = json.loads(result.stdout)
    assert sorted(names["layers"] + ["trace.overhead_s"]) == names["declared"]
