"""The benchmark's traced path: ``parseqbench/tracing.py`` wraps parseq's
layer functions by name, so a renamed or deleted one would break only a
traced run. This runs one traced check the way the benchmark does."""

import json
import os
import subprocess
import sys

WORKER = os.path.join(os.path.dirname(os.path.dirname(__file__)), "parseqbench", "worker.py")


def test_traced_worker_times_each_layer(tmp_path):
    trace = tmp_path / "spans.jsonl"
    spec = {
        "fixtures": [["mpls_ref_small", "q1", "mpls_vec_small", "q3"]],
        "leaps": True,
        "trace": str(trace),
        "label": "test",
    }
    proc = subprocess.run(
        [sys.executable, WORKER, json.dumps(spec)], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert [c["verdict"] for c in out["checks"]] == ["Equivalent"]
    assert {"wp", "reach", "smt.simplify"} <= set(out["trace"]["self_ms"])
    assert trace.read_text().count("\n") > 0
