"""Checks on the benchmark itself.

    python3 -m pytest bench -q

Later changes may cite the traced counters as counts only while they
repeat exactly, and may call reports unchanged only while the digests
match; these tests pin both.  `--seconds 0` runs a single pass.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

DETERMINISTIC = (
    "linsolve.solve_sparse.rows",
    "linsolve.solve_sparse.cols",
    "linsolve.solve_sparse.nnz",
    "linsolve.solve_sparse.rank",
    "linsolve.solve_sparse.nullity",
    "polydiff.restricted_values.entries",
    "poly.Polynomial.__init__.calls",
    "polydiff.PolyDiffOp.apply.calls",
    "star.extend_one_order.columns",
)


def run(workload: str, seed: int, trace: int, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", str(trace)],
        capture_output=True, text=True, timeout=180, cwd=cwd,
    )
    return proc


def result(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    return json.loads(lines[-2])["detail"], json.loads(lines[-1])


def test_counters_and_digests_repeat():
    first, r1 = result(run("cli", 5, 1))
    second, r2 = result(run("cli", 5, 1))
    plain, r0 = result(run("cli", 5, 0))
    for r in (r1, r2, r0):
        assert r["correct"] and r["failed"] == 0
    for name in DETERMINISTIC:
        assert first["counters"][name] > 0, name
    assert first["counters"] == second["counters"]
    assert first["digest"] == first["untraced_digest"] == second["digest"] == plain["digest"]
    other, _ = result(run("cli", 6, 0))
    assert other["digest"] != plain["digest"]


def test_cli_mix_keeps_the_item_4_defects():
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    import workloads

    defects = {case.defect for case in workloads.build("cli", 5) if case.defect}
    assert {"poisson-not-list", "bounds-list", "dimension-float", "generators-string"} <= defects


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run("cli", 1, 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_layer_map_covers_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    layers = json.loads((BENCH / "layers.json").read_text())
    assert set(layers["workloads"]) == {w["name"] for w in spec["workloads"]}
    mapped = [name for entry in layers["per_layer_to_end_to_end"] for name in entry["per_layer"]]
    assert sorted(mapped) == sorted(m["name"] for m in spec["per_layer"])
    e2e = {m["name"] for m in spec["end_to_end"]}
    for entry in layers["per_layer_to_end_to_end"]:
        assert set(entry["moves"]) <= e2e
