"""Smoke test of the benchmark itself, at the tiny ``--quick`` sizes (about a minute).

    python3 wavebench/smoke.py

For every workload it runs the real command once untraced and twice traced
and asserts that:
- the last stdout line has exactly the keys correct/attempted/failed/metrics;
- every metric that BENCHMARK.json declares is emitted, finite, in its unit;
- every operation passes its correctness checks;
- every recorded span lies inside its parent span;
- the count metrics of the two traced runs, made with the same seed, agree exactly.
It also checks that a copy holding only BENCHMARK.json and the benchmark's own
directories exits non-zero without printing a result.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 5


def bench(args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "wavebench/run.py", *args], cwd=cwd,
                          stdout=subprocess.PIPE, text=True, timeout=170)
    return proc.returncode, proc.stdout.strip().splitlines()


def run(workload, trace):
    code, lines = bench(["--workload", workload, "--seed", str(SEED), "--seconds", "1",
                         "--trace", str(trace), "--quick"])
    assert code == 0, f"{workload} trace {trace}: exit code {code}"
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, result
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared], workload
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and math.isfinite(got["value"]), (m, got)
    return result


def check_spans(workload):
    data = np.load(HERE / "out" / f"{workload}-seed{SEED}-spans.npz")
    parent, start, end = data["parent"], data["start"], data["end"]
    assert len(start) > 0, workload
    assert spans.nesting_violations(parent, start, end) == 0, f"{workload}: span outside parent"
    assert np.all(parent < np.arange(len(parent))), f"{workload}: parent recorded after child"


def check_bare_copy():
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("out"))
        code, lines = bench(["--workload", "circle-beam", "--seed", "0", "--seconds", "1",
                             "--trace", "0"], cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert code != 0, "the bare copy exited with code 0"
    assert not any(line.startswith("{") for line in lines), "the bare copy printed a result"


def main():
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for w in SPEC["workloads"]:
        name = w["name"]
        run(name, 0)
        first = run(name, 1)
        check_spans(name)
        second = run(name, 1)
        for key, unit in units.items():
            if unit == "count":
                a, b = first["metrics"][key]["value"], second["metrics"][key]["value"]
                assert a == b, f"{name}: {key} differs between traced runs ({a} != {b})"
        print(f"ok {name}")
    check_bare_copy()
    print("ok bare copy fails")


if __name__ == "__main__":
    main()
