import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import wavegs
from wavegs.cli import (
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_REFUSED,
    ConfigError,
    main,
    run,
    validate_config,
)


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def toy_solve_doc(out):
    return {
        "task": "solve",
        "domain": {"kind": "circle"},
        "operator": {"coefficients": [1, 1]},
        "cutoffs": {"k_max": 0, "l_max": 0},
        "nonlinearity": {"terms": [[1.0, 4.0]]},
        "weight": {"kind": "constant", "value": 1.0},
        "grid": {"nx": 4, "nt": 4},
        "solver": {"starts": 1},
        "seed": 3,
        "out": str(out),
    }


def test_validate_minimal_solve(tmp_path):
    doc = {
        "task": "solve",
        "domain": {"kind": "circle"},
        "operator": {"power": 2},
        "nonlinearity": {"terms": [[1.0, 4.0]]},
    }
    cfg = validate_config(write_config(tmp_path, doc))
    assert cfg.k_max == 8 and cfg.l_max == 8  # defaults filled
    assert cfg.refusal is None
    assert cfg.warnings == []
    echo = cfg.resolved()
    assert echo["solver"]["tol_outer"] > 0


def test_result_solver_block_is_pinned(tmp_path):
    # the resolved solver block is the input schema (the seed is top-level,
    # with the --seed override applied), written byte for byte into result.json
    doc = toy_solve_doc(tmp_path / "run")
    doc["solver"] = {"starts": 2}
    path = write_config(tmp_path, doc)
    cfg = validate_config(path, {"seed": 11})
    assert list(cfg.resolved()["solver"].items()) == [("starts", 2), ("tol_outer", 1e-6)]
    assert cfg.resolved()["seed"] == cfg.solver.seed == 11
    assert main(["solve", "--config", str(path), "--seed", "11"]) == EXIT_OK
    text = (tmp_path / "run" / "result.json").read_text()
    block = (
        '"solver": {\n'
        '      "starts": 2,\n'
        '      "tol_outer": 1e-06\n'
        "    }"
    )
    assert block in text


def test_validate_warns_above_threshold(tmp_path):
    doc = {
        "task": "solve",
        "domain": {"kind": "torus", "dim": 3},
        "operator": {"power": 2},
        "nonlinearity": {"terms": [[1.0, 7.0]]},  # p* = 2N/(N-m) = 6
    }
    cfg = validate_config(write_config(tmp_path, doc))
    assert any("threshold" in w for w in cfg.warnings)
    assert cfg.refusal is None


def test_validate_refuses_wave_on_higher_torus(tmp_path):
    doc = {
        "task": "solve",
        "domain": {"kind": "torus", "dim": 2},
        "operator": {"power": 1},
        "out": str(tmp_path / "o"),
    }
    cfg = validate_config(write_config(tmp_path, doc))
    assert cfg.refusal is not None
    assert run(cfg) == EXIT_REFUSED
    saved = json.loads((tmp_path / "o" / "result.json").read_text())
    assert "error" in saved["result"]


def test_validate_rejects_negative_grid_weight(tmp_path):
    qpath = tmp_path / "q.csv"
    np.savetxt(qpath, -np.ones((4, 4)), delimiter=",")
    doc = toy_solve_doc(tmp_path / "o")
    doc["weight"] = {"kind": "grid_file", "path": str(qpath)}
    cfg = validate_config(write_config(tmp_path, doc))
    with pytest.raises(ConfigError):
        run(cfg)


@pytest.mark.parametrize("name, value", [("q.csv", math.nan), ("q.json", math.nan),
                                         ("q.json", math.inf)])
def test_non_finite_grid_file_is_a_config_error(tmp_path, capsys, name, value):
    values = np.ones(16)
    values[5] = value
    qpath = tmp_path / name
    if qpath.suffix == ".json":
        qpath.write_text(json.dumps(values.tolist()))  # writes the NaN / Infinity literal
    else:
        np.savetxt(qpath, values.reshape(4, 4), delimiter=",")
    doc = toy_solve_doc(tmp_path / "o")
    doc["weight"] = {"kind": "grid_file", "path": str(qpath)}
    assert main(["solve", "--config", str(write_config(tmp_path, doc))]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "finite" in err
    assert not (tmp_path / "o").exists()


def test_validate_rejects_garbage(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        validate_config(bad)
    with pytest.raises(ConfigError):
        validate_config(tmp_path / "missing.json")
    with pytest.raises(ConfigError):
        validate_config(write_config(tmp_path, {"task": "fly"}))
    with pytest.raises(ConfigError):  # the top level must be an object
        validate_config(write_config(tmp_path, [{"task": "solve"}], "list.json"))


def test_solve_toy_writes_artifacts(tmp_path):
    out = tmp_path / "run"
    code = main(["solve", "--config", str(write_config(tmp_path, toy_solve_doc(out)))])
    assert code == EXIT_OK
    doc = json.loads((out / "result.json").read_text())
    assert doc["result"]["energy"] == pytest.approx(np.pi**2, abs=1e-6)
    assert doc["result"]["converged"] is True
    assert (out / "coefficients.json").exists()
    assert (out / "field.csv").exists()
    records = [json.loads(line) for line in (out / "solver_log.jsonl").read_text().splitlines()]
    assert all("start" in r for r in records)
    assert records[-1]["stop"] == "converged"


def test_gram_task(tmp_path):
    out = tmp_path / "g"
    doc = {
        "task": "gram",
        "domain": {"kind": "circle"},
        "operator": {"power": 1},
        "cutoffs": {"k_max": 4, "l_max": 4},
        "weight": {"kind": "constant", "value": 1.0},
        "out": str(out),
    }
    assert main(["gram", "--config", str(write_config(tmp_path, doc))]) == EXIT_OK
    saved = json.loads((out / "result.json").read_text())
    assert saved["result"]["gram"]["eig_min"] == pytest.approx(1.0, abs=1e-10)


def test_series_task_witness_divergence(tmp_path):
    out = tmp_path / "s"
    doc = {
        "task": "series",
        "domain": {"kind": "torus", "dim": 2},
        "operator": {"power": 1},
        "series": {"p": 3.0},
        "out": str(out),
    }
    assert main(["series", "--config", str(write_config(tmp_path, doc))]) == EXIT_OK
    saved = json.loads((out / "result.json").read_text())
    assert saved["result"]["series"]["verdict"] == "diverges"
    assert saved["result"]["series"]["witness"]
    assert saved["result"]["series"]["p_star"] is None  # no threshold applies


def test_series_task_klein_gordon(tmp_path):
    out = tmp_path / "kg"
    doc = {
        "task": "series",
        "domain": {"kind": "sphere", "dim": 3},
        "operator": {"klein_gordon": True},
        "series": {"p": 3.0, "j_cut": 32, "l_cut": 4000},
        "out": str(out),
    }
    assert main(["series", "--config", str(write_config(tmp_path, doc))]) == EXIT_OK
    saved = json.loads((out / "result.json").read_text())
    assert saved["result"]["series"]["verdict"] == "converges"
    assert (out / "series_terms.csv").exists()


def test_series_task_on_the_circle_sphere(tmp_path):
    # on S^1 the power-1 operator is the mass shift (its shift is 0); every p is covered
    out = tmp_path / "s1"
    doc = {
        "task": "series",
        "domain": {"kind": "sphere", "dim": 1},
        "operator": {"power": 1},
        "series": {"p": 3.0, "j_cut": 16, "l_cut": 500},
        "out": str(out),
    }
    assert main(["series", "--config", str(write_config(tmp_path, doc))]) == EXIT_OK
    saved = json.loads((out / "result.json").read_text())
    assert saved["result"]["series"]["p_star"] == "inf"
    assert saved["warnings"] == []


def test_witness_task_and_refusal(tmp_path):
    out = tmp_path / "w"
    doc = {
        "task": "witness",
        "domain": {"kind": "torus", "dim": 2},
        "operator": {"power": 1},
        "witness": {"count": 3},
        "out": str(out),
    }
    assert main(["witness", "--config", str(write_config(tmp_path, doc))]) == EXIT_OK
    saved = json.loads((out / "result.json").read_text())
    assert len(saved["result"]["witness"]) == 3

    doc["operator"] = {"power": 2}
    doc["out"] = str(tmp_path / "w2")
    assert main(["witness", "--config", str(write_config(tmp_path, doc, "c2.json"))]) == EXIT_REFUSED


def test_dalembert_task(tmp_path):
    out = tmp_path / "d"
    doc = {
        "task": "dalembert",
        "domain": {"kind": "circle"},
        "operator": {"power": 1},
        "cutoffs": {"k_max": 6, "l_max": 6},
        "weight": {"kind": "constant", "value": 1.0},
        "raster": {"resolution": 128, "set": {"kind": "rectangle",
                                              "x": [0.0, 4.712], "t": [0.0, 4.712]}},
        "out": str(out),
    }
    assert main(["dalembert", "--config", str(write_config(tmp_path, doc))]) == EXIT_OK
    saved = json.loads((out / "result.json").read_text())
    assert saved["result"]["inf_A"] > 0
    assert saved["result"]["rectangle_margin"] == pytest.approx(
        2 * 4.712 - 2 * np.pi, abs=1e-6
    )
    assert saved["result"]["split_reconstruction_error"] < 1e-10
    assert (out / "slices.csv").exists()
    assert (out / "profiles.csv").exists()


def test_dalembert_default_raster_below_the_solve_grid_size(tmp_path):
    # the default raster is the weight support at resolution 256, even when the
    # solve grid has fewer nodes per axis (36 at K = L = 8)
    out = tmp_path / "d"
    doc = {
        "task": "dalembert",
        "domain": {"kind": "circle"},
        "operator": {"power": 1},
        "cutoffs": {"k_max": 8, "l_max": 8},
        "weight": {"kind": "rectangle", "x": [0.0, 4.71], "t": [0.0, 6.2832],
                   "inside": 1.0, "outside": 0.0, "smoothing": 0.1},
        "out": str(out),
    }
    assert main(["dalembert", "--config", str(write_config(tmp_path, doc))]) == EXIT_OK
    saved = json.loads((out / "result.json").read_text())
    assert saved["result"]["resolution"] == 256
    assert saved["result"]["inf_A"] > 0


_WAVE = {"domain": {"kind": "circle"}, "operator": {"power": 1},
         "cutoffs": {"k_max": 4, "l_max": 4}}
# solver limits that are module constants now, and the old alias of "starts"
REMOVED_SOLVER_KEYS = [("tol_inner", 1e-8), ("max_inner", 4000), ("max_outer", 400),
                       ("divergence_norm", 1e6), ("eps_kernel", 1e-8), ("n_starts", 2)]


@pytest.mark.parametrize("doc", [
    {"task": "gram", "weight": {"kind": "rectangle", "t": [0.0, 1.0]}},
    {"task": "gram", "weight": {"kind": "rectangle", "x": 5, "t": [0.0, 1.0]}},
    {"task": "dalembert",
     "raster": {"resolution": 128, "set": {"kind": "rectangle", "x": [0.0, 1.0]}}},
    {"task": "series", "domain": {"kind": "torus", "dim": 2}, "series": {"cutoff": [1]}},
    # the first inner step is the constant 1, no longer a solver key
    {"task": "solve", "solver": {"step_inner0": 1.0}},
    *({"task": "solve", "solver": {key: value}} for key, value in REMOVED_SOLVER_KEYS),
    {"task": "solve", "cutofs": {"k_max": 4, "l_max": 4}},
    # json.dumps writes the NaN and Infinity literals that Python's json reads
    {"task": "solve", "solver": {"tol_outer": math.inf}},
    {"task": "solve", "solver": {"tol_outer": math.nan}},
    {"task": "solve", "solver": {"tol_outer": 1e999}},
    {"task": "gram", "weight": {"kind": "constant", "value": 10**400}},  # no float holds it
], ids=["weight-without-x", "weight-x-not-a-pair", "raster-without-t", "series-cutoff-list",
        "removed-solver-key",
        *(f"removed-solver-key-{key}" for key, _ in REMOVED_SOLVER_KEYS),
        "unknown-top-level-key", "tol-outer-infinity", "tol-outer-nan", "tol-outer-overflow",
        "weight-int-overflow"])
def test_malformed_task_blocks_are_config_errors(tmp_path, capsys, doc):
    doc = {**_WAVE, **doc, "out": str(tmp_path / "o")}
    assert main([doc["task"], "--config", str(write_config(tmp_path, doc))]) == EXIT_CONFIG
    assert "config error: " in capsys.readouterr().err


def test_warnings_found_while_running_reach_stderr(tmp_path, capsys):
    out = tmp_path / "g"
    doc = {**_WAVE, "task": "gram", "out": str(out),
           "weight": {"kind": "rectangle", "x": [0.0, 3.0], "t": [0.0, 3.0], "smoothing": 0}}
    assert main(["gram", "--config", str(write_config(tmp_path, doc))]) == EXIT_OK
    warnings = json.loads((out / "result.json").read_text())["warnings"]
    assert len(warnings) == 1 and warnings[0].startswith("pure indicator weight")
    err = capsys.readouterr().err.splitlines()
    assert err == [f"warning: {msg}" for msg in warnings]


def test_command_config_mismatch(tmp_path):
    path = write_config(tmp_path, toy_solve_doc(tmp_path / "x"))
    assert main(["gram", "--config", str(path)]) == EXIT_CONFIG


def test_determinism(tmp_path):
    cfg_path = write_config(tmp_path, toy_solve_doc(tmp_path / "a"))
    assert main(["solve", "--config", str(cfg_path), "--seed", "11"]) == EXIT_OK
    first = json.loads((tmp_path / "a" / "result.json").read_text())
    # the second run reads the config that the first run embedded, as written
    rerun = write_config(tmp_path, first["config"], "rerun.json")
    assert main(["solve", "--config", str(rerun), "--out", str(tmp_path / "b")]) == EXIT_OK
    second = json.loads((tmp_path / "b" / "result.json").read_text())
    first.pop("timestamp")
    second.pop("timestamp")
    assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)


def _fresh_python(*args):
    """Run ``python *args`` in a new process that imports wavegs from this tree."""
    src = str(Path(wavegs.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          timeout=120)


def test_importing_wavegs_loads_no_scipy():
    probe = ("import sys, wavegs, wavegs.cli; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    done = _fresh_python("-c", probe)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
    # -X importtime lists every module a run imports on stderr
    done = _fresh_python("-X", "importtime", "-m", "wavegs.cli", "--help")
    assert done.returncode == 0, done.stderr
    assert "usage" in done.stdout
    imported = [line.rsplit("|", 1)[-1].strip() for line in done.stderr.splitlines()
                if line.startswith("import time:")]
    assert "wavegs.saddle" in imported
    assert not [m for m in imported if m.split(".")[0] == "scipy"]


README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_block(lang):
    return README.read_text().split(f"```{lang}\n", 1)[1].split("```", 1)[0]


def test_readme_examples_run(tmp_path, capsys):
    # the README's JSON solve config validates with the values it shows, and
    # its resolved form is that config again (less the output directory)
    doc = json.loads(_readme_block("json"))
    cfg = validate_config(write_config(tmp_path, doc))
    assert (cfg.solver.n_starts, cfg.solver.tol_outer, cfg.seed) == (4, 1e-6, 0)
    assert (cfg.k_max, cfg.l_max, cfg.out) == (8, 8, Path(doc["out"]))
    assert cfg.warnings == [] and cfg.refusal is None
    resolved = cfg.resolved()
    assert {key: resolved[key] for key in doc if key != "out"} == {
        **{key: value for key, value in doc.items() if key != "out"},
        "domain": {"kind": "torus", "dim": 1},
        "operator": {"coefficients": [[0, 1], [0, 1], [1, 1]]},
    }
    # the library quick start runs as written
    namespace: dict = {}
    exec(_readme_block("python"), namespace)
    assert namespace["res"].converged
    assert capsys.readouterr().out.split()[-1] == "True"
