import json
import math
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import wavegs
from wavegs.cli import (
    EXIT_CONFIG,
    EXIT_NO_CONVERGENCE,
    EXIT_OK,
    EXIT_REFUSED,
    TASKS,
    _SCHEMA,
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
        "grid": {"oversample": 2},
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
    assert cfg.blocks["cutoffs"] == {"k_max": 8, "l_max": 8}  # defaults filled
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


@pytest.mark.parametrize("series_p, terms, verdict", [(7, [[1.0, 4.0]], "diverges"),
                                                     (3, [[1.0, 7.0]], "converges")])
def test_series_warns_on_the_exponent_it_runs_at(tmp_path, series_p, terms, verdict):
    # the warning read the nonlinearity's p while the series ran at series.p
    out = tmp_path / "s"
    doc = {"task": "series", "domain": {"kind": "torus", "dim": 3}, "operator": {"power": 2},
           "nonlinearity": {"terms": terms}, "series": {"p": series_p, "cutoff": 16},
           "out": str(out)}  # p* = 6
    assert main(["series", "--config", str(write_config(tmp_path, doc))]) == EXIT_OK
    saved = json.loads((out / "result.json").read_text())
    assert saved["result"]["series"]["verdict"] == verdict
    above = [f"p = {float(series_p)} is at or above the compactness threshold p* = 6.0; "
             "ground-state existence is not covered"]
    assert saved["warnings"] == (above if series_p >= 6 else [])


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
    assert [path.name for path in (tmp_path / "o").iterdir()] == ["result.json"]


def test_validate_rejects_negative_grid_weight(tmp_path):
    qpath = tmp_path / "q.csv"
    np.savetxt(qpath, -np.ones((4, 4)), delimiter=",")
    doc = toy_solve_doc(tmp_path / "o")
    doc["weight"] = {"kind": "grid_file", "path": str(qpath)}
    cfg = validate_config(write_config(tmp_path, doc))
    with pytest.raises(ConfigError):
        run(cfg)
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("value", [True, "1"])
def test_a_grid_file_of_booleans_or_strings_is_a_config_error(tmp_path, capsys, value):
    # JSON true once ran as the weight 1.0, and "1" as the number it spells
    qpath = tmp_path / "q.json"
    qpath.write_text(json.dumps([value] * 16))
    doc = {**_WAVE, "task": "gram", "cutoffs": {"k_max": 1, "l_max": 1}, "grid": {"oversample": 1},
           "weight": {"kind": "grid_file", "path": str(qpath)}, "out": str(tmp_path / "o")}
    assert main(["gram", "--config", str(write_config(tmp_path, doc))]) == EXIT_CONFIG
    assert capsys.readouterr().err == (f"config error: {qpath}: weight values must be numbers, "
                                       "not booleans or strings\n")
    assert not (tmp_path / "o").exists()


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


def test_a_json_grid_file_weight_solves_as_its_csv_twin(tmp_path):
    # the README beam operator with a constant weight given as a file, 1 start
    cat = wavegs.build_catalog(wavegs.DomainSpec.circle(), wavegs.OperatorSpec.laplacian_power(2),
                               8, 8)
    values = np.ones(wavegs.ProductGrid.for_catalog(cat).shape)
    (tmp_path / "q.json").write_text(json.dumps(values.tolist()))
    np.savetxt(tmp_path / "q.csv", values, delimiter=",")
    energies = []
    for name in ("q.json", "q.csv"):
        doc = {**json.loads(_readme_block("json")), "solver": {"starts": 1},
               "weight": {"kind": "grid_file", "path": str(tmp_path / name)},
               "out": str(tmp_path / f"out-{name}")}
        assert main(["solve", "--config", str(write_config(tmp_path, doc))]) == EXIT_OK
        energies.append(json.loads((tmp_path / f"out-{name}" / "result.json").read_text())
                        ["result"]["energy"])
    assert energies == [6.561345600529661] * 2


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


@pytest.mark.parametrize("fault", ["grid-file-missing", "grid-file-directory",
                                   "config-directory", "config-not-utf8"])
def test_unreadable_input_files_are_config_errors(tmp_path, capsys, fault):
    # each of these once left the CLI with a traceback and exit 1
    doc = toy_solve_doc(tmp_path / "o")
    path = unreadable = tmp_path / "config.json"
    if fault.startswith("grid-file"):
        unreadable = tmp_path / "q.csv"
        if fault == "grid-file-directory":
            unreadable.mkdir()
        doc["weight"] = {"kind": "grid_file", "path": str(unreadable)}
        write_config(tmp_path, doc)
    elif fault == "config-directory":
        path.mkdir()
    else:
        path.write_bytes(json.dumps(doc).encode("utf-16"))
    assert main(["solve", "--config", str(path)]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith(f"config error: cannot read {unreadable}: ")
    assert not (tmp_path / "o").exists()


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
    # the one start's counts, plus the quadrature gap's transform of u*
    assert doc["result"]["inner_iters"] == records[-1]["start_inner_iters"]
    assert doc["result"]["transforms"] == records[-1]["start_transforms"] + 1


def test_a_solve_with_no_surviving_start_writes_its_log_and_counts(tmp_path):
    # the space-time classical wave at K = L = 16: the one start's cold ascent
    # stops at MAX_INNER, so the start is dropped and no solution is written
    doc = json.loads(_readme_block("json"))
    doc.update(operator={"power": 1}, cutoffs={"k_max": 16, "l_max": 16}, out=str(tmp_path / "o"))
    doc["weight"]["t"] = [0.0, 3.1416]
    doc["solver"]["starts"] = 1
    assert run(validate_config(write_config(tmp_path, doc))) == EXIT_NO_CONVERGENCE
    out = tmp_path / "o"
    assert sorted(p.name for p in out.iterdir()) == ["result.json", "solver_log.jsonl"]
    result = json.loads((out / "result.json").read_text())["result"]
    assert result["error"].startswith("no coercive direction detected")
    (record,) = [json.loads(line) for line in (out / "solver_log.jsonl").read_text().splitlines()]
    assert record["stop"] == record["event"] == "max_inner"
    assert result["transforms"] == record["start_transforms"] > 0
    assert result["inner_iters"] == record["start_inner_iters"] > 0


def test_a_nehari_height_that_overflows_is_a_diverged_solve(tmp_path, capsys):
    # the README beam at p = 2.01 and inside 1e-3 once ended "config error: math range error"
    doc = json.loads(_readme_block("json"))
    doc.update(nonlinearity={"terms": [[1, 2.01]]}, out=str(tmp_path / "o"))
    doc["weight"]["inside"] = 1e-3
    assert main(["solve", "--config", str(write_config(tmp_path, doc))]) == EXIT_NO_CONVERGENCE
    assert "config error" not in capsys.readouterr().err
    out = tmp_path / "o"
    assert sorted(p.name for p in out.iterdir()) == ["result.json", "solver_log.jsonl"]
    assert json.loads((out / "result.json").read_text())["result"]["error"].startswith(
        "no coercive direction detected")
    records = [json.loads(line) for line in (out / "solver_log.jsonl").read_text().splitlines()]
    assert [r["stop"] for r in records] == ["diverged"] * 4


def test_kernel_free_solve_writes_the_gram_tasks_block(tmp_path):
    # P(tau) = 1 + tau has no kernel: the solve reports the dim-0 q-Gram, as `gram` does
    solve = toy_solve_doc(tmp_path / "solve")
    gram = {**solve, "task": "gram", "out": str(tmp_path / "gram")}
    assert main(["solve", "--config", str(write_config(tmp_path, solve, "solve.json"))]) == EXIT_OK
    assert main(["gram", "--config", str(write_config(tmp_path, gram, "gram.json"))]) == EXIT_OK
    block = json.loads((tmp_path / "solve" / "result.json").read_text())["result"]["kernel_gram"]
    assert block == json.loads((tmp_path / "gram" / "result.json").read_text())["result"]["gram"]
    assert block["kernel_dim"] == 0


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


@pytest.mark.parametrize("domain, operator", [
    ({"kind": "torus", "dim": 2}, {"coefficients": [1, 1]}),
    ({"kind": "sphere", "dim": 2}, {"coefficients": [1, 1]}),
    ({"kind": "torus", "dim": 2}, {"power": 3}),
    ({"kind": "sphere", "dim": 3}, {"power": 1}),
    ({"kind": "sphere", "dim": 2}, {"klein_gordon": True}),
], ids=["torus-polynomial", "sphere-polynomial", "torus-odd-power", "sphere-odd-power",
        "mass-shift-even-dim"])
def test_series_without_a_criterion_is_refused(tmp_path, capsys, domain, operator):
    # each of these once ended as a config error, with no result.json
    error = ("no series criterion covers this operator on this domain: the series needs "
             "(-Laplace)^m with m even or N = 1, the classical wave on T^N (its witness), "
             "or the mass shift on S^N with N odd")
    out = tmp_path / "s"
    doc = {"task": "series", "domain": domain, "operator": operator,
           "series": {"p": 3.0, "cutoff": 4, "j_cut": 4, "l_cut": 50}, "out": str(out)}
    assert main(["series", "--config", str(write_config(tmp_path, doc))]) == EXIT_REFUSED
    assert json.loads((out / "result.json").read_text())["result"]["error"] == error
    assert capsys.readouterr().err == f"refused: {error}\n"
    assert [path.name for path in out.iterdir()] == ["result.json"]


def test_the_witness_task_is_gone(tmp_path, capsys):
    # the bounded-gap family is the series report's witness; a config that asks for the
    # old task is refused with the task message, and the subcommand is an argparse error
    doc = {"task": "witness", **_T2, "operator": {"power": 1}, "out": str(tmp_path / "o")}
    path = write_config(tmp_path, doc)
    with pytest.raises(ConfigError, match=re.escape(f"task must be one of {TASKS}, got 'witness'")):
        validate_config(path)
    with pytest.raises(SystemExit) as exit_:
        main(["witness", "--config", str(path)])
    assert exit_.value.code == EXIT_CONFIG
    assert "invalid choice: 'witness'" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_result_json_is_strict_json(tmp_path):
    # the series total of the classical wave on T^2 and the Gram constant of a weight that
    # vanishes on the kernel were once written as a bare Infinity, which RFC 8259 lacks
    def refuse(text):
        raise ValueError(f"non-finite {text}")

    docs = {"series": {"task": "series", **_T2, "operator": {"power": 1}, "series": {"p": 3}},
            "gram": {**_WAVE, "task": "gram", "weight": {"kind": "constant", "value": 0.0}}}
    results = {}
    for task, doc in docs.items():
        out = tmp_path / task
        path = write_config(tmp_path, {**doc, "out": str(out)}, f"{task}.json")
        assert main([task, "--config", str(path)]) == EXIT_OK
        results[task] = json.loads((out / "result.json").read_text(), parse_constant=refuse)
    assert results["series"]["result"]["series"]["total"] == "inf"
    assert results["gram"]["result"]["gram"]["constant"] == "inf"


@pytest.mark.parametrize("task", ["solve", "gram"])
def test_grid_tasks_are_refused_on_spheres(tmp_path, capsys, task):
    # a sphere gram once failed in its runner, as a config error with no output directory
    out = tmp_path / "s"
    doc = {"task": task, "domain": {"kind": "sphere", "dim": 2}, "operator": {"power": 2},
           "out": str(out)}
    assert main([task, "--config", str(write_config(tmp_path, doc))]) == EXIT_REFUSED
    error = json.loads((out / "result.json").read_text())["result"]["error"]
    assert error == f"the {task} task needs a grid, and spheres carry none (series only)"
    assert capsys.readouterr().err == f"refused: {error}\n"
    assert [path.name for path in out.iterdir()] == ["result.json"]


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


def test_dalembert_reads_a_raster_side_of_a_full_period_as_the_circle(tmp_path):
    # the README weight's spans: t covers the period, so the margin is the x side, 4.71
    out = tmp_path / "d"
    doc = {**_WAVE, "task": "dalembert", "out": str(out), "raster": {"resolution": 64, "set": {
        "kind": "rectangle", "x": [0.0, 4.71], "t": [0.0, 6.2832]}}}
    assert main(["dalembert", "--config", str(write_config(tmp_path, doc))]) == EXIT_OK
    result = json.loads((out / "result.json").read_text())["result"]
    assert result["rectangle_margin"] == pytest.approx(4.71, abs=1e-12)
    assert result["inf_A"] > 0 and result["inf_B"] > 0


def test_dalembert_on_the_full_raster_sees_the_whole_circle(tmp_path):
    # every xi and eta slice of the full box has measure 2 pi
    out = tmp_path / "d"
    doc = {**_WAVE, "task": "dalembert", "out": str(out),
           "raster": {"resolution": 64, "set": {"kind": "full"}}}
    assert main(["dalembert", "--config", str(write_config(tmp_path, doc))]) == EXIT_OK
    result = json.loads((out / "result.json").read_text())["result"]
    assert result["inf_A"] == pytest.approx(2 * np.pi, rel=1e-12)
    assert result["inf_B"] == pytest.approx(2 * np.pi, rel=1e-12)
    assert "rectangle_margin" not in result


@pytest.mark.parametrize("change", [{"operator": {"power": 2}},
                                    {"domain": {"kind": "torus", "dim": 2}}])
def test_dalembert_refuses_all_but_the_classical_wave_on_the_circle(tmp_path, capsys, change):
    out = tmp_path / "d"
    doc = {**_WAVE, "task": "dalembert", **change, "out": str(out)}
    assert main(["dalembert", "--config", str(write_config(tmp_path, doc))]) == EXIT_REFUSED
    error = json.loads((out / "result.json").read_text())["result"]["error"]
    assert error == "d'Alembert diagnostics need the classical wave on the circle"
    assert capsys.readouterr().err == f"refused: {error}\n"
    assert [path.name for path in out.iterdir()] == ["result.json"]


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
_T2 = {"domain": {"kind": "torus", "dim": 2}}
# id: (doc, the start of its error message); each of these once ran with a default
NAMED_FAULTS = {
    # a typo in any block
    "cutoffs-typo": ({"task": "solve", "cutoffs": {"kmax": 16}}, "unknown cutoffs key(s) ['kmax']"),
    "weight-typo": ({"task": "gram", "weight": {"kind": "constant", "valu": 2.0}},
                    "unknown weight key(s) ['valu']"),
    "raster-typo": ({"task": "dalembert", "raster": {"resolutoin": 64}},
                    "unknown raster key(s) ['resolutoin']"),
    "raster-set-typo": ({"task": "dalembert", "raster": {"set": {"kind": "full", "thresh": 0.5}}},
                        "unknown raster.set key(s) ['thresh']"),
    "series-typo": ({"task": "series", **_T2, "operator": {"power": 2}, "series": {"cutof": 8}},
                    "unknown series key(s) ['cutof']"),
    "domain-typo": ({"task": "solve", "domain": {"kind": "torus", "dimm": 2}},
                    "unknown domain key(s) ['dimm']"),
    "nonlinearity-extra-key": ({"task": "solve", "nonlinearity": {"terms": [[1.0, 4.0]], "p": 4}},
                               "unknown nonlinearity key(s) ['p']"),
    "circle-with-dim": ({"task": "solve", "domain": {"kind": "circle", "dim": 2}},
                        "unknown domain key(s) ['dim']"),
    "unknown-domain-kind": ({"task": "solve", "domain": {"kind": "ball"}}, "unknown domain kind"),
    # the grid is set by oversample alone, and the witness family is the series report's
    "grid-nx-without-nt": ({"task": "gram", "grid": {"nx": 40}}, "unknown grid key(s) ['nx']"),
    "dalembert-grid-too-coarse": ({"task": "dalembert", "cutoffs": {"k_max": 8, "l_max": 8},
                                   "grid": {"nx": 4, "nt": 4}}, "unknown grid key(s) ['nt', 'nx']"),
    "witness-block": ({"task": "series", **_T2, "witness": {"count": 5}},
                      "unknown config key(s) ['witness']"),
    "power-and-klein-gordon": ({"task": "solve", "operator": {"power": 2, "klein_gordon": True}},
                               "operator takes exactly one"),
    "operator-empty": ({"task": "solve", "operator": {}}, "operator takes exactly one"),
    "klein-gordon-false": ({"task": "solve", "operator": {"klein_gordon": False}},
                           "operator klein_gordon must be true"),
    "coefficients-string": ({"task": "solve", "operator": {"coefficients": "12"}},
                            "operator coefficients must be a list, got '12'"),
    # a float was read as its nearest rational of denominator <= 1e12: 1e-13 + tau as the
    # classical wave
    "coefficients-float-not-that-rational": (
        {"task": "solve", "operator": {"coefficients": [1e-13, 1]}},
        'float 1e-13 is not a rational of denominator <= 1e12; give it exactly as a "num/den" '
        "string or a [num, den] pair"),
    # Fraction(1, 0) ended the run with a ZeroDivisionError traceback
    "coefficients-zero-denominator": ({"task": "gram", "operator": {"coefficients": [[1, 0], 1]}},
                                      "rational [1, 0] has a zero denominator"),
    # a third span entry was dropped by the weight and crashed the raster
    "weight-x-three-entries": ({"task": "gram", "weight": {
        "kind": "rectangle", "x": [0.0, 1.0, 2.0], "t": [0.0, 1.0]}},
                               "rectangle x span must have two entries, got 3"),
    "raster-t-three-entries": ({"task": "dalembert", "raster": {"resolution": 64, "set": {
        "kind": "rectangle", "x": [0.0, 1.0], "t": [0.0, 1.0, 2.0]}}},
                               "rectangle t span must have two entries, got 3"),
    # integer keys take integers
    "k-max-fraction": ({"task": "solve", "cutoffs": {"k_max": 4.9, "l_max": 4}},
                       "cutoffs k_max must be an integer"),
    "k-max-bool": ({"task": "solve", "cutoffs": {"k_max": True, "l_max": 4}},
                   "cutoffs k_max must be an integer"),
    "starts-fraction": ({"task": "solve", "solver": {"starts": 1.5}},
                        "solver starts must be an integer"),
    "resolution-fraction": ({"task": "dalembert", "raster": {"resolution": 64.5}},
                            "raster resolution must be an integer"),
    "seed-fraction": ({"task": "solve", "seed": 1.5}, "config seed must be an integer"),
    # a negative seed reached numpy's generator, in a dalembert run after it wrote slices.csv
    "seed-negative-dalembert": ({"task": "dalembert", "seed": -1},
                                "seed must be non-negative, got -1"),
    "seed-negative-solve": ({"task": "solve", "seed": -1}, "seed must be non-negative, got -1"),
    "dim-fraction": ({"task": "series", "domain": {"kind": "torus", "dim": 2.5}},
                     "domain dim must be an integer"),
    # series truncations are checked by the embedding module
    "series-negative-cutoff": ({"task": "series", **_T2, "operator": {"power": 2},
                                "series": {"cutoff": -3}}, "cutoff must be >= 0"),
    "series-negative-j-cut": ({"task": "series", "domain": {"kind": "sphere", "dim": 2},
                               "operator": {"power": 2}, "series": {"j_cut": -2}},
                              "j_cut must be >= 0"),
    # a negative ramp width ran as a hard indicator, without the zero width's warning
    "smoothing-negative": ({"task": "gram", "weight": {
        "kind": "rectangle", "x": [0.0, 3.0], "t": [0.0, 3.0], "smoothing": -0.5}},
                           "smoothing must be non-negative"),
    # a boolean ran as the number 1.0
    "tol-outer-bool": ({"task": "solve", "solver": {"tol_outer": True}},
                       "solver tol_outer takes no boolean, got true"),
    "terms-bool": ({"task": "solve", "nonlinearity": {"terms": [[True, 4.0]]}},
                   "nonlinearity terms takes no boolean, got [[true, 4.0]]"),
    "weight-value-bool": ({"task": "gram", "weight": {"kind": "constant", "value": True}},
                          "weight value takes no boolean, got true"),
    # a string ran as the number float() reads from it
    "weight-value-string": ({"task": "gram", "weight": {"kind": "constant", "value": "2"}},
                            'weight value takes no string, got "2"'),
    "terms-string": ({"task": "solve", "nonlinearity": {"terms": [["1", "4"]]}},
                     'nonlinearity terms takes no string, got [["1", "4"]]'),
    "series-p-string": ({"task": "series", **_T2, "operator": {"power": 2}, "series": {"p": "3"}},
                        'series p takes no string, got "3"'),
    "tol-outer-string": ({"task": "solve", "solver": {"tol_outer": "1e-6"}},
                         'solver tol_outer takes no string, got "1e-6"'),
    # a raster rectangle that rectangle_margin refuses failed only after slices.csv was written
    "raster-rectangle-reversed": ({"task": "dalembert", "raster": {"resolution": 64, "set": {
        "kind": "rectangle", "x": [4.71, 0.0], "t": [0.0, 1.0]}}},
                                  "malformed rectangle: need a_i <= b_i"),
    # a reversed weight side ran as q = 0: every kernel direction below the floor, inf_A = 0
    "weight-rectangle-reversed-gram": ({"task": "gram", "weight": {
        "kind": "rectangle", "x": [4.71, 0.0], "t": [0.0, 6.2832]}},
        "malformed rectangle: need a_i <= b_i, but x spans [4.71, 0.0]"),
    "weight-rectangle-reversed-dalembert": ({"task": "dalembert", "weight": {
        "kind": "rectangle", "x": [0.0, 4.71], "t": [6.2832, 0.0]}, "raster": {"resolution": 64}},
                                            "malformed rectangle: need a_i <= b_i, but t spans"),
}


@pytest.mark.parametrize("doc, message", [*((doc, "") for doc in [
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
    # blocks that are not JSON objects
    {"task": "solve", "cutoffs": [8, 8]},
    {"task": "solve", "domain": "circle"},
    {"task": "solve", "operator": "power"},
    {"task": "series", "domain": {"kind": "torus", "dim": 2}, "series": []},
    {"task": "dalembert", "raster": []},
    {"task": "gram", "grid": []},
    {"task": "gram", "weight": []},
    {"task": "dalembert", "raster": {"set": "full"}},
]), *NAMED_FAULTS.values()],
    ids=["weight-without-x", "weight-x-not-a-pair", "raster-without-t", "series-cutoff-list",
         "removed-solver-key",
         *(f"removed-solver-key-{key}" for key, _ in REMOVED_SOLVER_KEYS),
         "unknown-top-level-key", "tol-outer-infinity", "tol-outer-nan", "tol-outer-overflow",
         "weight-int-overflow", "cutoffs-list", "domain-string", "operator-string", "series-list",
         "raster-list", "grid-list", "weight-list", "raster-set-string", *NAMED_FAULTS])
def test_malformed_task_blocks_are_config_errors(tmp_path, capsys, doc, message):
    doc = {**_WAVE, **doc, "out": str(tmp_path / "o")}
    assert main([doc["task"], "--config", str(write_config(tmp_path, doc))]) == EXIT_CONFIG
    assert f"config error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_a_block_that_is_not_an_object_is_named(tmp_path, capsys):
    # "power" in "power" is a substring test, so a string block once reached indexing
    doc = {**_WAVE, "task": "solve", "operator": "power", "out": str(tmp_path / "o")}
    assert main(["solve", "--config", str(write_config(tmp_path, doc))]) == EXIT_CONFIG
    assert capsys.readouterr().err == "config error: operator must be a JSON object\n"


def test_warnings_found_while_running_reach_stderr(tmp_path, capsys):
    out = tmp_path / "g"
    doc = {**_WAVE, "task": "gram", "out": str(out),
           "weight": {"kind": "rectangle", "x": [0.0, 3.0], "t": [0.0, 3.0], "smoothing": 0}}
    assert main(["gram", "--config", str(write_config(tmp_path, doc))]) == EXIT_OK
    warnings = json.loads((out / "result.json").read_text())["warnings"]
    assert len(warnings) == 1 and warnings[0].startswith("pure indicator weight")
    err = capsys.readouterr().err.splitlines()
    assert err == [f"warning: {msg}" for msg in warnings]


def test_a_negative_seed_override_is_a_config_error(tmp_path, capsys):
    path = write_config(tmp_path, toy_solve_doc(tmp_path / "o"))
    assert main(["solve", "--config", str(path), "--seed", "-1"]) == EXIT_CONFIG
    assert capsys.readouterr().err == "config error: seed must be non-negative, got -1\n"
    assert not (tmp_path / "o").exists()


def test_an_eigenvalue_float64_cannot_hold_is_a_config_error(tmp_path, capsys):
    # P(tau) = 1e-400 + tau: the |k| = |l| modes are plus, but their float eigenvalue
    # is 0.0; the solve once divided by it and reported non-finite coefficients
    doc = {**toy_solve_doc(tmp_path / "o"), "cutoffs": {"k_max": 2, "l_max": 2}}
    doc.update(operator={"coefficients": ["1/1" + "0" * 400, 1]}, grid={"oversample": 2})
    assert main(["solve", "--config", str(write_config(tmp_path, doc))]) == EXIT_CONFIG
    assert capsys.readouterr().err == (
        "config error: mode (space (-2,), l -2) has a nonzero eigenvalue below 2.23e-308 in "
        "magnitude, which float64 cannot hold\n")
    assert not (tmp_path / "o").exists()


def test_command_config_mismatch(tmp_path):
    path = write_config(tmp_path, toy_solve_doc(tmp_path / "x"))
    assert main(["gram", "--config", str(path)]) == EXIT_CONFIG
    assert not (tmp_path / "x").exists()


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


def _unfilled_keys(node, schema, where=""):
    """The keys with a default or required in ``schema`` that ``node`` lacks, nested too."""
    if "kind" in schema:
        schema = {"kind": node["kind"], **schema["kind"][node["kind"]]}
    missing = []
    for key, default in schema.items():
        if key not in node:
            missing += [] if default is None else [where + key]
        elif isinstance(default, dict):
            missing += _unfilled_keys(node[key], default, f"{where}{key}.")
    return missing


def _filled(node, schema):
    """``node`` with every default in ``schema`` added, nested blocks too."""
    if "kind" in schema:
        kind = node.get("kind", next(iter(schema["kind"])))
        schema = {"kind": kind, **schema["kind"][kind]}
    filled = dict(node)
    for key, default in schema.items():
        if isinstance(default, dict):
            filled[key] = _filled(node.get(key, {}), default)
        elif key not in node and default is not None and default is not ...:
            filled[key] = default
    return filled


def test_result_config_names_every_default(tmp_path):
    qpath = tmp_path / "q.csv"
    np.savetxt(qpath, np.ones((4, 4)), delimiter=",")
    docs = {
        # rationals as strings and [num, den] pairs are embedded as written
        "solve": {**toy_solve_doc(None), "operator": {"coefficients": ["2/2", [1, 1]]},
                  "weight": {"kind": "grid_file", "path": str(qpath)}},
        # integral numbers are integers: they run, and the config records them as such
        "gram": {**_WAVE, "cutoffs": {"k_max": 4.0, "l_max": 4},
                 "weight": {"kind": "rectangle", "x": [0.0, 3.0], "t": [0.0, 3.0]}},
        "dalembert": {**_WAVE, "raster": {"resolution": 64.0,
                                          "set": {"kind": "rectangle", "x": [0, 4], "t": [0, 4]}}},
        "series": {"domain": {"kind": "sphere", "dim": 3}, "operator": {"klein_gordon": True},
                   "series": {"p": 3.0, "j_cut": 8, "l_cut": 200}},
    }
    for task, doc in docs.items():
        out = tmp_path / task
        doc = {**doc, "task": task, "out": str(out)}
        assert main([task, "--config", str(write_config(tmp_path, doc, f"{task}.json"))]) == EXIT_OK
        first = json.loads((out / "result.json").read_text())
        config = first["config"]
        # every key but the output directory, which each run takes from --out
        assert _unfilled_keys(config, _SCHEMA) == ["out"], task
        # the input as written, the circle and the operator form included
        assert config == {k: v for k, v in _filled(doc, _SCHEMA).items() if k != "out"}, task
        rerun, out = write_config(tmp_path, config, f"{task}-rerun.json"), tmp_path / f"{task}-rerun"
        assert validate_config(rerun).resolved() == config, task
        assert main([task, "--config", str(rerun), "--out", str(out)]) == EXIT_OK
        second = json.loads((out / "result.json").read_text())
        assert second["result"] == first["result"], task
    saved = json.loads((tmp_path / "gram" / "result.json").read_text())["config"]
    assert saved["cutoffs"] == {"k_max": 4, "l_max": 4} and type(saved["cutoffs"]["k_max"]) is int
    assert saved["weight"]["smoothing"] == 0.1 and saved["raster"]["set"]["threshold"] == 0.0
    result = json.loads((tmp_path / "dalembert" / "result.json").read_text())["result"]
    assert result["resolution"] == 64


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


def test_solves_leave_numpy_ma_and_an_unused_numpy_random_unloaded(tmp_path):
    # np.unique imports numpy.ma (13.8 ms and 1.3 MB per process), which no
    # solve needs; a one-start solve draws no random start, so it need not
    # load numpy.random (2.4 MB)
    out = tmp_path / "out"
    path = write_config(tmp_path, {**json.loads(_readme_block("json")), "out": str(out)})
    one_start = _readme_block("python").replace("n_starts=3", "n_starts=1")
    assert one_start != _readme_block("python")
    probes = {
        "quick start": (_readme_block("python"), "numpy.ma"),
        "cli": ("from wavegs.cli import main; "
                f"assert main(['solve', '--config', {str(path)!r}]) == 0", "numpy.ma"),
        "one start": (one_start, "numpy.random"),
    }
    for name, (probe, module) in probes.items():
        done = _fresh_python("-c", probe + f"\nimport sys; print({module!r} in sys.modules)")
        assert done.returncode == 0, (name, done.stderr)
        assert done.stdout.split()[-1] == "False", name
    assert (out / "result.json").exists()


def _readme_block(lang):
    return README.read_text().split(f"```{lang}\n", 1)[1].split("```", 1)[0]


def test_readme_examples_run(tmp_path, capsys):
    # the README's JSON solve config validates with the values it shows, and
    # its resolved form is that config again (less the output directory)
    doc = json.loads(_readme_block("json"))
    cfg = validate_config(write_config(tmp_path, doc))
    assert (cfg.solver.n_starts, cfg.solver.tol_outer, cfg.solver.seed) == (4, 1e-6, 0)
    assert cfg.blocks["cutoffs"] == {"k_max": 8, "l_max": 8} and cfg.blocks["out"] == doc["out"]
    assert cfg.warnings == [] and cfg.refusal is None
    # the blocks a solve does not read are the only ones the README leaves to their defaults
    assert cfg.resolved() == {
        **{key: value for key, value in doc.items() if key != "out"},
        "series": {"cutoff": 48, "j_cut": 64, "l_cut": 10000},
        "raster": {"resolution": 256, "set": {"kind": "weight_support", "threshold": 0.0}},
    }
    # the library quick start runs as written
    namespace: dict = {}
    exec(_readme_block("python"), namespace)
    assert namespace["res"].converged
    assert capsys.readouterr().out.split()[-1] == "True"


def test_readme_command_list_is_the_cli_tasks():
    (block,) = [block.split("```", 1)[0] for block in README.read_text().split("```bash\n")[1:]
                if block.startswith("wavegs ")]
    commands = [line.split() for line in block.splitlines()]
    assert tuple(command[1] for command in commands) == TASKS
    assert all(command[2] == "--config" for command in commands)


def test_readme_api_list_is_what_wavegs_exports():
    section = README.read_text().split("\n## API\n", 1)[1].split("\n## ", 1)[0]
    listed = [name for row in section.splitlines() if row.startswith("| `wavegs.")
              for name in re.findall(r"`(\w+)`", row.split("|")[2])]
    exported = {name for name, value in vars(wavegs).items()
                if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert len(listed) == len(set(listed)) == 47
    assert set(listed) == exported
    assert f"exports these {len(listed)} names" in section
