"""The README's JSON solve config and the variants of it that the docs quote, run
through the CLI.

Every test edits the README's own config block, read once here, so a change to
the documented config shows in these results.  The energies are the circle-beam
and wave-kernel references of the benchmark and the solve ladder.
"""

import json
from pathlib import Path

import pytest

from wavegs.cli import EXIT_OK, main

README = Path(__file__).resolve().parents[1] / "README.md"
README_DOC = json.loads(README.read_text().split("```json\n", 1)[1].split("```", 1)[0])


def _run(tmp_path, name, **blocks):
    """Run the README config with ``blocks`` replacing its top-level blocks; result.json."""
    doc = {**README_DOC, **blocks, "out": str(tmp_path / name)}
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(doc))
    assert main([doc["task"], "--config", str(path)]) == EXIT_OK
    return json.loads((tmp_path / name / "result.json").read_text())


def test_the_readme_solve_reruns_from_the_config_it_embeds(tmp_path):
    a = _run(tmp_path, "a")
    rerun = tmp_path / "rerun.json"
    rerun.write_text(json.dumps(a["config"]))
    assert main(["solve", "--config", str(rerun), "--out", str(tmp_path / "b")]) == EXIT_OK
    b = json.loads((tmp_path / "b" / "result.json").read_text())
    assert a["result"] == b["result"]
    doc = {key: value for key, value in README_DOC.items() if key != "out"}
    assert {key: a["config"].get(key) for key in doc} == doc
    assert b["config"] == a["config"]
    for name in ("coefficients.json", "field.csv", "solver_log.jsonl"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes(), name
    assert abs(a["result"]["energy"] / 6.947093992690483 - 1) <= 1e-9


def test_the_classical_wave_at_k_l_16_keeps_the_wave_kernel_energy(tmp_path):
    saved = _run(tmp_path, "wave", operator={"power": 1}, cutoffs={"k_max": 16, "l_max": 16},
                 solver={**README_DOC["solver"], "starts": 1})
    assert abs(saved["result"]["energy"] / 6.591500120089954 - 1) <= 1e-9


@pytest.mark.parametrize("blocks", [
    {"weight": {**README_DOC["weight"], "inside": 1e6}},
    {"nonlinearity": {"terms": [[1.0, 3.0], [0.5, 5.0]]}},
], ids=["weight-times-1e6", "two-terms"])
def test_readme_variants_are_certified(tmp_path, blocks):
    _run(tmp_path, "variant", **blocks)


def test_the_readme_solve_on_t2_at_k_l_4_is_certified(tmp_path):
    saved = _run(tmp_path, "torus2", domain={"kind": "torus", "dim": 2},
                 cutoffs={"k_max": 4, "l_max": 4})
    assert saved["result"]["kernel_gram"]["kernel_dim"] == 25
    assert abs(saved["result"]["energy"] / 31.002392374244508 - 1) <= 1e-9


def test_the_readme_gram_on_t3_keeps_its_spectrum(tmp_path):
    gram = _run(tmp_path, "gram3", task="gram", domain={"kind": "torus", "dim": 3})["result"]["gram"]
    assert gram["kernel_dim"] == 185 and not gram["below_floor"]
    assert abs(gram["eig_min"] / 0.564686616121728 - 1) <= 1e-10
