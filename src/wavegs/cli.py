"""Batch front-end: validate a JSON run configuration, dispatch, write artifacts.

Subcommands mirror the tasks: solve, gram, dalembert, series.
``validate_config`` decides every refusal and warning, a task's runner only
computes, and ``run`` alone writes: a config error leaves no output directory,
a refusal only result.json.  Every result.json embeds its configuration as
given, every default filled in (it re-runs as written), the tool version and the
seed; two runs with the same config and seed differ only in the timestamp field.

Exit codes: 0 success, 2 config error, 3 solver non-convergence,
4 refused (a hypothesis check failed for the requested task).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .catalog import DomainSpec, OperatorSpec, SpectralCatalog, build_catalog
from .control import (RasterSet, dalembert_split, kernel_gram, rectangle_margin,
                      slice_profiles, xi_eta_infimum)
from .embedding import compactness_threshold, sphere_embedding_series, torus_gap_series
from .energy import EnergyContext, NonlinearitySpec
from .fields import (ProductGrid, SpectralField, WeightField, field_to_csv, synthesize,
                     weight_rectangle)
from .saddle import NoCoerciveDirectionError, SolverConfig, ground_state

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NO_CONVERGENCE = 3
EXIT_REFUSED = 4


class ConfigError(ValueError):
    pass


# what a malformed config value raises in the library code that reads it
_MALFORMED = (ValueError, TypeError, OverflowError)


# The input schema: each block's accepted keys and their defaults.  A dict value
# is a nested block; a block with kinds maps "kind" to one key table per kind,
# the first kind being the default.  ``...`` marks a required key, and None a key
# with no default, which is left out unless given.
_SCHEMA = {
    "task": ...,
    "domain": {"kind": {"circle": {}, "torus": {"dim": 1}, "sphere": {"dim": 2}}},
    "operator": {"power": None, "klein_gordon": None, "coefficients": None},
    "cutoffs": {"k_max": 8, "l_max": 8},
    "nonlinearity": {"terms": [[1.0, 4.0]]},
    "weight": {"kind": {
        "constant": {"value": 1.0},
        "rectangle": {"x": ..., "t": ..., "inside": 1.0, "outside": 0.0, "smoothing": 0.1},
        "grid_file": {"path": ...},
    }},
    "grid": {"oversample": 2},
    "solver": {"starts": SolverConfig.n_starts, "tol_outer": SolverConfig.tol_outer},
    "series": {"p": None, "cutoff": 48, "j_cut": 64, "l_cut": 10000},
    "raster": {"resolution": 256, "set": {"kind": {
        "weight_support": {"threshold": 0.0},
        "rectangle": {"x": ..., "t": ...},
        "full": {},
    }}},
    "seed": 0,
    "out": "out",
}
_INTEGER_KEYS = {"k_max", "l_max", "starts", "resolution", "oversample", "cutoff", "j_cut",
                 "l_cut", "dim", "power", "seed"}
# the keys whose values may hold text (coefficients "1/2"; klein_gordon is checked as true)
_TEXT_KEYS = {"task", "kind", "path", "out", "coefficients", "klein_gordon"}


def _integer(value, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, (int, float)) or value != int(value):
        raise ConfigError(f"{where} must be an integer, got {value!r}")
    return int(value)


def _holds(value, kind) -> bool:
    """Whether a JSON value is a ``kind`` or a list holding one at any depth."""
    return isinstance(value, kind) or isinstance(value, list) and any(_holds(v, kind) for v in value)


def _fill(node, schema: dict, name: str) -> dict:
    """``node`` checked against its ``schema`` table, with every default filled in."""
    if not isinstance(node, dict):
        raise ConfigError(f"{name} must be a JSON object")
    if "kind" in schema:
        kinds = list(schema["kind"])
        if (kind := node.get("kind", kinds[0])) not in kinds:
            raise ConfigError(f"unknown {name} kind {kind!r}; accepted: {kinds}")
        schema = {"kind": kind, **schema["kind"][kind]}
    if unknown := sorted(set(node) - set(schema)):
        raise ConfigError(f"unknown {name} key(s) {unknown}; accepted: {list(schema)}")
    if missing := [key for key, default in schema.items() if default is ... and key not in node]:
        raise ConfigError(f"missing {name} key(s) {missing}")
    filled = {}
    for key, default in schema.items():
        if isinstance(default, dict):
            filled[key] = _fill(node.get(key, {}), default,
                                key if name == "config" else f"{name}.{key}")
        elif key in node or default is not None:
            value = node.get(key, default)
            filled[key] = _integer(value, f"{name} {key}") if key in _INTEGER_KEYS else value
            if key != "klein_gordon" and _holds(value, bool):
                raise ConfigError(f"{name} {key} takes no boolean, got {json.dumps(value)}")
            if key not in _TEXT_KEYS and _holds(value, str):
                raise ConfigError(f"{name} {key} takes no string, got {json.dumps(value)}")
    return filled


def _read_text(path: Path) -> str:
    """An input file's text; a file that cannot be read as UTF-8 is a config error."""
    try:
        return path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc


def _read_json(path: Path):
    """Parse a JSON input file; NaN, Infinity and numbers that overflow are config errors."""
    def finite(text: str) -> float:
        if not math.isfinite(value := float(text)):
            raise ConfigError(f"{path}: non-finite number {text}")
        return value

    try:
        return json.loads(_read_text(path), parse_float=finite, parse_constant=finite)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from exc


@dataclass
class RunConfig:
    # the input as _fill returns it, with the --seed and --out overrides applied
    blocks: dict
    domain: DomainSpec
    operator: OperatorSpec
    nonlinearity: NonlinearitySpec
    solver: SolverConfig
    p: float  # the exponent the task runs at: a series task's own p if given
    warnings: list = field(default_factory=list)
    refusal: str | None = None

    def resolved(self) -> dict:
        """The config that result.json embeds: every block but the output directory."""
        return {key: value for key, value in self.blocks.items() if key != "out"}


def _parse_operator(node: dict, domain: DomainSpec) -> OperatorSpec:
    if len(node) != 1:
        raise ConfigError("operator takes exactly one of 'power', 'klein_gordon' or 'coefficients'")
    ((form, value),) = node.items()
    if form == "power":
        return OperatorSpec.laplacian_power(value)
    if form == "coefficients":
        return OperatorSpec(value)
    if value is not True:
        raise ConfigError(f"operator klein_gordon must be true, got {value!r}")
    return OperatorSpec.klein_gordon(domain.dim)


def _build_weight(spec: dict, grid: ProductGrid) -> WeightField:
    if spec["kind"] == "constant":
        return WeightField.constant(grid, float(spec["value"]))
    if spec["kind"] == "rectangle":
        return weight_rectangle(grid, tuple(spec["x"]), tuple(spec["t"]), inside=float(spec["inside"]),
                                outside=float(spec["outside"]), smoothing=float(spec["smoothing"]))
    path = Path(spec["path"])  # grid_file
    if path.suffix == ".json":
        if _holds(values := _read_json(path), (bool, str)):
            raise ConfigError(f"{path}: weight values must be numbers, not booleans or strings")
        values = np.asarray(values, dtype=float).ravel()
    else:
        values = np.loadtxt(_read_text(path).splitlines(), delimiter=",").ravel()
    return WeightField(grid, values)  # which rejects negative and non-finite values


def validate_config(path, overrides: dict | None = None) -> RunConfig:
    """Parse, fill defaults, enforce invariants; warnings never block diagnostics."""
    blocks = {**_fill(_read_json(Path(path)), _SCHEMA, "config"), **(overrides or {})}
    task, seed, dom = blocks["task"], blocks["seed"], blocks["domain"]
    if task not in TASKS:
        raise ConfigError(f"task must be one of {TASKS}, got {task!r}")
    try:
        domain = DomainSpec.circle() if dom["kind"] == "circle" else DomainSpec(dom["kind"], dom["dim"])
        nonlinearity = NonlinearitySpec(tuple((a, p) for a, p in blocks["nonlinearity"]["terms"]))
        series = blocks["series"]
        config = RunConfig(
            blocks, domain, _parse_operator(blocks["operator"], domain), nonlinearity,
            SolverConfig(float(blocks["solver"]["tol_outer"]), blocks["solver"]["starts"], seed),
            float(series["p"]) if task == "series" and "p" in series else nonlinearity.p,
        )
    except _MALFORMED as exc:
        raise ConfigError(str(exc)) from exc

    operator, p = config.operator, config.p
    p_star = compactness_threshold(domain, operator)
    if p_star is not None and p >= p_star:
        config.warnings.append(f"p = {p} is at or above the compactness threshold p* = {p_star}; "
                               "ground-state existence is not covered")
    # the classical wave on T^N, N >= 2: the mode family k = (l, 1, 0, ...) has gap 1
    bounded_gap = domain.kind == "torus" and domain.dim >= 2 and operator.power_degree == 1
    if task == "solve" and bounded_gap:
        config.refusal = (
            "compact embedding fails for the classical wave on higher tori "
            "(bounded-gap mode family); solve refused, diagnostics still allowed"
        )
    if task in ("solve", "gram") and domain.kind == "sphere":
        config.refusal = f"the {task} task needs a grid, and spheres carry none (series only)"
    if task == "dalembert" and not (domain.is_circle and operator.power_degree == 1):
        config.refusal = "d'Alembert diagnostics need the classical wave on the circle"
    # p* is None where no series criterion applies, bar the witness of the classical wave
    mass_shift = domain.kind == "sphere" and operator == OperatorSpec.klein_gordon(domain.dim)
    if task == "series" and (p_star is None and not bounded_gap or mass_shift and domain.dim % 2 == 0):
        config.refusal = ("no series criterion covers this operator on this domain: the series needs "
                          "(-Laplace)^m with m even or N = 1, the classical wave on T^N (its witness), "
                          "or the mass shift on S^N with N odd")
    smoothing = blocks["weight"].get("smoothing")  # a rectangle weight's ramp width
    if task in ("solve", "gram", "dalembert") and config.refusal is None and smoothing == 0:
        config.warnings.append("pure indicator weight: quadrature of q f(u) may be under-resolved")
    return config


def _discretize(config: RunConfig) -> tuple[SpectralCatalog, ProductGrid, WeightField]:
    """The catalog, grid and weight that the solve, gram and dalembert tasks share."""
    cutoffs = config.blocks["cutoffs"]
    catalog = build_catalog(config.domain, config.operator, cutoffs["k_max"], cutoffs["l_max"])
    grid = ProductGrid.for_catalog(catalog, config.blocks["grid"]["oversample"])
    return catalog, grid, _build_weight(config.blocks["weight"], grid)


# a runner's exit code, result block and other artifacts: {file name: writer(path)}
Outcome = tuple[int, dict, dict]


def _csv(columns, header: str):
    return lambda path: np.savetxt(path, np.column_stack(columns), delimiter=",", header=header,
                                   comments="")


def _run_solve(config: RunConfig) -> Outcome:
    catalog, grid, weight = _discretize(config)
    ctx = EnergyContext(catalog, grid, weight, config.nonlinearity)
    try:
        result = ground_state(ctx, config.solver)
    except NoCoerciveDirectionError as exc:  # every start dropped: its records and counts
        result = exc
    writers = {"solver_log.jsonl": lambda path: path.write_text(
        "".join(json.dumps(rec, sort_keys=True, allow_nan=False) + "\n" for rec in result.history))}
    counts = {"transforms": result.transforms, "inner_iters": result.inner_iters}
    if isinstance(result, NoCoerciveDirectionError):
        return EXIT_NO_CONVERGENCE, {"error": str(result), **counts}, writers

    writers["coefficients.json"] = lambda path: path.write_text(
        json.dumps(result.u_star.to_json(), sort_keys=True, allow_nan=False))
    writers["field.csv"] = lambda path: field_to_csv(result.u_star, grid, path)
    payload = {
        "energy": result.energy,
        "s_w": result.s_w,
        "residual": result.residual,
        "converged": result.converged,
        "message": result.message,
        "quadrature_gap": result.quadrature_gap,
        "kernel_gram": result.kernel_report.to_json(),
        "outer_records": len(result.history),
        **counts,
    }
    return EXIT_OK if result.converged else EXIT_NO_CONVERGENCE, payload, writers


def _run_gram(config: RunConfig) -> Outcome:
    catalog, grid, weight = _discretize(config)
    return EXIT_OK, {"gram": kernel_gram(weight, catalog, grid).to_json()}, {}


def _raster_from_config(config: RunConfig, grid, weight) -> RasterSet:
    resolution, setspec = config.blocks["raster"]["resolution"], config.blocks["raster"]["set"]
    if setspec["kind"] == "rectangle":
        return RasterSet.rectangle(tuple(setspec["x"]), tuple(setspec["t"]), resolution)
    if setspec["kind"] == "full":
        return RasterSet.full(resolution)
    return RasterSet.from_weight(weight, float(setspec["threshold"]), resolution)


def _run_dalembert(config: RunConfig) -> Outcome:
    catalog, grid, weight = _discretize(config)
    omega = _raster_from_config(config, grid, weight)
    inf_a, inf_b = xi_eta_infimum(omega)
    offsets, meas_a, meas_b = slice_profiles(omega)
    payload: dict = {"inf_A": inf_a, "inf_B": inf_b, "resolution": omega.resolution}
    setspec = config.blocks["raster"]["set"]
    if setspec["kind"] == "rectangle":
        payload["rectangle_margin"] = rectangle_margin(*setspec["x"], *setspec["t"])

    # split demo: a seeded random kernel field, reconstruction checked on the grid
    rng = np.random.default_rng(config.blocks["seed"])
    coeffs = np.zeros(catalog.size)
    coeffs[catalog.zero_idx] = rng.standard_normal(catalog.kernel_dim())
    u0 = SpectralField(catalog, coeffs)
    phi, psi = dalembert_split(u0)
    xs, ts = grid.meshgrid()
    recon = phi(xs + ts) + psi(xs - ts)
    err = float(np.max(np.abs(recon - synthesize(u0, grid))))
    payload["split_reconstruction_error"] = err
    s = np.linspace(0.0, 2 * np.pi, 257)[:-1]
    return EXIT_OK, payload, {
        "slices.csv": _csv([offsets, meas_a, meas_b], "offset,measure_A,measure_B"),
        "profiles.csv": _csv([s, phi(s), psi(s)], "s,phi,psi"),
    }


def _run_series(config: RunConfig) -> Outcome:
    node, p = config.blocks["series"], config.p
    if config.domain.kind == "torus":
        report = torus_gap_series(config.domain.dim, config.operator.power_degree, p, node["cutoff"])
    else:
        kg = config.operator == OperatorSpec.klein_gordon(config.domain.dim)
        m = 1 if kg else config.operator.power_degree
        report = sphere_embedding_series(config.domain.dim, m, p, node["j_cut"], node["l_cut"],
                                         "klein_gordon" if kg else "power")
    return EXIT_OK, {"series": report.to_json()}, {"series_terms.csv": report.terms_to_csv}


_RUNNERS = {
    "solve": _run_solve,
    "gram": _run_gram,
    "dalembert": _run_dalembert,
    "series": _run_series,
}
TASKS = tuple(_RUNNERS)


def run(config: RunConfig) -> int:
    """Run a validated config; once it is done, write its artifacts to its ``out`` directory."""
    for msg in config.warnings:
        print(f"warning: {msg}", file=sys.stderr)
    if config.refusal is not None:
        print(f"refused: {config.refusal}", file=sys.stderr)
        code, payload, writers = EXIT_REFUSED, {"error": config.refusal}, {}
    else:
        try:
            code, payload, writers = _RUNNERS[config.blocks["task"]](config)
        except ConfigError:
            raise
        except _MALFORMED as exc:  # grid files, weight and raster shapes and series limits
            raise ConfigError(str(exc)) from exc
    out = Path(config.blocks["out"])
    out.mkdir(parents=True, exist_ok=True)
    for name, write in writers.items():
        write(out / name)
    doc = {"version": __version__, "task": config.blocks["task"], "seed": config.blocks["seed"],
           "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"), "config": config.resolved(),
           "warnings": config.warnings, "result": payload}
    (out / "result.json").write_text(json.dumps(doc, sort_keys=True, indent=2, allow_nan=False))
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="wavegs",
        description="Ground states and hypothesis diagnostics for periodic nonlinear waves",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in TASKS:
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=True)
        sp.add_argument("--out", default=None)
        sp.add_argument("--seed", type=int, default=None)
    args = parser.parse_args(argv)

    overrides = {k: v for k in ("out", "seed") if (v := getattr(args, k)) is not None}
    try:
        config = validate_config(args.config, overrides)
        if (task := config.blocks["task"]) != args.command:
            raise ConfigError(f"config task {task!r} does not match subcommand {args.command!r}")
        return run(config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
