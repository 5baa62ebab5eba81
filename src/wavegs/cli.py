"""Batch front-end: validate a JSON run configuration, dispatch, write artifacts.

Subcommands mirror the tasks: solve, gram, dalembert, series, witness.  Every
run writes a result.json embedding the resolved configuration in the input
schema (it re-runs as written), the tool version and the seed; two runs with
the same config and seed differ only in the timestamp field.

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
from .control import (
    RasterSet,
    dalembert_split,
    kernel_gram,
    rectangle_margin,
    slice_profiles,
    xi_eta_infimum,
)
from .embedding import (
    compactness_threshold,
    noncompact_witness,
    sphere_embedding_series,
    torus_gap_series,
)
from .energy import EnergyContext, NonlinearitySpec
from .fields import (
    ProductGrid,
    SpectralField,
    WeightField,
    field_to_csv,
    synthesize,
    weight_rectangle,
)
from .saddle import NoCoerciveDirectionError, SolverConfig, ground_state

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NO_CONVERGENCE = 3
EXIT_REFUSED = 4


class ConfigError(ValueError):
    pass


# what a malformed config block raises while it is parsed
_MALFORMED = (ValueError, KeyError, TypeError, OverflowError)


def _config_error(exc: Exception) -> ConfigError:
    return ConfigError(f"missing key {exc}" if isinstance(exc, KeyError) else str(exc))


def _reject_unknown_keys(node, allowed, where: str) -> None:
    if unknown := sorted(set(node) - set(allowed)):
        raise ConfigError(f"unknown {where} key(s) {unknown}; accepted: {list(allowed)}")


def _read_json(path: Path):
    """Parse a JSON input file; NaN, Infinity and numbers that overflow are config errors."""
    def finite(text: str) -> float:
        if not math.isfinite(value := float(text)):
            raise ConfigError(f"{path}: non-finite number {text}")
        return value

    return json.loads(path.read_text(), parse_float=finite, parse_constant=finite)


@dataclass
class RunConfig:
    task: str
    domain: DomainSpec
    operator: OperatorSpec
    k_max: int
    l_max: int
    nonlinearity: NonlinearitySpec
    weight_spec: dict
    grid_spec: dict
    solver: SolverConfig
    series: dict
    witness_count: int
    raster: dict
    seed: int
    out: Path
    warnings: list = field(default_factory=list)
    refusal: str | None = None

    def warn(self, msg: str) -> None:
        """Add a warning found while a task runs: to result.json and, at once, stderr."""
        self.warnings.append(msg)
        print(f"warning: {msg}", file=sys.stderr)

    def resolved(self) -> dict:
        return {
            "task": self.task,
            "domain": self.domain.to_json(),
            "operator": self.operator.to_json(),
            "cutoffs": {"k_max": self.k_max, "l_max": self.l_max},
            "nonlinearity": self.nonlinearity.to_json(),
            "weight": self.weight_spec,
            "grid": self.grid_spec,
            "solver": {"starts": self.solver.n_starts, "tol_outer": self.solver.tol_outer},
            "series": self.series,
            "witness": {"count": self.witness_count},
            "raster": self.raster,
            "seed": self.seed,
        }


def _parse_domain(node) -> DomainSpec:
    kind = node.get("kind", "circle")
    if kind == "circle":
        return DomainSpec.circle()
    # DomainSpec rejects every other kind
    return DomainSpec(kind, int(node.get("dim", 2 if kind == "sphere" else 1)))


def _parse_operator(node, domain) -> OperatorSpec:
    if "power" in node:
        return OperatorSpec.laplacian_power(int(node["power"]))
    if node.get("klein_gordon"):
        return OperatorSpec.klein_gordon(domain.dim)
    if "coefficients" in node:
        return OperatorSpec(tuple(node["coefficients"]))
    raise ConfigError("operator needs 'power', 'klein_gordon' or 'coefficients'")


def _build_weight(spec: dict, grid: ProductGrid, warn) -> WeightField:
    kind = spec.get("kind", "constant")
    if kind == "constant":
        return WeightField.constant(grid, float(spec.get("value", 1.0)))
    if kind == "rectangle":
        smoothing = float(spec.get("smoothing", 0.1))
        if smoothing == 0.0:
            warn("pure indicator weight: quadrature of q f(u) may be under-resolved")
        return weight_rectangle(
            grid,
            tuple(spec["x"]),
            tuple(spec["t"]),
            inside=float(spec.get("inside", 1.0)),
            outside=float(spec.get("outside", 0.0)),
            smoothing=smoothing,
        )
    if kind == "grid_file":
        path = Path(spec["path"])
        if path.suffix == ".json":
            values = np.asarray(_read_json(path), dtype=float).ravel()
        else:
            values = np.loadtxt(path, delimiter=",").ravel()
        return WeightField(grid, values)  # which rejects negative and non-finite values
    raise ConfigError(f"unknown weight kind {kind!r}")


def validate_config(path, overrides: dict | None = None) -> RunConfig:
    """Parse, fill defaults, enforce invariants; warnings never block diagnostics."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file {path} does not exist")
    try:
        raw = _read_json(path)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config parse failure: {exc}") from exc
    overrides = overrides or {}

    task = raw.get("task") if isinstance(raw, dict) else None
    if task not in TASKS:
        raise ConfigError(f"task must be one of {TASKS}, got {task!r}")
    warnings: list = []
    refusal = None

    try:
        seed = int(overrides.get("seed", raw.get("seed", 0)))
        domain = _parse_domain(raw.get("domain", {"kind": "circle"}))
        operator = _parse_operator(raw.get("operator", {"power": 1}), domain)
        cut = raw.get("cutoffs", {})
        k_max = int(cut.get("k_max", 8))
        l_max = int(cut.get("l_max", 8))
        nl_node = raw.get("nonlinearity", {"terms": [[1.0, 4.0]]})
        nonlinearity = NonlinearitySpec(tuple((a, p) for a, p in nl_node["terms"]))
        solver_node = raw.get("solver", {})
        _reject_unknown_keys(solver_node, ("starts", "tol_outer"), "solver")
        solver = SolverConfig(float(solver_node.get("tol_outer", SolverConfig.tol_outer)),
                              int(solver_node.get("starts", SolverConfig.n_starts)), seed)
    except _MALFORMED as exc:
        raise _config_error(exc) from exc

    p_star = compactness_threshold(domain, operator)
    if p_star is not None and nonlinearity.p >= p_star:
        warnings.append(
            f"p = {nonlinearity.p} is at or above the compactness threshold p* = {p_star}; "
            "ground-state existence is not covered"
        )

    if task == "solve":
        m = operator.power_degree
        if domain.kind == "torus" and domain.dim >= 2 and m == 1:
            refusal = (
                "compact embedding fails for the classical wave on higher tori "
                "(bounded-gap mode family); solve refused, diagnostics still allowed"
            )
        if domain.kind == "sphere":
            refusal = "sphere solves are out of scope (catalog and series diagnostics only)"

    out = Path(overrides.get("out", raw.get("out", "out")))

    config = RunConfig(
        task=task,
        domain=domain,
        operator=operator,
        k_max=k_max,
        l_max=l_max,
        nonlinearity=nonlinearity,
        weight_spec=raw.get("weight", {"kind": "constant", "value": 1.0}),
        grid_spec=raw.get("grid", {"oversample": 2}),
        solver=solver,
        series=raw.get("series", {}),
        witness_count=int(raw.get("witness", {}).get("count", 5)),
        raster=raw.get("raster", {"resolution": 256, "set": {"kind": "weight_support"}}),
        seed=seed,
        out=out,
        warnings=warnings,
        refusal=refusal,
    )
    # the accepted keys are the ones resolved() writes, which re-run as written
    _reject_unknown_keys(raw, [*config.resolved(), "out"], "config")
    return config


def _discretize(config: RunConfig) -> tuple[SpectralCatalog, ProductGrid, WeightField]:
    """The catalog, grid and weight that the solve, gram and dalembert tasks share."""
    catalog = build_catalog(config.domain, config.operator, config.k_max, config.l_max)
    node = config.grid_spec
    if "nx" in node and "nt" in node:
        grid = ProductGrid(catalog.domain.dim, int(node["nx"]), int(node["nt"]))
    else:
        grid = ProductGrid.for_catalog(catalog, int(node.get("oversample", 2)))
    return catalog, grid, _build_weight(config.weight_spec, grid, config.warn)


def _write_result(config: RunConfig, payload: dict) -> None:
    config.out.mkdir(parents=True, exist_ok=True)
    doc = {
        "version": __version__,
        "task": config.task,
        "seed": config.seed,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "config": config.resolved(),
        "warnings": config.warnings,
        "result": payload,
    }
    (config.out / "result.json").write_text(json.dumps(doc, sort_keys=True, indent=2))


def _run_solve(config: RunConfig) -> int:
    catalog, grid, weight = _discretize(config)
    ctx = EnergyContext(catalog, grid, weight, config.nonlinearity)
    try:
        result = ground_state(ctx, config.solver)
    except NoCoerciveDirectionError as exc:
        _write_result(config, {"error": str(exc)})
        return EXIT_NO_CONVERGENCE

    config.out.mkdir(parents=True, exist_ok=True)
    with open(config.out / "solver_log.jsonl", "w") as fh:
        for rec in result.history:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")
    (config.out / "coefficients.json").write_text(
        json.dumps(result.u_star.to_json(), sort_keys=True)
    )
    field_to_csv(result.u_star, grid, config.out / "field.csv")
    payload = {
        "energy": result.energy,
        "s_w": result.s_w,
        "residual": result.residual,
        "converged": result.converged,
        "message": result.message,
        "quadrature_gap": result.quadrature_gap,
        "kernel_gram": result.kernel_report.to_json() if result.kernel_report else None,
        "outer_records": len(result.history),
    }
    _write_result(config, payload)
    return EXIT_OK if result.converged else EXIT_NO_CONVERGENCE


def _run_gram(config: RunConfig) -> int:
    catalog, grid, weight = _discretize(config)
    _write_result(config, {"gram": kernel_gram(weight, catalog, grid).to_json()})
    return EXIT_OK


def _raster_from_config(config: RunConfig, grid, weight) -> RasterSet:
    node = config.raster
    resolution = int(node.get("resolution", 256))
    setspec = node.get("set", {"kind": "weight_support"})
    kind = setspec.get("kind", "weight_support")
    if kind == "rectangle":
        return RasterSet.rectangle(tuple(setspec["x"]), tuple(setspec["t"]), resolution)
    if kind == "full":
        return RasterSet.full(resolution)
    if kind == "weight_support":
        return RasterSet.from_weight(weight, float(setspec.get("threshold", 0.0)), resolution)
    raise ConfigError(f"unknown raster set kind {kind!r}")


def _run_dalembert(config: RunConfig) -> int:
    if not (config.domain.is_circle and config.operator.power_degree == 1):
        _write_result(config, {"error": "d'Alembert diagnostics need the classical wave on the circle"})
        return EXIT_REFUSED
    catalog, grid, weight = _discretize(config)
    omega = _raster_from_config(config, grid, weight)
    inf_a, inf_b = xi_eta_infimum(omega)
    offsets, meas_a, meas_b = slice_profiles(omega)
    config.out.mkdir(parents=True, exist_ok=True)
    np.savetxt(
        config.out / "slices.csv",
        np.column_stack([offsets, meas_a, meas_b]),
        delimiter=",",
        header="offset,measure_A,measure_B",
        comments="",
    )
    payload: dict = {"inf_A": inf_a, "inf_B": inf_b, "resolution": omega.resolution}
    setspec = config.raster.get("set", {})
    if setspec.get("kind") == "rectangle":
        x0, x1 = setspec["x"]
        t0, t1 = setspec["t"]
        payload["rectangle_margin"] = rectangle_margin(x0, x1, t0, t1)

    # split demo: a seeded random kernel field, reconstruction checked on the grid
    rng = np.random.default_rng(config.seed)
    coeffs = np.zeros(catalog.size)
    coeffs[catalog.zero_idx] = rng.standard_normal(catalog.kernel_dim())
    u0 = SpectralField(catalog, coeffs)
    phi, psi = dalembert_split(u0)
    xs, ts = np.meshgrid(grid.x_nodes, grid.t_nodes, indexing="ij")
    recon = phi(xs + ts) + psi(xs - ts)
    err = float(np.max(np.abs(recon.ravel() - synthesize(u0, grid))))
    payload["split_reconstruction_error"] = err
    s = np.linspace(0.0, 2 * np.pi, 257)[:-1]
    np.savetxt(
        config.out / "profiles.csv",
        np.column_stack([s, phi(s), psi(s)]),
        delimiter=",",
        header="s,phi,psi",
        comments="",
    )
    _write_result(config, payload)
    return EXIT_OK


def _run_series(config: RunConfig) -> int:
    node = config.series
    p = float(node.get("p", config.nonlinearity.p))
    if config.domain.kind == "torus":
        m = config.operator.power_degree
        if m is None:
            raise ConfigError("torus series needs a pure power operator")
        report = torus_gap_series(config.domain.dim, m, p, int(node.get("cutoff", 48)))
    else:
        kg = config.operator == OperatorSpec.klein_gordon(config.domain.dim)
        m = 1 if kg else config.operator.power_degree
        if m is None:
            raise ConfigError("sphere series needs a pure power or the mass-shift operator")
        report = sphere_embedding_series(
            config.domain.dim,
            m,
            p,
            j_cut=int(node.get("j_cut", 64)),
            l_cut=int(node.get("l_cut", 10000)),
            operator="klein_gordon" if kg else "power",
        )
    config.out.mkdir(parents=True, exist_ok=True)
    report.terms_to_csv(config.out / "series_terms.csv")
    _write_result(config, {"series": report.to_json()})
    return EXIT_OK


def _run_witness(config: RunConfig) -> int:
    m = config.operator.power_degree
    try:
        wit = noncompact_witness(config.domain.dim, m if m is not None else 0, config.witness_count)
    except ValueError as exc:
        _write_result(config, {"error": str(exc)})
        return EXIT_REFUSED
    _write_result(
        config,
        {"witness": [{"k": list(k), "l": l, "lambda": lam} for k, l, lam in wit]},
    )
    return EXIT_OK


_RUNNERS = {
    "solve": _run_solve,
    "gram": _run_gram,
    "dalembert": _run_dalembert,
    "series": _run_series,
    "witness": _run_witness,
}
TASKS = tuple(_RUNNERS)


def run(config: RunConfig) -> int:
    """Dispatch a validated config; artifacts land in config.out."""
    for msg in config.warnings:
        print(f"warning: {msg}", file=sys.stderr)
    if config.refusal is not None:
        print(f"refused: {config.refusal}", file=sys.stderr)
        _write_result(config, {"error": config.refusal})
        return EXIT_REFUSED
    try:
        return _RUNNERS[config.task](config)
    except ConfigError:
        raise
    except _MALFORMED as exc:  # the weight, raster and series blocks are parsed here
        raise _config_error(exc) from exc


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
        if config.task != args.command:
            raise ConfigError(
                f"config task {config.task!r} does not match subcommand {args.command!r}")
        return run(config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
