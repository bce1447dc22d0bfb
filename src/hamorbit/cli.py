"""Command-line front end: hypothesis checking, solving, verification.

Exit codes: 0 success, 1 method failure (non-convergence, failed residual
gates, failed hypothesis), 2 usage or configuration errors.  Every run is
deterministic given its seed; pass --no-timestamp to make report files
byte-identical across repeats.
"""

from __future__ import annotations

import argparse
import dataclasses
import datetime
import json
import re
import sys

import numpy as np

from .errors import HamorbitError, OrbitFileError
from .functional import ProblemSpec
from .loopspace import SYMMETRY_CLASSES, circle_loop, zero_loop
from .orbit import synthesize, verify_orbit
from .potentials import (
    PotentialModel,
    PowerLawPotential,
    SamplerConfig,
    check_hypotheses,
    parse_potential,
)
from .reportio import render_report, write_orbit_table, read_orbit_table
from .solvers import (
    INITIAL_LOOPS,
    SolveOptions,
    build_endpoint,
    minimize_on_nehari,
    mountain_pass,
)

_POWER_LAW_RE = re.compile(r"power_law\s*\((.*)\)\s*\Z")

ROUTES = ("constrained_min", "mountain_pass")

# The solve report's float orbit items, in report order: OrbitResult fields.
ORBIT_ITEMS = ("period", "ode_sup", "energy_sup", "closure", "closure_err")

# Option keys that set SolveOptions and SamplerConfig fields, in report order;
# both share the one --seed.  A key names its field unless FIELD_NAMES says.
SOLVE_KEYS = ("seed", "max_iterations", "gradient_tolerance", "path_points", "init")
CHECK_KEYS = ("samples", "r_min", "r_max", "radii", "tolerance", "seed")
FIELD_NAMES = {"init": "initial_loop"}


def _field_defaults(cls, keys) -> dict:
    defaults = {f.name: f.default for f in dataclasses.fields(cls)}
    return {key: defaults[FIELD_NAMES.get(key, key)] for key in keys}


DEFAULTS = {
    "mu1": None,  # resolved from the potential when possible
    "mu2": None,
    "symmetry": "e1",
    "route": "constrained_min",
    "nodes": 256,
    **_field_defaults(SolveOptions, SOLVE_KEYS),
    "mp_radius": None,
    "ode_tol": 1e-2,
    "energy_tol": 1e-2,
    "closure_tol": None,
    **_field_defaults(SamplerConfig, CHECK_KEYS),
    "report": None,
    "orbit": None,
    "no_timestamp": False,
}


class ConfigError(Exception):
    """Bad flags or config file; maps to exit code 2."""


def make_potential(text: str, n: int) -> tuple[PotentialModel, float, float]:
    """Build a potential from CLI text.

    ``power_law(a=...,mu1=...,mu2=...)`` (or positional a,mu1[,mu2]) selects
    the built-in; anything else is parsed as expression source.  Returns the
    model plus the growth parameters it implies (mu1, mu2 default to 2, 0
    for expressions and to the power-law exponents otherwise).
    """
    text = text.strip()
    m = _POWER_LAW_RE.match(text)
    if text.startswith("power_law") and m is None:
        raise ConfigError("power_law potential must look like power_law(a=...,mu1=...,mu2=...)")
    if m is not None:
        params = {}
        positional = []
        body = m.group(1).strip()
        if body:
            for part in body.split(","):
                part = part.strip()
                if "=" in part:
                    key, _, val = part.partition("=")
                    params[key.strip()] = val
                else:
                    positional.append(part)
        names = ["a", "mu1", "mu2"]
        for i, val in enumerate(positional):
            if i >= len(names) or names[i] in params:
                raise ConfigError("too many positional power_law parameters")
            params[names[i]] = val
        try:
            a = float(params.pop("a"))
            mu1 = float(params.pop("mu1"))
            mu2 = float(params.pop("mu2", 0.0))
        except KeyError as err:
            raise ConfigError(f"power_law is missing parameter {err}") from None
        except ValueError as err:
            raise ConfigError(f"bad power_law parameter: {err}") from None
        if params:
            raise ConfigError(f"unknown power_law parameters: {sorted(params)}")
        try:
            return PowerLawPotential(a, mu1, mu2, n=n), mu1, mu2
        except ValueError as err:
            raise ConfigError(str(err)) from None
    return parse_potential(text, n), 2.0, 0.0


def _merged(args: argparse.Namespace) -> dict:
    """Flags win over the config file, which wins over defaults."""
    cfg = {}
    if getattr(args, "config", None):
        try:
            with open(args.config) as fh:
                cfg = json.load(fh)
        except (OSError, json.JSONDecodeError) as err:
            raise ConfigError(f"cannot read config file: {err}") from None
        if not isinstance(cfg, dict):
            raise ConfigError("config file must hold a JSON object")
        unknown = set(cfg) - set(DEFAULTS) - {"potential", "n", "energy"}
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    out = {}
    for key in list(DEFAULTS) + ["potential", "n", "energy"]:
        flag = getattr(args, key, None)
        if flag is not None and flag is not False:
            out[key] = flag
        elif key in cfg:
            out[key] = cfg[key]
        else:
            out[key] = DEFAULTS.get(key)
    return out


def _build_options(cls, keys, opts: dict):
    """Construct ``cls`` from merged options, casting each value to the type
    of its field's default (config files may give 1 for 1.0)."""
    return cls(**{FIELD_NAMES.get(key, key): type(default)(opts[key])
                  for key, default in _field_defaults(cls, keys).items()})


def _require_positive(opts: dict, keys):
    """Each of ``keys`` that is set must be a positive number (NaN is not),
    and becomes a float in ``opts``."""
    for key in keys:
        if opts[key] is not None:
            if not float(opts[key]) > 0:
                raise ConfigError(f"{key} must be positive, got {opts[key]}")
            opts[key] = float(opts[key])


def _build_problem(opts: dict) -> ProblemSpec:
    if opts["potential"] is None:
        raise ConfigError("a potential is required (flag --potential or config)")
    if opts["n"] is None or opts["energy"] is None:
        raise ConfigError("dimension --n and energy --energy are required")
    n = int(opts["n"])
    potential, mu1_default, mu2_default = make_potential(str(opts["potential"]), n)
    mu1 = float(opts["mu1"]) if opts["mu1"] is not None else mu1_default
    mu2 = float(opts["mu2"]) if opts["mu2"] is not None else mu2_default
    try:
        spec = ProblemSpec(potential, n, float(opts["energy"]), mu1, mu2,
                           symmetry=opts["symmetry"])
    except ValueError as err:
        raise ConfigError(str(err)) from None
    return spec


def _run_section(opts: dict, extra=()):
    items = []
    if not opts["no_timestamp"]:
        items.append(("created", datetime.datetime.now(datetime.timezone.utc)
                      .strftime("%Y-%m-%dT%H:%M:%SZ")))
    items.extend(extra)
    return items


def _problem_section(spec: ProblemSpec, opts: dict):
    return [
        ("potential", spec.potential.describe()),
        ("n", spec.n),
        ("energy", spec.h),
        ("mu1", spec.mu1),
        ("mu2", spec.mu2),
        ("symmetry", spec.symmetry),
        ("nodes", int(opts["nodes"])),
    ]


def _emit(text: str, path):
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommands

def cmd_check(args) -> int:
    opts = _merged(args)
    spec = _build_problem(opts)
    cfg = _build_options(SamplerConfig, CHECK_KEYS, opts)
    reports = check_hypotheses(spec.potential, spec.h, spec.mu1, spec.mu2, cfg)
    for rep in reports:
        print(rep.line())
    failed = [r.hypothesis for r in reports if r.verdict == "fail"]
    inconclusive = [r.hypothesis for r in reports if r.verdict == "inconclusive"]
    if inconclusive:
        print(f"warning: inconclusive checks: {', '.join(inconclusive)}", file=sys.stderr)
    if opts["report"]:
        sections = [
            ("run", _run_section(opts, [("command", "check")])),
            ("problem", _problem_section(spec, opts)),
            ("hypotheses", [(r.hypothesis, f"{r.verdict} residual={r.residual:.17g}")
                            for r in reports]),
        ]
        _emit(render_report(sections), opts["report"])
    return 1 if failed else 0


def _solve_route(spec: ProblemSpec, solve_opts: SolveOptions, opts: dict):
    nodes = int(opts["nodes"])
    if opts["route"] == "constrained_min":
        return minimize_on_nehari(spec, solve_opts, n_nodes=nodes)
    z0 = zero_loop(nodes, spec.n)
    z1 = build_endpoint(spec, circle_loop(nodes, spec.n))
    return mountain_pass(spec, z0, z1, solve_opts, opts["mp_radius"])


def cmd_solve(args) -> int:
    opts = _merged(args)
    _require_positive(opts, ("ode_tol", "energy_tol", "mp_radius"))
    spec = _build_problem(opts)
    if opts["route"] not in ROUTES:
        raise ConfigError(f"unknown route {opts['route']!r}")
    solve_opts = _build_options(SolveOptions, SOLVE_KEYS, opts)

    # Every cause of failure, the solver's first.
    failures = []
    try:
        solve = _solve_route(spec, solve_opts, opts)
    except HamorbitError as err:
        if err.exit_code == 2:
            raise  # a usage error, such as a grid that does not fit the symmetry
        solve = None
        failures.append(f"{err.code}: {err}")
    else:
        if solve.message:
            failures.append(solve.message)

    # A hypothesis violation leaves no candidate orbit to integrate.
    orbit = None
    if solve is not None and solve.termination != "hypothesis_violation":
        try:
            orbit = synthesize(solve.loop, spec)
        except HamorbitError as err:
            failures.append(f"{err.code}: {err}")
    failure_message = "; ".join(failures)

    nan = float("nan")
    run_items = [
        ("command", "solve"),
        ("route", opts["route"]),
        ("termination", solve.termination if solve else "hypothesis_violation"),
        ("iterations", solve.iterations if solve else 0),
        ("message", failure_message),
        ("f_star", solve.f_value if solve else nan),
        *((key, getattr(orbit, key) if orbit else nan) for key in ORBIT_ITEMS),
        ("nonconstant", orbit.nonconstant if orbit else False),
        ("ode_tol", opts["ode_tol"]),
        ("energy_tol", opts["energy_tol"]),
    ]
    sections = [
        ("run", _run_section(opts, run_items)),
        ("problem", _problem_section(spec, opts)),
        ("options", [
            *((key, getattr(solve_opts, FIELD_NAMES.get(key, key))) for key in SOLVE_KEYS),
            ("mp_radius", "auto" if opts["mp_radius"] is None else opts["mp_radius"]),
        ]),
    ]
    text = render_report(
        sections,
        trace=solve.trace if solve else [],
        gamma_history=solve.gamma_history if solve else None,
    )
    _emit(text, opts["report"])

    if orbit is not None and opts["orbit"]:
        write_orbit_table(opts["orbit"], orbit.positions, orbit.period)

    ok = (solve is not None and solve.converged and orbit is not None
          and orbit.accepts(opts["ode_tol"], opts["energy_tol"]))
    summary = []
    if solve is not None:
        summary.append(f"termination={solve.termination} f_star={solve.f_value:.9g}")
    if orbit is not None:
        summary.append(
            f"period={orbit.period:.9g} ode_sup={orbit.ode_sup:.3g} "
            f"energy_sup={orbit.energy_sup:.3g} closure={orbit.closure:.3g}"
        )
    if failure_message:
        summary.append(failure_message)
    print(("ok: " if ok else "failed: ") + "; ".join(summary), file=sys.stderr)
    return 0 if ok else 1


def cmd_verify(args) -> int:
    opts = _merged(args)
    _require_positive(opts, ("ode_tol", "energy_tol", "closure_tol"))
    spec = _build_problem(opts)
    positions, period = read_orbit_table(args.orbit_file)
    if positions.shape[1] != spec.n:
        raise OrbitFileError(
            f"orbit has dimension {positions.shape[1]}, spec has {spec.n}", line=1
        )
    orbit = verify_orbit(positions, period, spec.potential, spec.h)
    print(f"period={orbit.period:.9g} "
          + " ".join(f"{key}={getattr(orbit, key):.6g}" for key in ORBIT_ITEMS[1:]))
    return 0 if orbit.accepts(opts["ode_tol"], opts["energy_tol"], opts["closure_tol"]) else 1


# ---------------------------------------------------------------------------
# argument parsing

def _add_problem_flags(p):
    p.add_argument("--potential", help="power_law(a=...,mu1=...,mu2=...) or expression text "
                                       "over q1..qn and |q| (functions: exp log sin cos sqrt abs; "
                                       "^ is right-associative and binds tighter than unary minus)")
    p.add_argument("--n", type=int, help="configuration-space dimension")
    p.add_argument("--energy", type=float, help="prescribed energy level h")
    p.add_argument("--mu1", type=float, help="growth exponent (default: from the potential)")
    p.add_argument("--mu2", type=float, help="growth offset (default: from the potential)")
    p.add_argument("--config", help="JSON config file; explicit flags win")


def _add_run_flags(p):
    """check and solve only: verify draws nothing and writes no report."""
    p.add_argument("--seed", type=int, help="seed for all randomness")
    p.add_argument("--report", help="write the machine-readable report here")
    p.add_argument("--no-timestamp", action="store_true", default=None,
                   dest="no_timestamp", help="omit the created timestamp from reports")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hamorbit",
        description="Find and verify fixed-energy periodic orbits of q'' + grad V(q) = 0.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="sample-check the growth hypotheses")
    _add_problem_flags(p_check)
    _add_run_flags(p_check)
    p_check.add_argument("--samples", type=int, help="points per hypothesis sample")
    p_check.add_argument("--r-min", type=float, dest="r_min", help="smallest sampled radius")
    p_check.add_argument("--r-max", type=float, dest="r_max", help="largest sampled radius")
    p_check.add_argument("--radii", type=int, help="radial grid size for the coercivity scan")
    p_check.add_argument("--tolerance", type=float, help="hypothesis tolerance")

    p_solve = sub.add_parser("solve", help="solve by a critical-point route, then verify")
    _add_problem_flags(p_solve)
    _add_run_flags(p_solve)
    p_solve.add_argument("--symmetry", choices=SYMMETRY_CLASSES)
    p_solve.add_argument("--route", choices=ROUTES)
    p_solve.add_argument("--nodes", type=int, help="loop discretization size N")
    p_solve.add_argument("--max-iterations", type=int, dest="max_iterations")
    p_solve.add_argument("--gradient-tolerance", type=float, dest="gradient_tolerance")
    p_solve.add_argument("--path-points", type=int, dest="path_points",
                         help="mountain-pass path resolution")
    p_solve.add_argument("--init", choices=INITIAL_LOOPS)
    p_solve.add_argument("--mp-radius", type=float, dest="mp_radius",
                         help="derivative-sphere radius (default: half the far endpoint)")
    p_solve.add_argument("--orbit", help="write the orbit sample table here")
    p_solve.add_argument("--ode-tol", type=float, dest="ode_tol")
    p_solve.add_argument("--energy-tol", type=float, dest="energy_tol")

    p_verify = sub.add_parser("verify", help="re-verify an orbit table from the file alone")
    p_verify.add_argument("orbit_file")
    _add_problem_flags(p_verify)
    p_verify.add_argument("--ode-tol", type=float, dest="ode_tol")
    p_verify.add_argument("--energy-tol", type=float, dest="energy_tol")
    p_verify.add_argument("--closure-tol", type=float, dest="closure_tol")
    return parser


_PARSER = build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    # Looked up per call, so a rebound cmd_* takes effect.
    command = {"check": cmd_check, "solve": cmd_solve, "verify": cmd_verify}[args.command]
    try:
        # Every overflow, division or invalid value that matters fails a
        # finite check with a named cause; numpy's warnings would only repeat it.
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            return command(args)
    except HamorbitError as err:
        print(f"error: {err.code}: {err}", file=sys.stderr)
        return err.exit_code
    except (ConfigError, ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
