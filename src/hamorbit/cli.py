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
import math
import sys

import numpy as np

from .errors import HamorbitError, OrbitFileError
from .functional import ProblemSpec
from .loopspace import MIN_NODES, SYMMETRY_CLASSES, check_grid, circle_loop, zero_loop
from .orbit import synthesize, verify_orbit
from .potentials import SamplerConfig, check_hypotheses
# cli.make_potential is potentials.parse_potential under the name that
# perfbench's tracer resolves.
from .potentials import parse_potential as make_potential
from .reportio import render_report, write_orbit_table, read_orbit_table
from .solvers import (
    INITIAL_LOOPS,
    SolveOptions,
    SolveReport,
    build_endpoint,
    minimize_on_nehari,
    mountain_pass,
)

ROUTES = ("constrained_min", "mountain_pass")

# The solve report's float orbit items, in report order: OrbitResult fields.
ORBIT_ITEMS = ("period", "ode_sup", "energy_sup", "closure", "closure_err")

# Option keys that set SolveOptions and SamplerConfig fields, in report order;
# both share the one --seed.  A key names its field unless FIELD_NAMES says.
SOLVE_KEYS = ("seed", "max_iterations", "gradient_tolerance", "path_points", "init")
CHECK_KEYS = ("samples", "r_min", "r_max", "radii", "tolerance", "seed")
FIELD_NAMES = {"init": "initial_loop"}

# Settings that must be positive when set (NaN is not).
POSITIVE_KEYS = ("ode_tol", "energy_tol", "closure_tol", "mp_radius")


def _field_defaults(cls, keys) -> dict:
    defaults = {f.name: f.default for f in dataclasses.fields(cls)}
    return {key: defaults[FIELD_NAMES.get(key, key)] for key in keys}


# A setting with no entry here defaults to None: mu1 and mu2 then come from
# the potential, and mp_radius, closure_tol, report and orbit are unset.
DEFAULTS = {
    "symmetry": "e1",
    "route": "constrained_min",
    "nodes": 256,
    **_field_defaults(SolveOptions, SOLVE_KEYS),
    "ode_tol": 1e-2,
    "energy_tol": 1e-2,
    **_field_defaults(SamplerConfig, CHECK_KEYS),
    "no_timestamp": False,
}


def _config_value(action: argparse.Action, value):
    """A config value read as its flag reads the text that follows it.

    A switch takes JSON true or false.  Any other flag takes a string, or a
    number where the flag has a type; its type must accept the value's text,
    and the result must be one of its choices."""
    key = action.dest
    if action.nargs == 0:
        if not isinstance(value, bool):
            raise ValueError(f"config key {key} must be true or false, got {json.dumps(value)}")
        return value
    parsed = None
    if isinstance(value, str) or (action.type is not None and type(value) in (int, float)):
        try:
            parsed = value if action.type is None else action.type(str(value))
        except ValueError:
            pass
    if parsed is None:
        raise ValueError(f"config key {key} must be what {action.option_strings[0]} takes, "
                         f"got {json.dumps(value)}")
    if action.choices is not None and parsed not in action.choices:
        raise ValueError(f"unknown {key} {parsed!r}")
    return parsed


def _read_config(path) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as err:
        raise ValueError(f"cannot read config file: {err}") from None
    if not isinstance(cfg, dict):
        raise ValueError("config file must hold a JSON object")
    unknown = set(cfg) - set(_SETTINGS)
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    return {key: _config_value(_SETTINGS[key], value) for key, value in cfg.items()}


def _merged(args: argparse.Namespace) -> dict:
    """The running subcommand's settings, and only those: its flags win over
    the config file, which wins over defaults.  Every check that no
    dataclass makes runs here, once, before any work."""
    cfg = _read_config(args.config) if args.config else {}
    opts = {}
    for key in (action.dest for action in _SUBCOMMANDS[args.command]._actions):
        if key in _SETTINGS:
            flag = getattr(args, key)
            opts[key] = flag if flag is not None else cfg.get(key, DEFAULTS.get(key))
    for key in POSITIVE_KEYS:
        if opts.get(key) is not None and not opts[key] > 0:
            raise ValueError(f"{key} must be positive, got {opts[key]}")
    if "nodes" in opts:
        if opts["nodes"] < MIN_NODES:
            raise ValueError(f"nodes must be at least {MIN_NODES}, got {opts['nodes']}")
        check_grid(opts["nodes"], opts["symmetry"])
    if opts.get("route") == "mountain_pass" and opts["init"] != "circle":
        raise ValueError(f"--init {opts['init']} sets the constrained route's start; "
                         "the mountain pass always starts from the circle")
    if opts["potential"] is None:
        raise ValueError("a potential is required (flag --potential or config)")
    if opts["n"] is None or opts["energy"] is None:
        raise ValueError("dimension --n and energy --energy are required")
    if not math.isfinite(opts["energy"]):
        raise ValueError(f"h must be finite, got {opts['energy']}")
    return opts


def _build_options(cls, keys, opts: dict):
    """Construct ``cls`` from merged options."""
    return cls(**{FIELD_NAMES.get(key, key): opts[key] for key in keys})


def _build_problem(opts: dict) -> ProblemSpec:
    """The problem of ``check`` (symmetry none) or ``solve``."""
    return ProblemSpec(make_potential(opts["potential"], opts["n"]), opts["n"], opts["energy"],
                       opts["mu1"], opts["mu2"], symmetry=opts.get("symmetry", "none"))


def _run_section(opts: dict, extra=()):
    items = []
    if not opts["no_timestamp"]:
        items.append(("created", datetime.datetime.now(datetime.timezone.utc)
                      .strftime("%Y-%m-%dT%H:%M:%SZ")))
    items.extend(extra)
    return items


def _problem_section(spec: ProblemSpec):
    return [("potential", spec.potential.describe()), ("n", spec.n), ("energy", spec.h),
            ("mu1", spec.mu1), ("mu2", spec.mu2)]


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
    run_items = _run_section(opts, [("command", "check")])
    sections = [("run", run_items), ("problem", _problem_section(spec))]
    try:
        reports = check_hypotheses(spec.potential, spec.h, spec.mu1, spec.mu2, cfg)
    except HamorbitError as err:
        # A check that raised still writes its report: the error, no verdicts.
        run_items.append(("message", err.reason()))
        if opts["report"]:
            _emit(render_report(sections), opts["report"])
        raise
    for rep in reports:
        print(rep.line())
    failed = [r.hypothesis for r in reports if r.verdict == "fail"]
    inconclusive = [r.hypothesis for r in reports if r.verdict == "inconclusive"]
    if inconclusive:
        print(f"warning: inconclusive checks: {', '.join(inconclusive)}", file=sys.stderr)
    if opts["report"]:
        sections.append(("hypotheses", [(r.hypothesis, f"{r.verdict} residual={r.residual:.17g}")
                                        for r in reports]))
        _emit(render_report(sections), opts["report"])
    return 1 if failed else 0


def _solve_route(spec: ProblemSpec, solve_opts: SolveOptions, opts: dict):
    nodes = opts["nodes"]
    if opts["route"] == "constrained_min":
        return minimize_on_nehari(spec, solve_opts, n_nodes=nodes)
    z0 = zero_loop(nodes, spec.n)
    z1 = build_endpoint(spec, circle_loop(nodes, spec.n))
    return mountain_pass(spec, z0, z1, solve_opts, opts["mp_radius"])


def cmd_solve(args) -> int:
    opts = _merged(args)
    spec = _build_problem(opts)
    solve_opts = _build_options(SolveOptions, SOLVE_KEYS, opts)

    # A solver error is the outcome of a solve that has no loop.
    nan = float("nan")
    try:
        solve = _solve_route(spec, solve_opts, opts)
    except HamorbitError as err:
        solve = SolveReport(None, nan, "hypothesis_violation", message=err.reason())

    # Every cause of failure, the solver's first.  A hypothesis violation
    # leaves no candidate orbit to integrate.
    failures = [solve.message] if solve.message else []
    orbit = None
    if solve.termination != "hypothesis_violation":
        try:
            orbit = synthesize(solve.loop, spec)
        except HamorbitError as err:
            failures.append(err.reason())
    failure_message = "; ".join(failures)

    run_items = [
        ("command", "solve"),
        ("route", opts["route"]),
        ("termination", solve.termination),
        ("iterations", solve.iterations),
        ("message", failure_message),
        ("f_star", solve.f_value),
        *((key, getattr(orbit, key) if orbit else nan) for key in ORBIT_ITEMS),
        ("nonconstant", orbit.nonconstant if orbit else False),
        ("ode_tol", opts["ode_tol"]),
        ("energy_tol", opts["energy_tol"]),
    ]
    sections = [
        ("run", _run_section(opts, run_items)),
        ("problem", _problem_section(spec)
                    + [("symmetry", spec.symmetry), ("nodes", opts["nodes"])]),
        ("options", [
            *((key, getattr(solve_opts, FIELD_NAMES.get(key, key))) for key in SOLVE_KEYS),
            ("mp_radius", "auto" if opts["mp_radius"] is None else opts["mp_radius"]),
        ]),
    ]
    _emit(render_report(sections, solve.trace, solve.gamma_history), opts["report"])

    if orbit is not None and opts["orbit"]:
        write_orbit_table(opts["orbit"], orbit.positions, orbit.period)

    ok = (solve.converged and orbit is not None
          and orbit.accepts(opts["ode_tol"], opts["energy_tol"]))
    summary = []
    if solve.loop is not None:
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
    # An orbit solves the ODE at energy h whatever the growth parameters,
    # which belong to the variational method: verify reads none.
    opts = _merged(args)
    potential = make_potential(opts["potential"], opts["n"])
    positions, period = read_orbit_table(args.orbit_file)
    if positions.shape[1] != opts["n"]:
        raise OrbitFileError(
            f"orbit has dimension {positions.shape[1]}, spec has {opts['n']}", line=1
        )
    orbit = verify_orbit(positions, period, potential, opts["energy"], opts["closure_tol"])
    print(f"period={orbit.period:.9g} "
          + " ".join(f"{key}={getattr(orbit, key):.6g}" for key in ORBIT_ITEMS[1:]))
    return 0 if orbit.accepts(opts["ode_tol"], opts["energy_tol"], opts["closure_tol"]) else 1


# ---------------------------------------------------------------------------
# argument parsing

def _add_problem_flags(p, growth=True):
    """The problem's flags; ``verify`` takes them without the growth
    parameters, which only the variational method reads."""
    p.add_argument("--potential", help="power_law(a=...,mu1=...,mu2=...) or expression text "
                                       "over q1..qn and |q| (functions: exp log sin cos sqrt abs; "
                                       "^ is right-associative and binds tighter than unary minus)")
    p.add_argument("--n", type=int, help="configuration-space dimension")
    p.add_argument("--energy", type=float, help="prescribed energy level h")
    if growth:
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
    p_check.add_argument("--tolerance", type=float,
                         help="hypothesis tolerance: a slack for B1 and B2, a floor for B4 "
                              "and a dead band of tolerance*(1+|h|) for B5; B3 ignores it")

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
    p_solve.add_argument("--init", choices=INITIAL_LOOPS,
                         help="the constrained route's start; the mountain pass always "
                              "starts from the circle, in class none or e1")
    p_solve.add_argument("--mp-radius", type=float, dest="mp_radius",
                         help="derivative-sphere radius (default: half the far endpoint)")
    p_solve.add_argument("--orbit", help="write the orbit sample table here")
    p_solve.add_argument("--ode-tol", type=float, dest="ode_tol")
    p_solve.add_argument("--energy-tol", type=float, dest="energy_tol")

    p_verify = sub.add_parser("verify", help="re-verify an orbit table from the file alone")
    p_verify.add_argument("orbit_file")
    _add_problem_flags(p_verify, growth=False)
    p_verify.add_argument("--ode-tol", type=float, dest="ode_tol")
    p_verify.add_argument("--energy-tol", type=float, dest="energy_tol")
    p_verify.add_argument("--closure-tol", type=float, dest="closure_tol",
                          help="also gate the return-map closure; the closure ladder "
                               "stops once its error estimate settles the verdict")
    return parser


_PARSER = build_parser()

# Each setting's one reading rule, from the command line or a config file:
# its flag's action, by config key.  The keys are every subcommand's flags, so
# one file serves all three; each subcommand reads only its own (_merged).
_SUBCOMMANDS = next(action.choices for action in _PARSER._actions
                    if isinstance(action, argparse._SubParsersAction))
_SETTINGS = {action.dest: action for sub in _SUBCOMMANDS.values() for action in sub._actions
             if action.option_strings and action.dest not in ("help", "config")}


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
        print(f"error: {err.reason()}", file=sys.stderr)
        return err.exit_code
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
