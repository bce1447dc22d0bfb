import ast
import math
import os
import shlex
import subprocess
import sys
import types
from pathlib import Path

import hamorbit
from hamorbit import cli


def test_all_names_resolve_and_are_not_modules():
    assert hamorbit.__all__
    for name in hamorbit.__all__:
        assert not isinstance(getattr(hamorbit, name), types.ModuleType), name
    assert "NEHARI" not in hamorbit.__all__
    assert "NehariConstraint" not in hamorbit.__all__


PUBLIC_NAMES = [
    "BadIndexError", "BaseThroughOriginError", "BlowupError", "CpsRecord", "DomainError",
    "EndpointGrowthError", "ExpressionParseError", "ExpressionPotential", "HamorbitError",
    "HypothesisReport", "LoopPath", "NoBracketError", "NonpositiveActionError",
    "OddNodeCountError", "OrbitFileError", "OrbitResult", "PathCollapseError",
    "PotentialModel", "PowerLawPotential", "ProblemSpec", "SamplerConfig", "SolveOptions",
    "SolveReport", "ZeroLoopError", "action", "action_gradient", "build_endpoint",
    "check_hypotheses", "circle_loop", "closure_gap", "constraint_distance",
    "constraint_gradient", "constraint_value", "cps_append", "dirichlet_energy", "h1_norm",
    "hessian_ray", "integrate", "make_initial_loop", "minimize_on_nehari", "mountain_pass",
    "orbit_period", "orbit_residuals", "parse_potential", "project_symmetric", "random_loop",
    "resample", "scaling_root", "separation_check", "sobolev_precondition", "speed",
    "synthesize", "verify_orbit", "zero_loop",
]


def test_public_names_are_pinned():
    # Adding or removing a public name is a deliberate edit of this list.
    assert hamorbit.__all__ == sorted(PUBLIC_NAMES)


def test_cli_imports_without_scipy():
    code = ("import sys, hamorbit.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    src = os.path.dirname(os.path.dirname(hamorbit.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_modules_import_only_what_they_use():
    # A top-level import that nothing in its module reads must say why on its
    # own line with ``# noqa: F401``.
    unused = []
    for path in sorted(Path(hamorbit.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        src = path.read_text()
        lines = src.splitlines()
        tree = ast.parse(src)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for stmt in tree.body:
            if not isinstance(stmt, (ast.Import, ast.ImportFrom)) or (
                    isinstance(stmt, ast.ImportFrom) and stmt.module == "__future__"):
                continue
            for alias in stmt.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in used and "# noqa: F401" not in lines[alias.lineno - 1]:
                    unused.append(f"{path.name}:{alias.lineno}: {name}")
    assert unused == []


def _fsum_reads(tree) -> int:
    """Names, attributes and string constants ``fsum`` under an AST node."""
    return sum(1 for node in ast.walk(tree) if "fsum" in (
        getattr(node, "id", None), getattr(node, "attr", None), getattr(node, "value", None)))


def test_only_exact_sums_calls_fsum():
    # loopspace.exact_sums is the one home of the exactly rounded sum: every
    # read of math.fsum in the package is in its body.
    reads, home = 0, 0
    for path in sorted(Path(hamorbit.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        reads += _fsum_reads(tree)
        home += sum(_fsum_reads(stmt) for stmt in tree.body if path.stem == "loopspace"
                    and isinstance(stmt, ast.FunctionDef) and stmt.name == "exact_sums")
    assert reads == home > 0


def _readers(name) -> set:
    """The top-level statements of the package, as "module.name", that read
    ``name`` as a name or an attribute; imports do not count."""
    readers = set()
    for path in sorted(Path(hamorbit.__file__).parent.glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            if any(name in (getattr(node, "id", None), getattr(node, "attr", None))
                   for node in ast.walk(stmt)):
                readers.add(f"{path.stem}.{getattr(stmt, 'name', type(stmt).__name__)}")
    return readers


def test_a_pass_is_the_one_home_of_its_measurements():
    # functional.PotentialPass measures an iterate once: it alone takes the
    # dual norm of the Cerami weight, and only it, the action and the
    # orbit's period take the factors A and B.
    assert _readers("gradient_dual_norm") == {"functional.PotentialPass"}
    assert _readers("_factors") == {"functional.PotentialPass", "functional.action",
                                    "orbit.orbit_period"}


def test_split_rows_is_the_one_batch_fault_rule():
    # loopspace.split_rows is the one home of the rule that finds the rows
    # of a batch that raises: each site keeps its whole-batch call and hands
    # the error to it, and no other code splits a raising batch.
    assert _readers("split_rows") == {"loopspace.split_rows", "orbit._rung_closures",
                                      "potentials._check_loop_sphere", "potentials._sampled",
                                      "solvers._PathMax"}


def test_the_expression_compiler_keeps_one_parse_error_and_one_finite_gate():
    # expressions._unexpected builds every "unexpected ..." parse error of
    # the parser, and expressions._finite is the non-finite gate of each
    # evaluate* function; no other code builds either.
    assert _readers("_unexpected") == {"expressions._Parser"}
    assert _readers("_finite") == {"expressions.evaluate", "expressions.evaluate_gradient",
                                   "expressions.evaluate_hessian",
                                   "expressions.evaluate_value_and_gradient"}


# The top-level definitions that nothing else in the package reads, and why
# each stays.  A name whose last reader goes must go too, or gain a reason here.
UNREFERENCED = {
    "closure_gap": "resolved by perfbench's tracer; goes with the benchmark's next change",
    "constraint_gradient": "resolved by perfbench's tracer; goes with the benchmark's next change",
    "constraint_value": "resolved by perfbench's tracer; goes with the benchmark's next change",
    "parse_report": "the report reader that perfbench and the README use",
    "resample": "kept for coarse-to-fine solves",
    "symmetry_defect": "resolved by perfbench's tracer; goes with the benchmark's next change",
}


def test_every_definition_has_a_reader_in_the_package():
    # Each top-level function or class of a module must be read by another
    # top-level statement of the package, outside __init__.py: a name, an
    # attribute or an imported name counts.
    statements = []  # (statement, the names it reads)
    for path in sorted(Path(hamorbit.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for stmt in ast.parse(path.read_text()).body:
            names = set()
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.ImportFrom):
                    names.update(alias.name for alias in node.names)
            statements.append((stmt, names))
    unread = sorted(
        stmt.name for stmt, _ in statements
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
        and not any(stmt.name in names for other, names in statements if other is not stmt))
    assert unread == sorted(UNREFERENCED)


def test_every_field_has_a_reader_in_the_package():
    # Each annotated field of a class in a module must be read somewhere in
    # the package outside __init__.py: an attribute load counts, and so does
    # a string constant, since cli and reportio read fields by name.
    fields, reads = [], set()
    for path in sorted(Path(hamorbit.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef):
                fields += [(node.name, stmt.target.id) for stmt in node.body
                           if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)]
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                reads.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                reads.add(node.value)
    assert fields
    assert [f"{cls}.{name}" for cls, name in fields if name not in reads] == []


def test_readme_library_example_runs():
    readme = Path(hamorbit.__file__).parents[2] / "README.md"
    (block,) = readme.read_text().split("```python\n")[1:]
    code = block.split("```")[0]
    src = os.path.dirname(os.path.dirname(hamorbit.__file__))
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    numbers = [float(word) for word in out.stdout.split()]
    assert len(numbers) == 3 and all(math.isfinite(x) for x in numbers)


def test_readme_commands_parse():
    readme = Path(hamorbit.__file__).parents[2] / "README.md"
    blocks = [block.split("```")[0] for block in readme.read_text().split("```sh\n")[1:]]
    commands = [shlex.split(line, comments=True)
                for line in "\n".join(blocks).replace("\\\n", " ").splitlines()
                if line.startswith("hamorbit ")]
    assert len(commands) >= 3
    parser = cli.build_parser()
    for words in commands:
        parser.parse_args(words[1:])
