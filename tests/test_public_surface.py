"""The package's public surface: its exported names and its module imports."""

import ast
import dataclasses
import inspect
import pathlib

import scaleflow
from scaleflow import actions, cli, config, contraction, meanvalue, measures, quadrature, reports

PACKAGE_DIR = pathlib.Path(scaleflow.__file__).parent

PUBLIC_NAMES = [
    "AlgebraElement", "Ball", "Box", "ConstructedMeasure", "DiagonalScaling",
    "ExpSemigroup", "GridSpec", "HAlgebra", "Homogenizer",
    "INTEGER_ADDITIVE", "Lebesgue", "LinearFamily", "MeanFunction",
    "POSITIVE_MULTIPLICATIVE", "PointMass", "ProductAction", "QuadratureGrid",
    "REAL_ADDITIVE",
    "RGroup", "SupportEscapeError", "TestFunction", "TrigPolynomial",
    "TruncationOverflowError", "TwoScaleField", "UnderResolvedError", "__version__",
    "bump", "certify_absorption", "certify_escape", "certify_group_law",
    "certify_submultiplicative", "construct_measure", "default_battery",
    "empirical_mean", "fixed_point", "gaussian", "gelfand_mean", "integrate",
    "matrix_exponential", "mean", "mollifier", "parabola", "product",
    "pushforward_pairing", "sigma_pairing_lhs", "sigma_pairing_rhs",
    "spectral_pairing", "trace_norm_bound_check", "triangle", "verify_center_null",
    "verify_convolution", "verify_homogeneity", "verify_sigma_convergence",
    "verify_translation_invariance",
]


def test_public_names_are_pinned_and_resolve():
    assert len(PUBLIC_NAMES) == 54
    assert sorted(scaleflow.__all__) == PUBLIC_NAMES
    assert [name for name in PUBLIC_NAMES if not hasattr(scaleflow, name)] == []


def test_grid_knobs_are_pinned():
    # a grid axis is q-point Gauss-Legendre panels of one width, and the
    # midpoint rule is q = 1: a knob added back fails here.  quadrature
    # owns the one resolution rule, GridSpec.build, and refines only by
    # doubling
    def names(cls):
        return tuple(f.name for f in dataclasses.fields(cls))

    assert names(scaleflow.GridSpec) == ("base_nodes", "panel_order", "max_nodes")
    assert scaleflow.GridSpec.__module__ == "scaleflow.quadrature"
    assert not hasattr(quadrature, "resolved_nodes")
    assert names(scaleflow.QuadratureGrid) == ("box", "nodes_per_axis", "panel_order")
    assert list(inspect.signature(scaleflow.QuadratureGrid.refined).parameters) == ["self"]
    assert set(config._BLOCKS["grid"]) == {"rule", "base_nodes", "panel_order", "max_nodes"}


def test_each_subcommand_accepts_only_the_blocks_it_reads():
    # one table gives each subcommand its runner and its blocks: a block no
    # runner reads is a config error, not a key silently ignored, and only
    # the two sweeps that fit a decay order accept tolerances.decay_order
    assert config.COMMON_BLOCKS == ("seed", "group", "action", "ladder")
    assert {name: blocks for name, (_, blocks) in cli._RUNNERS.items()} == {
        "verify-action": ("absorption", "escape"),
        "contract": ("contraction",),
        "homogeneity": ("grid", "tolerances.rel", "homogenizer", "battery"),
        "construct-measure": ("tolerances.rel", "construct", "battery"),
        "mean": ("grid", "tolerances", "homogenizer", "mean"),
        "sigma": ("grid", "tolerances", "sigma"),
    }
    read = {name.partition(".")[0] for _, blocks in cli._RUNNERS.values() for name in blocks}
    assert set(config._BLOCKS) == read | set(config.COMMON_BLOCKS)
    assert set(config._BLOCKS["tolerances"]) == {"rel", "decay_order"}
    # a required block is read by its own subcommand alone
    assert sorted(name for name, node in config._BLOCKS.items()
                  if isinstance(node, config._Required)) == ["mean", "sigma"]


_COMMITTED_CONFIGS = {
    "verify_action": "verify-action", "contract": "contract", "homogeneity_r2": "homogeneity",
    "construct_measure": "construct-measure", "mean_periodic": "mean",
    "sigma_periodic": "sigma", "sigma_quasiperiodic": "sigma",
}


def test_every_committed_config_validates_against_its_own_subcommand():
    configs = sorted((PACKAGE_DIR.parent.parent / "configs").glob("*.yaml"))
    assert sorted(path.stem for path in configs) == sorted(_COMMITTED_CONFIGS)
    for path in configs:
        _, blocks = cli._RUNNERS[_COMMITTED_CONFIGS[path.stem]]
        raw = config.load_config(str(path))
        assert set(config.validate_config(raw, blocks)) == set(raw), path.name


def _raises_or_calls(path: pathlib.Path, names) -> list:
    """Lines of ``path`` that raise one of ``names`` or call one, as ``module:line:name``."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = []
    for node in ast.walk(tree):
        target = node.exc if isinstance(node, ast.Raise) else node
        if isinstance(target, ast.Call):
            target = target.func
        name = getattr(target, "attr", getattr(target, "id", None))
        if isinstance(node, (ast.Raise, ast.Call)) and name in names:
            found.append(f"{path.name}:{node.lineno}:{name}")
    return found


def test_config_owns_every_config_error():
    # config's builders raise every config error, so a runner only computes:
    # cli catches ConfigError but neither raises it nor checks a dimension
    assert _raises_or_calls(PACKAGE_DIR / "config.py", {"ConfigError", "check_dimension"})
    assert _raises_or_calls(PACKAGE_DIR / "cli.py", {"ConfigError", "check_dimension"}) == []


def test_verdict_fields_are_pinned():
    # a verdict is what it compared: its pass flag is derived, not stored,
    # and no detail string rides along
    fields = dataclasses.fields(reports.Verdict)
    assert tuple(f.name for f in fields) == ("name", "value", "bound", "sense")
    assert isinstance(inspect.getattr_static(reports.Verdict, "passed"), property)


def test_report_fields_are_pinned():
    # a report states what it measured and the CLI's verdicts judge it once:
    # no report carries a pass flag that re-judges a verdict's number
    def names(cls):
        return tuple(f.name for f in dataclasses.fields(cls))

    assert names(actions.GroupLawReport) == (
        "check", "worst_violation", "tolerance", "sample_count", "seed")
    assert names(actions.AbsorptionCertificate) == (
        "check", "source", "target", "threshold", "sample_evidence", "exact_bounds")
    assert names(actions.EscapeReport) == ("check", "threshold", "radius", "norms")
    assert names(contraction.SubmultiplicativityReport) == (
        "check", "worst_excess", "decay", "decay_monotone", "decay_final", "bounded")
    # a comparison states its two numbers; mean.json reports each sweep once
    assert names(meanvalue.ComparisonReport) == ("difference", "tolerance")
    assert list(inspect.signature(measures.verify_homogeneity).parameters) == [
        "hz", "ladder", "battery"]


def test_mean_function_fields_are_pinned():
    # a mean is the zero-frequency coefficient of poly, or else the limit:
    # no class string or cell is kept beside them
    fields = tuple(f.name for f in dataclasses.fields(scaleflow.MeanFunction))
    assert fields == ("dimension", "evaluator", "poly", "limit")
    assert [name for name in ("PERIODIC", "VANISHING", "ALMOST_PERIODIC")
            if hasattr(meanvalue, name)] == []


def test_measure_fields_are_pinned():
    # a measure's type says how it pairs: no kind string decides which
    # fields mean anything, and the orbit sweep's node density and block
    # cap are module constants, not fields
    def names(cls):
        return tuple(f.name for f in dataclasses.fields(cls))

    assert names(scaleflow.Lebesgue) == ("density", "domain")
    assert names(scaleflow.PointMass) == ("point",)
    assert names(scaleflow.ConstructedMeasure) == (
        "action", "seed_nodes", "seed_weights", "tail_cut")
    assert [name for name in ("LEBESGUE", "WEIGHTED", "DIRAC")
            if hasattr(measures, name)] == []
    # no constructed-measure pairing reads a grid, so none is passed in
    assert list(inspect.signature(scaleflow.ConstructedMeasure.as_homogenizer).parameters) == [
        "self"]


def test_test_function_fields_are_pinned():
    # a test function is separable when fn itself is a quadrature.Product or
    # QuarticBump, whose own tensor rule a Lebesgue pairing applies through
    # integrate_with_refinement: no second copy of the formula
    fields = tuple(f.name for f in dataclasses.fields(scaleflow.TestFunction))
    assert fields == ("name", "fn", "support")
    assert [name for name in ("_product", "_r2") if hasattr(measures, name)] == []
    assert [name for name in ("integrate_product", "integrate_bump", "bump_on_grid")
            if hasattr(quadrature, name)] == []
    # every row block's weights are built as one outer product, not cached
    assert not hasattr(scaleflow.QuadratureGrid, "_block_weights")


def test_one_refinement_driver_keeps_its_benchmarked_signatures():
    # perfbench wraps both drivers by name, integrate_on_grid as (f, grid)
    # positionally, and a separable formula takes integrate_with_refinement
    # too, so no second refinement routine or edge check is left
    def params(fn):
        return [(p.name, p.default) for p in inspect.signature(fn).parameters.values()]

    empty = inspect.Parameter.empty
    assert params(quadrature.integrate_with_refinement) == [
        ("f", empty), ("grid", empty), ("edge_tol", None)]
    assert params(quadrature.integrate_on_grid) == [("f", empty), ("grid", empty)]
    assert [name for name in ("integrate_separable", "_check_edge")
            if hasattr(quadrature, name)] == []


def test_settable_values_no_caller_sets_are_constants():
    # the battery offset, the factor-map sample count, the decay-fit window,
    # the log curve's eps key and floor and the periodic cell are fixed
    def params(fn):
        return list(inspect.signature(fn).parameters)

    assert params(scaleflow.default_battery) == ["dim"]
    assert params(measures.check_factor_multiplicative) == ["hz", "seed"]
    assert params(meanvalue.fit_decay_order) == ["eps_values", "errors", "floor"]
    assert params(reports.log_error_curve) == ["rows", "err_key"]
    assert params(scaleflow.MeanFunction.periodic_trig) == ["poly"]
    # each action builds its own matrices: no per-element hook on the base
    assert not hasattr(actions.Action, "_matrix")


def _unused_imports(path: pathlib.Path) -> list:
    """Names a module imports but never reads, as ``module:line:name``."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line}:{name}" for name, line in sorted(imported.items())
            if name not in used]


def test_modules_import_only_what_they_use():
    # __init__ imports names to re-export them, so it is the one exception
    modules = sorted(p for p in PACKAGE_DIR.glob("*.py") if p.name != "__init__.py")
    assert modules
    assert [entry for path in modules for entry in _unused_imports(path)] == []


def _calls(path: pathlib.Path, name: str, min_args: int = 0) -> list:
    """Lines of ``path`` that call a function or method ``name`` with at
    least ``min_args`` arguments, as ``module:line``."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and getattr(node.func, "attr", getattr(node.func, "id", None)) == name
            and len(node.args) + len(node.keywords) >= min_args]


def test_only_actions_calls_the_matrix():
    # the linear-map shortcuts live in actions.py, so a nonlinear action
    # overrides them in one place
    assert _calls(PACKAGE_DIR / "actions.py", "matrix")
    modules = sorted(p for p in PACKAGE_DIR.glob("*.py") if p.name != "actions.py")
    assert [entry for path in modules for entry in _calls(path, "matrix")] == []


def test_only_measures_integrate_takes_a_refinement_estimate():
    # every other grid integral reports the doubled grid's value alone
    calls = [entry for path in sorted(PACKAGE_DIR.glob("*.py"))
             for entry in _calls(path, "integrate_with_refinement")]
    assert [entry.split(":")[0] for entry in calls] == ["measures.py"]


def test_only_measures_and_sigma_build_grids_that_resolve_a_frequency():
    # every other grid is built at its base resolution: the kernel
    # transforms take Filon weights, whatever the frequency
    calls = [entry for path in sorted(PACKAGE_DIR.glob("*.py"))
             for entry in _calls(path, "build", 2)]
    assert sorted({entry.split(":")[0] for entry in calls}) == ["measures.py", "sigma.py"]


def test_every_runner_takes_the_config_alone():
    # a runner computes: it returns its verdicts and files and reports.emit
    # writes them, so no runner takes an output directory, a header or --jobs
    runners = {name: fn for name, fn in vars(cli).items() if name.startswith("_run_")}
    assert len(runners) == len(cli._RUNNERS) == 6
    assert {name: list(inspect.signature(fn).parameters) for name, fn in runners.items()} == {
        name: ["cfg"] for name in runners}
    # perfbench wraps the battery map by name and passes it three arguments
    assert list(inspect.signature(cli._parallel).parameters) == ["fn", "items", "jobs"]


def test_only_reports_writes_reports():
    # reports.emit adds every JSON report's passed and verdicts, so no other
    # module calls a writer or the verdict fields itself
    writers = [name for name in vars(reports) if name.startswith("write_")]
    assert sorted(writers) == ["write_csv", "write_curve", "write_json"]
    modules = sorted(p for p in PACKAGE_DIR.glob("*.py") if p.name != "reports.py")
    assert [entry for path in modules for name in [*writers, "verdict_fields"]
            for entry in _calls(path, name)] == []


def _opens_for_writing(path: pathlib.Path) -> list:
    """Lines of ``path`` that call ``open`` with a mode other than reading, as
    ``module:line``; a mode that is not a string literal counts as writing."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "open"):
            continue
        mode = node.args[1] if len(node.args) > 1 else next(
            (kw.value for kw in node.keywords if kw.arg == "mode"), ast.Constant("r"))
        if not (isinstance(mode, ast.Constant) and set(mode.value) <= set("rbt")):
            found.append(f"{path.name}:{node.lineno}")
    return found


def test_only_reports_opens_a_file_for_writing():
    assert _opens_for_writing(PACKAGE_DIR / "reports.py")
    modules = sorted(p for p in PACKAGE_DIR.glob("*.py") if p.name != "reports.py")
    assert [entry for path in modules for entry in _opens_for_writing(path)] == []
