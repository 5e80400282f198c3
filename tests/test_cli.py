"""Config validation, CLI exit codes, report determinism."""

import csv
import json
import os
import platform
import subprocess
import sys
import time

import pytest
import yaml

from scaleflow import cli, meanvalue, measures
from scaleflow import config as cfg_mod
from scaleflow.cli import main
from scaleflow.config import ConfigError, load_config, validate_config
from scaleflow.meanvalue import empirical_mean

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")


def run_cli(args):
    return main(args)


def write_yaml(path, payload):
    with open(path, "w", encoding="utf-8") as handle:
        yaml.safe_dump(payload, handle)


def read_config(stem: str) -> dict:
    """The committed config ``configs/<stem>.yaml``, its file closed."""
    with open(os.path.join(CONFIG_DIR, f"{stem}.yaml"), encoding="utf-8") as handle:
        return yaml.safe_load(handle)


BASE = {
    "seed": 0,
    "group": {"kind": "positive-multiplicative", "weight_param": 1.0},
    "action": {"variant": "diagonal-scaling", "exponents": [1]},
    "ladder": {"count": 6},
    "grid": {"rule": "gauss", "base_nodes": 128, "panel_order": 16,
             "max_nodes": 1 << 18},
}


def test_unknown_key_rejected(tmp_path):
    cfg = dict(BASE)
    cfg["actoin"] = {"variant": "diagonal-scaling"}
    path = tmp_path / "bad.yaml"
    write_yaml(path, cfg)
    data = load_config(str(path))
    with pytest.raises(ConfigError) as err:
        validate_config(data)
    assert "actoin" in str(err.value)


def test_nested_unknown_key_path(tmp_path):
    cfg = dict(BASE)
    cfg["grid"] = {"rule": "gauss", "nodes": 12}
    path = tmp_path / "bad.yaml"
    write_yaml(path, cfg)
    with pytest.raises(ConfigError) as err:
        validate_config(load_config(str(path)))
    assert "grid.'nodes'" in str(err.value)


def test_malformed_yaml_is_line_anchored(tmp_path):
    path = tmp_path / "broken.yaml"
    path.write_text("group: {kind: [unclosed\n  action: oops\n")
    with pytest.raises(ConfigError) as err:
        load_config(str(path))
    assert "line" in str(err.value)


def test_committed_configs_parse_alike_under_the_c_and_python_loaders():
    # load_config takes libyaml's CSafeLoader when PyYAML has it; it must
    # read every committed config as the pure-Python SafeLoader does
    names = sorted(name for name in os.listdir(CONFIG_DIR) if name.endswith(".yaml"))
    assert len(names) == 7
    for name in names:
        path = os.path.join(CONFIG_DIR, name)
        with open(path, "r", encoding="utf-8") as handle:
            expected = yaml.load(handle, Loader=yaml.SafeLoader)
        assert repr(load_config(path)) == repr(expected), name


def test_cli_config_error_exit_code(tmp_path):
    path = tmp_path / "broken.yaml"
    path.write_text("ladder: {count: 6\n")
    code = run_cli(["verify-action", "--config", str(path), "--out", str(tmp_path / "o")])
    assert code == 2


def test_cli_missing_config_exit_code(tmp_path):
    code = run_cli(["verify-action", "--config", str(tmp_path / "nope.yaml"),
                    "--out", str(tmp_path / "o")])
    assert code == 2


def test_cli_verify_action_passes(tmp_path):
    code = run_cli([
        "verify-action", "--config", os.path.join(CONFIG_DIR, "verify_action.yaml"),
        "--out", str(tmp_path / "out"),
    ])
    assert code == 0
    assert (tmp_path / "out" / "action_certificates.json").exists()
    assert (tmp_path / "out" / "action_summary.csv").exists()


def _src_env():
    """The caller's environment with this checkout's ``src`` first on PYTHONPATH."""
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


# Runs the CLI in an interpreter whose import system refuses scipy.
_WITHOUT_SCIPY = """
import sys


class RefuseScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError(f"{name} is refused")
        return None


sys.meta_path.insert(0, RefuseScipy())
from scaleflow.cli import main

code = main(sys.argv[1:])
assert "scipy" not in sys.modules
sys.exit(code)
"""


def test_cli_runs_without_scipy(tmp_path):
    # scipy is a test-only oracle; a 2-D absorption certificate samples
    # Halton directions, the code path that once needed it
    cfg = dict(BASE)
    cfg["action"] = {"variant": "diagonal-scaling", "exponents": [1, 2]}
    cfg["absorption"] = {"source_radius": 10.0, "target_radius": 1.0}
    path = tmp_path / "absorb_2d.yaml"
    write_yaml(path, cfg)
    result = subprocess.run(
        [sys.executable, "-c", _WITHOUT_SCIPY, "verify-action", "--config", str(path),
         "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env=_src_env(),
    )
    assert result.returncode == 0, result.stderr


def test_benchmark_spans_install():
    # the benchmark traces scaleflow by wrapping functions and methods by
    # name; renaming or deleting one of them must fail here, not only there
    root = os.path.join(os.path.dirname(__file__), "..")
    script = (
        "import sys\n"
        f"sys.path.insert(0, {os.path.join(root, 'perfbench')!r})\n"
        "import scaleflow.cli\n"
        "import spans\n"
        "spans.install(spans.Recorder())\n"
    )
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                            env=_src_env())
    assert result.returncode == 0, result.stderr


# Runs three CLI invocations on committed configs in one interpreter, then
# checks that none of them imported numpy.polynomial.
_WITHOUT_POLYNOMIAL = """
import sys

from scaleflow.cli import main

configs, out = sys.argv[1:]
for subcommand, stem in (("construct-measure", "construct_measure"),
                         ("sigma", "sigma_periodic"), ("mean", "mean_periodic")):
    code = main([subcommand, "--config", f"{configs}/{stem}.yaml", "--out", f"{out}/{stem}"])
    assert code == 0, (stem, code)
loaded = sorted(name for name in sys.modules if name.startswith("numpy.polynomial"))
assert not loaded, loaded
"""


def test_cli_runs_without_numpy_polynomial(tmp_path):
    # the Gauss-Legendre rule is computed in house: no invocation pays for
    # importing numpy.polynomial and its submodules
    result = subprocess.run(
        [sys.executable, "-c", _WITHOUT_POLYNOMIAL, CONFIG_DIR, str(tmp_path)],
        capture_output=True, text=True, env=_src_env(),
    )
    assert result.returncode == 0, result.stderr


# Runs four CLI invocations on committed configs in one interpreter, then
# checks that none of them imported numpy.random.
_WITHOUT_NUMPY_RANDOM = """
import sys

from scaleflow.cli import main

configs, out = sys.argv[1:]
for subcommand, stem in (("verify-action", "verify_action"), ("contract", "contract"),
                         ("homogeneity", "homogeneity_r2"),
                         ("construct-measure", "construct_measure")):
    code = main([subcommand, "--config", f"{configs}/{stem}.yaml", "--out", f"{out}/{stem}"])
    assert code == 0, (stem, code)
loaded = sorted(name for name in sys.modules if name.startswith("numpy.random"))
assert not loaded, loaded
"""


def test_cli_runs_without_numpy_random(tmp_path):
    # every sampled certificate draws from random.Random(seed), which the
    # standard library has loaded already: no invocation imports numpy.random
    result = subprocess.run(
        [sys.executable, "-c", _WITHOUT_NUMPY_RANDOM, CONFIG_DIR, str(tmp_path)],
        capture_output=True, text=True, env=_src_env(),
    )
    assert result.returncode == 0, result.stderr


def test_contract_starts_are_pinned(tmp_path, monkeypatch):
    # the CLI draws its starts row by row from random.Random(seed) and maps
    # them all by one fixed_point call
    calls = []
    fixed_point = cli.fixed_point

    def recording(action, eps, x0, **kwargs):
        calls.append(x0)
        return fixed_point(action, eps, x0, **kwargs)

    monkeypatch.setattr(cli, "fixed_point", recording)
    config = os.path.join(CONFIG_DIR, "contract.yaml")
    assert run_cli(["contract", "--config", config, "--out", str(tmp_path / "out")]) == 0
    (starts,) = calls
    assert starts.shape == (10, 1)
    assert starts[:3, 0].tolist() == [5.51074962440077, 4.12727044704484, -1.27085470670648]


def test_construct_measure_sweeps_each_battery_entry_once(tmp_path, monkeypatch):
    # each battery entry pairs its base integral and its whole ladder of
    # pushforwards by one orbit sweep pair each: 3 entries take 12 sweeps
    # (54 when each pushforward swept alone) and 72 block evaluations (274)
    counts = {"_sweep": 0, "_block_value": 0}
    for name in counts:
        original = getattr(measures.ConstructedMeasure, name)

        def counting(*args, _original=original, _name=name, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(measures.ConstructedMeasure, name, counting)
    config = os.path.join(CONFIG_DIR, "construct_measure.yaml")
    code = run_cli(["construct-measure", "--config", config, "--out", str(tmp_path / "out")])
    assert code == 0
    assert counts == {"_sweep": 12, "_block_value": 72}


def test_cli_three_dimensional_mean_fails_loudly(tmp_path, capsys):
    # a 3-D mean sweep whose first rung's doubled grid needs 1.1e8 nodes
    # exits 3 at once, naming the total and the cap, instead of running out
    # of memory
    cfg = read_config("mean_periodic")
    cfg["action"] = {"variant": "diagonal-scaling", "exponents": [1, 1, 1]}
    cfg["ladder"] = {"count": 5}
    cfg["grid"] = {"rule": "gauss", "base_nodes": 64, "panel_order": 16, "max_nodes": 4096}
    cfg["mean"] = {
        "function": {"class": "periodic", "terms": [
            [[0.0, 0.0, 0.0], 0.5, 0.0],
            [[1.0, 2.0, 1.0], -0.25, 0.0],
            [[-1.0, -2.0, -1.0], -0.25, 0.0],
        ]},
        "phi": {"kind": "gaussian", "center": [0.3, 0.3, 0.3], "sigma": 0.5},
        "shift": [0.3, 0.1, 0.2],
        "kernel": {"kind": "gaussian", "center": [0.0, 0.0, 0.0], "sigma": 0.5},
    }
    path = tmp_path / "mean_3d.yaml"
    write_yaml(path, cfg)
    start = time.perf_counter()
    code = run_cli(["mean", "--config", str(path), "--out", str(tmp_path / "o")])
    assert code == 3
    assert time.perf_counter() - start < 20.0
    assert ("a grid of 113246208 nodes is evaluated node by node, cap is 16777216"
            in capsys.readouterr().err)


def test_cli_homogeneity_negative_control(tmp_path):
    cfg = dict(BASE)
    cfg["ladder"] = {"values": [0.5, 0.25, 0.125]}
    cfg["grid"] = {"rule": "midpoint", "base_nodes": 256}
    # true factor for 1-d unit scaling is eps; declare eps^2 instead
    cfg["homogenizer"] = {"measure": "lebesgue", "factor_override": 2.0}
    path = tmp_path / "wrong_factor.yaml"
    write_yaml(path, cfg)
    code = run_cli(["homogeneity", "--config", str(path), "--out", str(tmp_path / "o")])
    assert code == 1


def test_cli_resolution_failure_exit_code(tmp_path):
    cfg = read_config("sigma_periodic")
    cfg["grid"]["max_nodes"] = 512
    cfg["ladder"] = {"count": 12}
    path = tmp_path / "under.yaml"
    write_yaml(path, cfg)
    code = run_cli(["sigma", "--config", str(path), "--out", str(tmp_path / "o")])
    assert code == 3


def test_cli_contract_rejects_zero_starts(tmp_path, capsys):
    # no fixed point is computed with zero starts, so nothing may pass
    cfg = read_config("contract")
    cfg["contraction"]["starts"] = 0
    path = tmp_path / "zero.yaml"
    write_yaml(path, cfg)
    code = run_cli(["contract", "--config", str(path), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "contraction.starts" in capsys.readouterr().err


def test_group_law_tolerance_rejected(tmp_path, capsys):
    # no verdict reads a group_law tolerance, so a config naming one is an error
    cfg = read_config("verify_action")
    cfg["tolerances"] = {"group_law": 1.0e-30}
    path = tmp_path / "group_law.yaml"
    write_yaml(path, cfg)
    code = run_cli(["verify-action", "--config", str(path), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "tolerances.'group_law'" in capsys.readouterr().err


def test_unknown_tolerance_override_rejected(tmp_path):
    code = run_cli([
        "verify-action", "--config", os.path.join(CONFIG_DIR, "verify_action.yaml"),
        "--out", str(tmp_path / "o"), "--tol-override", "group_law=1e-30",
    ])
    assert code == 2


_SIGMA_U0 = {"name": "u0", "terms": [
    {"macro": {"kind": "gaussian", "center": [0.5], "sigma": 0.15},
     "element": [[[1.0], 1.0, 0.0]]},
]}


# (subcommand, config overlay on BASE, path of the missing key)
_MISSING_KEYS = [
    ("construct-measure", {"construct": {"seed_measure": {"kind": "dirac"}}},
     "construct.seed_measure.'point'"),
    ("construct-measure", {"construct": {"seed_measure": {"kind": "uniform"}}},
     "construct.seed_measure.'box'"),
    ("verify-action", {"absorption": {"source_radius": 10.0}}, "absorption.'target_radius'"),
    ("verify-action", {"absorption": {"target_radius": 1.0}}, "absorption.'source_radius'"),
    ("verify-action", {"escape": {"radius": 10.0}}, "escape.'point'"),
    ("verify-action", {"escape": {"point": [1.0]}}, "escape.'radius'"),
    ("mean", {"mean": {"function": {"class": "periodic"}}}, "mean.function.'terms'"),
    ("sigma", {"sigma": {"algebra": {"kind": "ap-subgroup"}, "u0": _SIGMA_U0,
                         "battery": [_SIGMA_U0]}}, "sigma.algebra.'generators'"),
    ("sigma", {"sigma": {"battery": [_SIGMA_U0]}}, "sigma.'u0'"),
    ("sigma", {"sigma": {"u0": {"terms": [{"element": [[[1.0], 1.0, 0.0]]}]},
                         "battery": [_SIGMA_U0]}}, "sigma.u0.terms[0].'macro'"),
    ("sigma", {"sigma": {"u0": _SIGMA_U0, "battery": [
        {"terms": [{"macro": {"kind": "gaussian", "center": [0.5], "sigma": 0.15}}]}]}},
     "sigma.battery[0].terms[0].'element'"),
    ("homogeneity", {"battery": [{"kind": "gaussian", "center": [0.3]}]}, "battery[0].'sigma'"),
]


def _assert_rejected_before_any_verdict(code, captured, where, out):
    # exit 2 naming the path, with no verdict printed and no report written
    assert code == 2
    assert where in captured.err
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("subcommand,overlay,missing", _MISSING_KEYS,
                         ids=[case[2] for case in _MISSING_KEYS])
def test_missing_required_key_is_config_error(tmp_path, capsys, subcommand, overlay, missing):
    path = tmp_path / "missing.yaml"
    write_yaml(path, {**BASE, **overlay})
    code = run_cli([subcommand, "--config", str(path), "--out", str(tmp_path / "o")])
    _assert_rejected_before_any_verdict(code, capsys.readouterr(), missing, tmp_path / "o")


_PERIODIC = {"class": "periodic", "terms": [[[0.0], 0.5, 0.0], [[2.0], -0.25, 0.0]]}

# a parabola's support is its exact box, so its edge nodes carry about
# 6 / n^2 of its mass and every Lebesgue pushforward's edge check rejects it
_PARABOLA_BATTERY = [{"kind": "gaussian", "center": [0.3], "sigma": 0.5},
                     {"kind": "parabola", "box": [[0.0, 1.0]]}]


# (subcommand, config overlay on BASE, path of the malformed entry)
_MALFORMED_ENTRIES = [
    ("mean", {"mean": {"function": {"class": "periodic", "terms": [[[0.0], 0.5]]}}},
     "mean.function.terms[0]"),
    ("construct-measure",
     {"construct": {"seed_measure": {"kind": "uniform", "box": [[0.5], [1.5]]}}},
     "construct.seed_measure.box[0]"),
    ("sigma", {"sigma": {"u0": {"terms": [{**_SIGMA_U0["terms"][0], "element": [[[1.0], 1.0]]}]},
                         "battery": [_SIGMA_U0]}}, "sigma.u0.terms[0].element[0]"),
    ("sigma", {"sigma": {"u0": _SIGMA_U0, "battery": [
        _SIGMA_U0, {"terms": [{**_SIGMA_U0["terms"][0], "element": [[1.0, 0.0]]}]}]}},
     "sigma.battery[1].terms[0].element[0]"),
    ("sigma", {"sigma": {"domain": [[0.0], [1.0]], "u0": _SIGMA_U0, "battery": [_SIGMA_U0]}},
     "sigma.domain[0]"),
    ("sigma", {"sigma": {"u0": _SIGMA_U0, "battery": [{"terms": [{
        "macro": {"kind": "parabola", "box": [[0.0], [1.0]]},
        "element": [[[1.0], 1.0, 0.0]]}]}]}}, "box[0]"),
    ("verify-action", {"absorption": {"source_radius": 10.0, "target_radius": "x"}},
     "absorption.target_radius"),
    ("verify-action", {"absorption": {"source_radius": 10.0, "target_radius": 1.0,
                                      "directions_per_dim": "x"}}, "absorption.directions_per_dim"),
    ("verify-action", {"escape": {"point": [1.0], "radius": "x"}}, "escape.radius"),
    ("verify-action", {"escape": {"point": [1.0, 2.0], "radius": 10.0}}, "escape.point"),
    ("verify-action", {"action": {"variant": "product", "factors": [
        {"variant": "diagonal-scaling", "exponents": [1], "typo": 1}]}}, "action.factors[0].'typo'"),
    ("homogeneity", {"grid": {"rule": "gauss", "base_nodes": "x"}}, "grid.base_nodes"),
    ("homogeneity", {"group": {"kind": "positive-multiplicative", "weight_param": "x"}},
     "group.weight_param"),
    ("homogeneity", {"battery": [{"kind": "gaussian", "center": [0.3], "sigma": "x"}]},
     "battery[0].sigma"),
    ("homogeneity", {"battery": [{"kind": "bump", "center": [0.3, 0.3], "width": 1.0}]},
     "battery[0].center"),
    ("homogeneity", {"battery": [{"kind": "gaussian", "center": [0.3], "sigma": -0.5}]},
     "battery[0]: box sides"),
    ("homogeneity", {"homogenizer": {"measure": "dirac", "point": [0.3, 0.3]}}, "homogenizer.point"),
    ("homogeneity", {"action": {"variant": "diagonal-scaling", "exponents": [1, 1]},
                     "homogenizer": {"measure": "weighted-power"}}, "homogenizer.measure"),
    ("construct-measure", {"construct": {"tail_cut": "x"}}, "construct.tail_cut"),
    ("construct-measure", {"construct": {"seed_measure": {"kind": "dirac", "point": [0.0]}}},
     "construct.seed_measure: seed support"),
    ("construct-measure", {"construct": {"seed_measure": {"kind": "dirac", "point": [1.0],
                                                          "power": 7}}},
     "construct.seed_measure.'power'"),
    ("mean", {"mean": {"function": _PERIODIC,
                       "phi": {"kind": "gaussian", "center": [0.3], "sigma": "x"}}},
     "mean.phi.sigma"),
    ("mean", {"mean": {"function": _PERIODIC,
                       "kernel": {"kind": "bump", "center": [0.0], "width": "x"}}},
     "mean.kernel.width"),
    ("mean", {"mean": {"function": _PERIODIC, "shift": [0.3, 0.1]}}, "mean.shift"),
    ("sigma", {"sigma": {"p": "x", "u0": _SIGMA_U0, "battery": [_SIGMA_U0]}}, "sigma.p"),
    ("sigma", {"sigma": {"p": 1.0, "u0": _SIGMA_U0, "battery": [_SIGMA_U0]}}, "sigma.p must satisfy"),
    ("sigma", {"sigma": {"algebra": {"kind": "periodic", "dimension": "x"}, "u0": _SIGMA_U0,
                         "battery": [_SIGMA_U0]}}, "sigma.algebra.dimension"),
    ("sigma", {"sigma": {"domain": [[0.0, 1.0], [0.0, 1.0]], "u0": _SIGMA_U0,
                         "battery": [_SIGMA_U0]}}, "sigma.domain has dimension 2"),
    ("sigma", {"sigma": {"algebra": {"kind": "ap-subgroup", "generators": [[1.0]], "dimension": 3},
                         "u0": _SIGMA_U0, "battery": [_SIGMA_U0]}},
     "sigma.algebra: generator dimension mismatch"),
    ("mean", {"mean": {"function": {"class": "vanishing", "profile": "inverse-square"}}},
     "mean.function.'profile'"),
    ("mean", {"mean": {"function": {"class": "vanishing", "dimension": 1}}},
     "mean.function.'dimension'"),
    ("homogeneity", {"grid": {"rule": "midpoint", "panel_order": 7}},
     "grid.panel_order: the midpoint rule has no panels"),
    ("homogeneity", {"battery": _PARABOLA_BATTERY}, "battery[1]: a parabola"),
]


@pytest.mark.parametrize("subcommand,overlay,where", _MALFORMED_ENTRIES,
                         ids=[case[2] for case in _MALFORMED_ENTRIES])
def test_malformed_entry_is_config_error(tmp_path, capsys, subcommand, overlay, where):
    path = tmp_path / "malformed.yaml"
    write_yaml(path, {**BASE, **overlay})
    code = run_cli([subcommand, "--config", str(path), "--out", str(tmp_path / "o")])
    _assert_rejected_before_any_verdict(code, capsys.readouterr(), where, tmp_path / "o")


# contract.yaml overlays naming a value that is not an element of its group,
# or not a number at all
_BAD_ELEMENTS = [
    ({"ladder": {"values": [0.5, 0.0]}}, "ladder.values[1]"),
    ({"ladder": {"count": 0}}, "ladder.count"),
    ({"contraction": {"eps": -0.5}}, "contraction.eps"),
    ({"ladder": {"count": "abc"}}, "ladder.count: invalid literal"),
    ({"ladder": {"values": 0.5}}, "ladder.values must be a list"),
    ({"contraction": {"pairs": "abc"}}, "contraction.pairs"),
    ({"contraction": {"tol": "x"}}, "contraction.tol"),
    ({"seed": "x"}, "seed:"),
    ({"ladder": {"values": [0.5, 0.5]}}, "strictly decreasing"),
]


@pytest.mark.parametrize("overlay,where", _BAD_ELEMENTS, ids=[case[1] for case in _BAD_ELEMENTS])
def test_bad_group_element_is_config_error(tmp_path, capsys, overlay, where):
    cfg = read_config("contract")
    path = tmp_path / "bad_element.yaml"
    write_yaml(path, {**cfg, **overlay})
    code = run_cli(["contract", "--config", str(path), "--out", str(tmp_path / "o")])
    _assert_rejected_before_any_verdict(code, capsys.readouterr(), where, tmp_path / "o")


# (subcommand, committed config, overlay merged into one of its blocks, error path):
# values of the right type but out of range, each caught before any work
_OUT_OF_RANGE = [
    ("mean", "mean_periodic", {"grid": {"panel_order": 0}}, "grid.panel_order: must be positive"),
    ("homogeneity", "homogeneity_r2", {"grid": {"base_nodes": 0}},
     "grid.base_nodes: must be positive"),
    ("homogeneity", "homogeneity_r2", {"grid": {"max_nodes": -4}},
     "grid.max_nodes: must be positive"),
    ("construct-measure", "construct_measure", {"construct": {"tail_cut": -1.0}},
     "construct.tail_cut: must be positive"),
    ("verify-action", "verify_action", {"escape": {"point": [0.0], "radius": 10.0}},
     "escape.point: escape is undefined at the action's center"),
    ("mean", "mean_periodic", {"ladder": {"count": 1}}, "a decay order needs 2"),
    ("sigma", "sigma_periodic", {"ladder": {"values": [0.5]}}, "a decay order needs 2"),
    ("sigma", "sigma_periodic", {"ladder": {"values": [4.0, 2.0, 1.0, 0.5]}},
     "ladder: ladder entries must not exceed the identity"),
    ("contract", "contract", {"contraction": {"pairs": 0}}, "contraction.pairs: must be positive"),
    ("sigma", "sigma_quasiperiodic",
     {"sigma": {"algebra": {"kind": "ap-subgroup", "generators": [[0.0]], "degree": 8}}},
     "sigma.algebra: a generator must have a nonzero entry"),
]


@pytest.mark.parametrize("subcommand,stem,overlay,where", _OUT_OF_RANGE,
                         ids=[f"{case[1]}:{case[3]}" for case in _OUT_OF_RANGE])
def test_out_of_range_value_is_config_error(tmp_path, capsys, subcommand, stem, overlay, where):
    cfg = read_config(stem)
    for key, block in overlay.items():
        cfg[key] = {**cfg.get(key, {}), **block} if key != "ladder" else block
    path = tmp_path / "out_of_range.yaml"
    write_yaml(path, cfg)
    code = run_cli([subcommand, "--config", str(path), "--out", str(tmp_path / "o")])
    _assert_rejected_before_any_verdict(code, capsys.readouterr(), where, tmp_path / "o")


def test_cli_mean_point_mass_builds_no_grid(tmp_path):
    # a point mass integrates by evaluation: a grid cap too small to resolve
    # u(H_eps x) on phi's support must not matter
    cfg = dict(BASE)
    cfg["ladder"] = {"count": 10}
    cfg["grid"] = {"rule": "gauss", "base_nodes": 256, "panel_order": 16, "max_nodes": 4096}
    cfg["homogenizer"] = {"measure": "dirac", "point": [0.3]}
    cfg["mean"] = {
        "function": {"class": "vanishing", "limit": 0.25},
        "phi": {"kind": "triangle", "center": 0.3, "width": 0.7},
        "shift": [0.3],
    }
    path = tmp_path / "mean_dirac.yaml"
    write_yaml(path, cfg)
    code = run_cli(["mean", "--config", str(path), "--out", str(tmp_path / "o")])
    assert code == 0


def test_construct_measure_battery_keeps_a_parabola():
    # an orbit sweep judges no grid boundary, so only homogeneity rejects it
    cfg = validate_config({**BASE, "battery": _PARABOLA_BATTERY})
    assert [phi.name for phi in cfg_mod.build_battery(cfg, 1)] == ["gauss-0.5", "parabola"]
    with pytest.raises(ConfigError, match=r"battery\[1\]: a parabola"):
        cfg_mod.build_battery(cfg, 1, edge_checked=True)


def test_cli_construct_uniform_seed_passes(tmp_path):
    # 128 seed nodes per Haar node: the sweep's point budget at work
    cfg = read_config("construct_measure")
    cfg["construct"]["seed_measure"] = {"kind": "uniform", "box": [[0.5, 1.5]]}
    path = tmp_path / "construct_uniform.yaml"
    write_yaml(path, cfg)
    code = run_cli(["construct-measure", "--config", str(path), "--out", str(tmp_path / "o")])
    assert code == 0


def test_cli_mean_sweeps_each_mean_once(tmp_path, monkeypatch, capsys):
    # u, its translate and its convolution share one ladder sweep, and the
    # verdict lines keep their order
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return empirical_mean(*args, **kwargs)

    monkeypatch.setattr(meanvalue, "empirical_mean", counting)
    monkeypatch.setattr(cli, "empirical_mean", counting)
    code = run_cli([
        "mean", "--config", os.path.join(CONFIG_DIR, "mean_periodic.yaml"),
        "--out", str(tmp_path / "out"),
    ])
    assert code == 0
    assert len(calls) == 1 and len(calls[0][0]) == 3
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(" ", 2)[:2] for line in lines] == [
        ["closed-form", "mean:"],
        ["[pass]", "empirical-mean"],
        ["[pass]", "translation-invariance"],
        ["[pass]", "convolution"],
        ["PASS"],
    ]


def test_cli_mean_runs(tmp_path):
    code = run_cli([
        "mean", "--config", os.path.join(CONFIG_DIR, "mean_periodic.yaml"),
        "--out", str(tmp_path / "out"),
    ])
    assert code == 0
    for name in ("mean.csv", "mean.json", "mean_error.dat"):
        assert (tmp_path / "out" / name).exists()


def _csv_rows(path):
    with open(path, encoding="utf-8") as handle:
        return list(csv.DictReader(line for line in handle if not line.startswith("#")))


def _mean_sweeps(path) -> list:
    # the empirical sweep and the translation and convolution sweeps of mean.json
    with open(path, encoding="utf-8") as handle:
        results = json.load(handle)["results"]
    return [results["empirical"], results["translation"]["second"], results["convolution"]["first"]]


def test_cli_mean_periodic_values_are_exactly_real(tmp_path):
    # u0 = 1/2 - cos(4 pi x)/2 is a real trig polynomial, and so are its
    # translate and its convolution: every mean the sweeps report is real
    code = run_cli([
        "mean", "--config", os.path.join(CONFIG_DIR, "mean_periodic.yaml"),
        "--out", str(tmp_path),
    ])
    assert code == 0
    values = [row["value"] for sweep in _mean_sweeps(tmp_path / "mean.json") for row in sweep["rows"]]
    assert len(values) == 30
    assert all(value["im"] == 0.0 for value in values)
    assert all(complex(row["value"]).imag == 0.0 for row in _csv_rows(tmp_path / "mean.csv"))


def test_cli_tol_override_forces_failure(tmp_path):
    code = run_cli([
        "mean", "--config", os.path.join(CONFIG_DIR, "mean_periodic.yaml"),
        "--out", str(tmp_path / "out"), "--tol-override", "rel=1e-18",
    ])
    assert code == 1


def _assert_jobs_deterministic(tmp_path, subcommand, config):
    outs = []
    for name, jobs in (("a", "1"), ("b", "2")):
        out = tmp_path / name
        code = run_cli([
            subcommand, "--config", os.path.join(CONFIG_DIR, config),
            "--out", str(out), "--jobs", jobs,
        ])
        assert code == 0
        outs.append(out)
    for name in sorted(os.listdir(outs[0])):
        with open(outs[0] / name, "rb") as fa, open(outs[1] / name, "rb") as fb:
            assert fa.read() == fb.read(), name


def test_cli_sigma_jobs_deterministic(tmp_path):
    _assert_jobs_deterministic(tmp_path, "sigma", "sigma_periodic.yaml")


def test_cli_construct_jobs_deterministic(tmp_path):
    _assert_jobs_deterministic(tmp_path, "construct-measure", "construct_measure.yaml")


def test_cli_homogeneity_jobs_deterministic(tmp_path):
    # the battery runs in pool threads at --jobs 2; every integral streams in
    # the same row blocks whatever thread runs it
    _assert_jobs_deterministic(tmp_path, "homogeneity", "homogeneity_r2.yaml")


def test_reports_and_stdout_do_not_depend_on_the_hash_seed(tmp_path):
    # each run starts a fresh interpreter, whose string hashes are seeded
    # anew: iteration over a set or a hashed key must not reach the output
    for subcommand, stem in (("mean", "mean_periodic"), ("sigma", "sigma_quasiperiodic")):
        runs = []
        for seed in ("0", "1"):
            out = tmp_path / seed / stem
            result = subprocess.run(
                [sys.executable, "-m", "scaleflow.cli", subcommand, "--config",
                 os.path.join(CONFIG_DIR, f"{stem}.yaml"), "--out", str(out)],
                capture_output=True, text=True, env={**_src_env(), "PYTHONHASHSEED": seed},
                timeout=300,
            )
            assert result.returncode == 0, result.stderr
            files = {name: (out / name).read_bytes() for name in sorted(os.listdir(out))}
            runs.append((result.stdout, files))
        assert runs[0][1] and runs[0] == runs[1], stem


def test_reports_embed_header(tmp_path):
    out = tmp_path / "out"
    run_cli([
        "homogeneity", "--config", os.path.join(CONFIG_DIR, "homogeneity_r2.yaml"),
        "--out", str(out),
    ])
    text = (out / "homogeneity.csv").read_text()
    keys = [line[2:].split(":", 1)[0] for line in text.splitlines() if line.startswith("# ")]
    assert keys == ["tool", "version", "seed", "config_sha256"]


def test_console_entry_point(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "scaleflow.cli", "verify-action", "--config",
         os.path.join(CONFIG_DIR, "verify_action.yaml"), "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env=_src_env(),
    )
    assert result.returncode == 0, result.stderr
    assert "PASS" in result.stdout


# Runs the CLI after printing the core type of the OpenBLAS numpy loaded.
_ON_BLAS_CORE = """
import ctypes
import sys

import numpy  # loads the OpenBLAS whose mapping core_name reads
from scaleflow.cli import main


def core_name():
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            paths = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    except OSError:  # no /proc: not Linux
        return "unknown"
    for path in paths:
        getter = getattr(ctypes.CDLL(path), "scipy_openblas_get_corename64_", None)
        if getter is not None:
            getter.argtypes = []
            getter.restype = ctypes.c_char_p
            return getter().decode()
    return "unknown"


print("blas core:", core_name())
sys.exit(main(sys.argv[1:]))
"""

# sigma_periodic rows whose lhs is itself rounding (rhs 0, |lhs| ~ 1e-17), so
# their error, not only their bits, is bounded on both BLAS kernels: rel_err is
# read directly, as abs_err / rel_err is 0 / 0 where the lhs is exactly 0
_ROUNDING_ROWS = {"sigma_periodic": {"oscillation-free"}, "sigma_quasiperiodic": set()}
# verdict lines whose final_rel is rounding: sigma_quasiperiodic's
# oscillation-free lhs converges to 0 from 0.076 and ends near 3e-16, so its
# rows compare like any other, but the last figure of its verdict moves with
# the kernel; it is compared only as below 1e-12 on both kernels
_ROUNDING_VERDICTS = {"sigma_quasiperiodic": {"oscillation-free"}}
_ACROSS_BLAS = 1e-12


def _assert_verdicts_agree(lines_a, lines_b, rounding):
    # equal lines, but for the final_rel of the sigma fields in ``rounding``
    assert len(lines_a) == len(lines_b)
    for a, b in zip(lines_a, lines_b):
        if not any(f"sigma[{name}] final_rel=" in a for name in rounding):
            assert a == b
            continue
        (head_a, rest_a), (head_b, rest_b) = (line.split("final_rel=") for line in (a, b))
        (rel_a, *tail_a), (rel_b, *tail_b) = rest_a.split(), rest_b.split()
        assert (head_a, tail_a) == (head_b, tail_b)
        assert max(float(rel_a), float(rel_b)) <= _ACROSS_BLAS


def test_reports_agree_across_blas_core_types(tmp_path):
    # reports are byte-identical only for a fixed BLAS core type; on another
    # one the verdicts hold and the numbers agree within 1e-12 of their scale
    runs = {}
    configs = (("mean", "mean_periodic"), *(("sigma", stem) for stem in _ROUNDING_ROWS))
    for variant, extra in (("default", {}), ("prescott", {"OPENBLAS_CORETYPE": "Prescott"})):
        for subcommand, stem in configs:
            out = tmp_path / variant / stem
            result = subprocess.run(
                [sys.executable, "-c", _ON_BLAS_CORE, subcommand, "--config",
                 os.path.join(CONFIG_DIR, f"{stem}.yaml"), "--out", str(out)],
                capture_output=True, text=True, env={**_src_env(), **extra}, timeout=300,
            )
            core, *verdicts = result.stdout.splitlines()
            assert core.startswith("blas core: "), result.stderr
            runs[variant, stem] = (result.returncode, verdicts, out, core)
    for _, stem in configs:
        (code_a, verdicts_a, _, core_a), (code_b, verdicts_b, _, core_b) = (
            runs["default", stem], runs["prescott", stem])
        assert code_a == code_b == 0
        assert verdicts_a[-1] == verdicts_b[-1] == "PASS", (core_a, core_b)
        _assert_verdicts_agree(verdicts_a, verdicts_b, _ROUNDING_VERDICTS.get(stem, ()))
    means = [
        [row["value"] for sweep in _mean_sweeps(runs[variant, "mean_periodic"][2] / "mean.json")
         for row in sweep["rows"]]
        for variant in ("default", "prescott")
    ]
    for a, b in zip(*means, strict=True):
        a, b = complex(a["re"], a["im"]), complex(b["re"], b["im"])
        assert abs(a - b) <= _ACROSS_BLAS * abs(a)
    fitted = 0
    for stem, rounding in _ROUNDING_ROWS.items():
        rows = [_csv_rows(runs[variant, stem][2] / "sigma.csv") for variant in ("default", "prescott")]
        moved = set()
        for a, b in zip(*rows, strict=True):
            assert (a["psi"], a["eps"]) == (b["psi"], b["eps"])
            # the Filon lhs reduces by products and np.sum only, never BLAS
            assert a["lhs"] == b["lhs"], (stem, a["psi"], a["eps"])
            if a["rel_err"] != b["rel_err"]:
                moved.add(a["psi"])
            if a["psi"] in rounding:
                assert max(float(a["rel_err"]), float(b["rel_err"])) <= _ACROSS_BLAS
        # the decay fit is BLAS-free: equal errors give an equal fitted order
        per_test = []
        for variant in ("default", "prescott"):
            with open(runs[variant, stem][2] / "sigma.json", encoding="utf-8") as handle:
                per_test.append(json.load(handle)["per_test"])
        for psi in per_test[0].keys() - moved:
            assert per_test[0][psi]["fitted_order"] == per_test[1][psi]["fitted_order"], (stem, psi)
            fitted += 1
    assert fitted > 0


# configs whose reports do not depend on the BLAS core type: their integrals
# reduce by np.sum, and trig_eval's BLAS join is not on their path
_BLAS_FREE = (
    ("verify-action", "verify_action"),
    ("contract", "contract"),
    ("homogeneity", "homogeneity_r2"),
    ("construct-measure", "construct_measure"),
)


def test_blas_free_reports_are_byte_identical_across_blas_core_types(tmp_path):
    outs = []
    for variant, extra in (("default", {}), ("prescott", {"OPENBLAS_CORETYPE": "Prescott"})):
        cores = set()
        for subcommand, stem in _BLAS_FREE:
            out = tmp_path / variant / stem
            result = subprocess.run(
                [sys.executable, "-c", _ON_BLAS_CORE, subcommand, "--config",
                 os.path.join(CONFIG_DIR, f"{stem}.yaml"), "--out", str(out)],
                capture_output=True, text=True, env={**_src_env(), **extra}, timeout=300,
            )
            core, *lines = result.stdout.splitlines()
            assert result.returncode == 0 and core.startswith("blas core: "), result.stderr
            cores.add(core)
            (out / "stdout.txt").write_text("\n".join(lines))
        outs.append((tmp_path / variant, cores))
    (default, cores_a), (prescott, cores_b) = outs
    for _, stem in _BLAS_FREE:
        names = sorted(os.listdir(default / stem))
        assert names == sorted(os.listdir(prescott / stem))
        for name in names:
            same = (default / stem / name).read_bytes() == (prescott / stem / name).read_bytes()
            assert same, (stem, name, cores_a, cores_b)


# Prints numpy's enabled SIMD dispatch targets.
_PRINT_TARGETS = """
from numpy._core import _multiarray_umath as umath

print("targets:", [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t)])
"""
# numpy's environment switch down to the AVX2 targets on an AVX-512 machine
_AVX2 = {"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"}

# Prints the enabled dispatch targets, then the bits of pairwise_dot on a
# real and a complex input.
_SUM_BITS = _PRINT_TARGETS + """
import numpy as np
from scaleflow import kernels

rng = np.random.default_rng(3)
n = 300_007
weights = rng.uniform(0.5, 1.5, size=n)
real = rng.normal(size=n)
for values in (real, real + 1j * rng.normal(size=n)):
    total = kernels.pairwise_dot(weights, values)
    print(total.real.hex(), total.imag.hex())
"""


@pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"), reason="x86 dispatch targets")
def test_pairwise_dot_bits_do_not_depend_on_simd_dispatch():
    # an AVX2 machine takes the sums down the same path as an AVX-512 one;
    # on a machine without AVX-512 both runs are the default, still a valid run
    outputs = []
    for extra in ({}, _AVX2):
        result = subprocess.run([sys.executable, "-c", _SUM_BITS], capture_output=True, text=True,
                                env={**_src_env(), **extra}, timeout=120)
        assert result.returncode == 0, result.stderr
        targets, *bits = result.stdout.splitlines()
        assert targets.startswith("targets: ") and len(bits) == 2
        outputs.append((targets, bits))
    (targets_a, bits_a), (targets_b, bits_b) = outputs
    assert bits_a == bits_b, (targets_a, targets_b)


# Runs the CLI after printing the enabled dispatch targets.
_ON_TARGETS = _PRINT_TARGETS + """
import sys
from scaleflow.cli import main

sys.exit(main(sys.argv[1:]))
"""
_SEVEN_CONFIGS = (
    ("verify-action", "verify_action"),
    ("contract", "contract"),
    ("homogeneity", "homogeneity_r2"),
    ("construct-measure", "construct_measure"),
    ("mean", "mean_periodic"),
    ("sigma", "sigma_periodic"),
    ("sigma", "sigma_quasiperiodic"),
)
# report fields that are themselves rounding errors, read at (file, *keys):
# their bits move with the SIMD path, so each only stays below _ACROSS_SIMD
_ROUNDING_FIELDS = {
    "verify_action": ("action_certificates.json", "results", "group_law", "worst_violation"),
    "contract": ("contraction.json", "submultiplicative", "worst_excess"),
    "homogeneity_r2": ("homogeneity.json", "worst_rel_err"),
    "sigma_periodic": ("sigma.json", "per_test", "oscillation-free", "final_rel_err"),
}
_ACROSS_SIMD = 1e-12


def _paired_values(out, rounding) -> dict:
    """Every lhs, rhs and mean value of the reports in ``out``, by field, in
    report order: a CSV field is one column of one test function's rows, and
    a JSON field one key at one path, whose list entries go by their
    ``field``.  The CSV rows of the test functions in ``rounding`` are left
    out: their lhs is itself rounding."""
    values = {}

    def add(key, value):
        if isinstance(value, dict):
            value = complex(value["re"], value["im"])
        values.setdefault(key, []).append(complex(value))

    def walk(node, path):
        if isinstance(node, list):
            for item in node:
                walk(item, (*path, item.get("field", "") if isinstance(item, dict) else ""))
        elif isinstance(node, dict):
            for key, value in node.items():
                if key in ("lhs", "rhs", "value"):
                    add((*path, key), value)
                else:
                    walk(value, (*path, key))

    for name in sorted(os.listdir(out)):
        if name.endswith(".json"):
            with open(out / name, encoding="utf-8") as handle:
                walk(json.load(handle), (name,))
        elif name.endswith(".csv"):
            for row in _csv_rows(out / name):
                test = row.get("psi", row.get("phi"))
                for column in ("lhs", "rhs"):
                    if column in row and test not in rounding:
                        add((name, test, column), row[column])
    return values


@pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"), reason="x86 dispatch targets")
def test_reports_agree_across_simd_dispatch(tmp_path):
    # the seven configs under numpy's AVX2 targets and its default: reports
    # are byte-identical only for fixed targets, but the verdicts hold and
    # every lhs, rhs and mean value agrees within 1e-12 of its field's scale;
    # on a machine without AVX-512 both runs are the default, still a valid run
    runs = {}
    for variant, extra in (("default", {}), ("avx2", _AVX2)):
        for subcommand, stem in _SEVEN_CONFIGS:
            out = tmp_path / variant / stem
            result = subprocess.run(
                [sys.executable, "-c", _ON_TARGETS, subcommand, "--config",
                 os.path.join(CONFIG_DIR, f"{stem}.yaml"), "--out", str(out)],
                capture_output=True, text=True, env={**_src_env(), **extra}, timeout=300,
            )
            targets, *lines = result.stdout.splitlines()
            assert targets.startswith("targets: "), result.stderr
            runs[variant, stem] = (result.returncode, lines, out, targets)
    compared = 0
    for _, stem in _SEVEN_CONFIGS:
        (code_a, lines_a, out_a, targets_a), (code_b, lines_b, out_b, targets_b) = (
            runs["default", stem], runs["avx2", stem])
        assert "X86_V4" not in targets_b
        assert code_a == code_b == 0, (stem, targets_a, targets_b)
        # the same [pass]/[FAIL] and check name on every verdict line
        assert [line.split()[:2] for line in lines_a] == [line.split()[:2] for line in lines_b]
        rounding = _ROUNDING_ROWS.get(stem, set())
        values_a, values_b = _paired_values(out_a, rounding), _paired_values(out_b, rounding)
        assert values_a.keys() == values_b.keys(), stem
        for key, a in values_a.items():
            b = values_b[key]
            assert len(a) == len(b), (stem, key)
            scale = max(abs(v) for v in a + b)
            worst = max(abs(x - y) for x, y in zip(a, b))
            assert worst <= _ACROSS_SIMD * scale, (stem, key, worst, targets_a, targets_b)
            compared += 1
        for out in (out_a, out_b):
            if rounding:
                rows = [row for row in _csv_rows(out / "sigma.csv") if row["psi"] in rounding]
                assert rows and all(float(row["rel_err"]) <= _ACROSS_SIMD for row in rows), stem
            if stem in _ROUNDING_FIELDS:
                name, *keys = _ROUNDING_FIELDS[stem]
                with open(out / name, encoding="utf-8") as handle:
                    node = json.load(handle)
                for key in keys:
                    node = node[key]
                assert abs(node) <= _ACROSS_SIMD, (stem, keys, node)
    assert compared > 0
