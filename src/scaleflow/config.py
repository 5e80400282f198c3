"""Experiment configuration: YAML schema validation and object builders.

Configs are plain nested mappings.  Validation is strict: unknown keys are
rejected with their full path so typos fail fast (exit code 2 at the CLI).
"""

from __future__ import annotations

import numpy as np
import yaml

from .actions import Action, Ball, DiagonalScaling, ExpSemigroup, ProductAction
from .algebra import HAlgebra
from .groups import RGroup
from .meanvalue import MeanFunction
from .measures import (
    GridSpec,
    Homogenizer,
    MeasureDescriptor,
    TestFunction,
    bump,
    default_battery,
    gaussian,
    mollifier,
    parabola,
    triangle,
)
from .quadrature import GAUSS, MIDPOINT, Box
from .sigma import TwoScaleField
from .trig import TrigPolynomial


class ConfigError(ValueError):
    """A configuration file failed to parse or validate."""


def load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = yaml.safe_load(handle)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f" at line {mark.line + 1}, column {mark.column + 1}" if mark else ""
        raise ConfigError(f"malformed config{where}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config root must be a mapping")
    return data


# -- strict key checking -------------------------------------------------------

_KNOWN_KEYS = {
    "": {
        "seed", "group", "action", "ladder", "grid", "tolerances", "battery",
        "absorption", "escape", "contraction", "homogenizer", "construct",
        "mean", "sigma",
    },
    "group": {"kind", "weight_param"},
    "action": {"variant", "exponents", "k", "matrix", "factors"},
    "ladder": {"count", "step", "values"},
    "grid": {"rule", "base_nodes", "panel_order", "max_nodes", "nodes_per_period"},
    "battery[]": {"kind", "name", "center", "sigma", "width", "box"},
    "absorption": {"source_center", "source_radius", "target_radius", "directions_per_dim"},
    "escape": {"point", "radius"},
    "contraction": {"eps", "starts", "tol", "max_iter", "pairs"},
    "homogenizer": {"measure", "power", "point", "factor_override"},
    "construct": {"seed_measure", "tail_cut"},
    "construct.seed_measure": {"kind", "point", "power", "box"},
    "mean": {"function", "phi", "shift", "kernel"},
    "mean.function": {"class", "terms", "limit", "profile", "dimension"},
    "sigma": {"algebra", "domain", "u0", "battery", "p"},
    "sigma.algebra": {"kind", "dimension", "generators", "degree"},
    "sigma.u0": {"name", "terms"},
    "sigma.u0.terms[]": {"macro", "element"},
    "tolerances": {"rel", "decay_order"},
}

# Keys a block must carry whenever it is present.  Keys that only some kinds
# of a block need are checked by that block's builder.
_REQUIRED_KEYS = {
    "absorption": {"source_radius", "target_radius"},
    "escape": {"point", "radius"},
    "sigma": {"u0"},
    "sigma.u0.terms[]": {"macro", "element"},
}


def _check_keys(block: dict, schema_key: str, path: str) -> None:
    known = _KNOWN_KEYS[schema_key]
    for key in block:
        if key not in known:
            raise ConfigError(f"unknown key {path}{key!r} (known: {sorted(known)})")
    for key in sorted(_REQUIRED_KEYS.get(schema_key, ())):
        _required(block, key, path)


def _required(block: dict, key: str, path: str):
    """``block[key]``, or a config error naming the missing key's path."""
    if key not in block:
        raise ConfigError(f"missing key {path}{key!r}")
    return block[key]


def validate_config(cfg: dict) -> None:
    _check_keys(cfg, "", "")
    for name in ("group", "action", "ladder", "grid", "absorption", "escape",
                 "contraction", "homogenizer", "construct", "mean", "tolerances"):
        block = cfg.get(name)
        if block is None:
            continue
        if not isinstance(block, dict):
            raise ConfigError(f"{name!r} must be a mapping")
        _check_keys(block, name, f"{name}.")
    for i, entry in enumerate(cfg.get("battery", []) or []):
        _check_keys(entry, "battery[]", f"battery[{i}].")
    mean_block = cfg.get("mean")
    if mean_block:
        fn = mean_block.get("function")
        if isinstance(fn, dict):
            _check_keys(fn, "mean.function", "mean.function.")
        for key in ("phi", "kernel"):
            if isinstance(mean_block.get(key), dict):
                _check_keys(mean_block[key], "battery[]", f"mean.{key}.")
    construct = cfg.get("construct")
    if construct and isinstance(construct.get("seed_measure"), dict):
        _check_keys(construct["seed_measure"], "construct.seed_measure",
                    "construct.seed_measure.")
    sigma = cfg.get("sigma")
    if sigma:
        if not isinstance(sigma, dict):
            raise ConfigError("'sigma' must be a mapping")
        _check_keys(sigma, "sigma", "sigma.")
        if isinstance(sigma.get("algebra"), dict):
            _check_keys(sigma["algebra"], "sigma.algebra", "sigma.algebra.")
        fields = [("sigma.u0.", sigma["u0"])] + [
            (f"sigma.battery[{i}].", psi) for i, psi in enumerate(sigma.get("battery", []) or [])
        ]
        for path, block in fields:
            if isinstance(block, dict):
                _check_keys(block, "sigma.u0", path)
                for i, term in enumerate(block.get("terms", []) or []):
                    _check_keys(term, "sigma.u0.terms[]", f"{path}terms[{i}].")


# -- builders --------------------------------------------------------------------


def build_group(cfg: dict) -> RGroup:
    block = cfg.get("group") or {"kind": "positive-multiplicative"}
    try:
        return RGroup(kind=block["kind"], weight_param=block.get("weight_param"))
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"bad group block: {exc}") from exc


def build_action(cfg: dict, group: RGroup) -> Action:
    block = cfg.get("action") or {"variant": "diagonal-scaling", "exponents": [1]}
    return _action_from_block(block, group)


def _action_from_block(block: dict, group: RGroup) -> Action:
    variant = block.get("variant")
    try:
        if variant == "diagonal-scaling":
            return DiagonalScaling(tuple(block["exponents"]), group=group)
        if variant == "exp-semigroup":
            return ExpSemigroup.from_matrix(block["k"], block["matrix"], group=group)
        if variant == "product":
            factors = [_action_from_block(b, group) for b in block["factors"]]
            return ProductAction(factors=tuple(factors))
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad action block: {exc}") from exc
    raise ConfigError(f"unknown action variant {variant!r}")


def group_element(group: RGroup, value, path: str) -> float:
    """``value`` as an element of ``group``; a config error names its path."""
    try:
        return group.validate(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def build_ladder(cfg: dict, group: RGroup) -> list:
    block = cfg.get("ladder") or {}
    if "values" in block:
        return [group_element(group, v, f"ladder.values[{i}]")
                for i, v in enumerate(block["values"])]
    count = int(block.get("count", 12))
    try:
        return list(group.ladder(count, block.get("step")))
    except ValueError as exc:
        raise ConfigError(f"ladder.{'count' if count < 1 else 'step'}: {exc}") from exc


def build_grid_spec(cfg: dict) -> GridSpec:
    block = cfg.get("grid") or {}
    rule = block.get("rule", MIDPOINT)
    if rule not in (MIDPOINT, GAUSS):
        raise ConfigError(f"unknown grid rule {rule!r}")
    counts = {key: int(value) for key, value in block.items() if key != "rule"}
    return GridSpec(rule=rule, **counts)


def build_test_function(block: dict, dim: int) -> TestFunction:
    kind = block.get("kind")
    name = block.get("name")
    try:
        if kind == "gaussian":
            return gaussian(block["center"], float(block["sigma"]), name)
        if kind == "bump":
            return bump(block["center"], float(block["width"]), name)
        if kind == "triangle":
            if dim != 1:
                raise ConfigError("triangle functions are one-dimensional")
            center = block["center"]
            center = center[0] if isinstance(center, (list, tuple)) else center
            return triangle(float(center), float(block["width"]), name)
        if kind == "mollifier":
            return mollifier(block["center"], float(block["width"]), name)
        if kind == "parabola":
            return parabola(build_box(block["box"], "parabola box"), name)
    except KeyError as exc:
        raise ConfigError(f"test function missing key {exc}") from exc
    raise ConfigError(f"unknown test function kind {kind!r}")


def build_battery(cfg: dict, dim: int) -> list:
    entries = cfg.get("battery")
    if not entries:
        return default_battery(dim)
    return [build_test_function(b, dim) for b in entries]


def build_homogenizer(cfg: dict, action: Action) -> Homogenizer:
    grid_spec = build_grid_spec(cfg)
    block = cfg.get("homogenizer") or {"measure": "lebesgue"}
    measure = block.get("measure", "lebesgue")
    if measure == "lebesgue":
        hz = Homogenizer.lebesgue(action, grid_spec)
    elif measure == "weighted-power":
        hz = Homogenizer.weighted_power(action, float(block.get("power", 1.0)), grid_spec)
    elif measure == "dirac":
        hz = Homogenizer.point_mass(action, block.get("point"), grid_spec)
    else:
        raise ConfigError(f"unknown homogenizer measure {measure!r}")
    override = block.get("factor_override")
    if override is not None:
        # negative-control knob: replace the factor map by a declared rate
        hz = hz.with_factor_map(action.group.character(float(override)))
    return hz


def build_seed_measure(block: dict) -> MeasureDescriptor:
    kind = block.get("kind")
    if kind == "dirac":
        return MeasureDescriptor.dirac(_required(block, "point", "construct.seed_measure."))
    if kind == "uniform":
        box = build_box(_required(block, "box", "construct.seed_measure."),
                        "construct.seed_measure.box")
        return MeasureDescriptor(
            kind="weighted-density",
            dimension=box.dim,
            density=lambda pts: np.ones(np.atleast_2d(pts).shape[0]),
            domain_lows=box.lows,
            domain_highs=box.highs,
        )
    raise ConfigError(f"unknown seed measure kind {kind!r}")


def _pairs(entries, path: str) -> list:
    """``entries`` as (low, high) float pairs; a config error names a bad entry."""
    if not isinstance(entries, list):
        raise ConfigError(f"{path} must be a list of [low, high] pairs")
    pairs = []
    for i, pair in enumerate(entries):
        try:
            low, high = (float(v) for v in pair)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{path}[{i}] must be a [low, high] pair, got {pair!r}") from exc
        pairs.append((low, high))
    return pairs


def build_box(entries, path: str) -> Box:
    """A box from ``[low, high]`` pairs; a config error names a bad entry."""
    pairs = _pairs(entries, path)
    if not pairs:
        raise ConfigError(f"{path} needs at least one [low, high] pair")
    try:
        return Box(tuple(low for low, _ in pairs), tuple(high for _, high in pairs))
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _terms(terms, path: str) -> list:
    """``[frequency, re, im]`` entries as (frequency list, coefficient) pairs."""
    if not isinstance(terms, list):
        raise ConfigError(f"{path} must be a list of [frequency, re, im] terms")
    parsed = []
    for i, term in enumerate(terms):
        try:
            freq, re, im = term
            parsed.append(([freq] if np.isscalar(freq) else list(freq),
                           complex(float(re), float(im))))
        except (TypeError, ValueError) as exc:
            raise ConfigError(
                f"{path}[{i}] must be [frequency, re, im], got {term!r}"
            ) from exc
    return parsed


def build_mean_function(block: dict) -> MeanFunction:
    cls = block.get("class")
    if cls in ("periodic", "almost-periodic"):
        terms = _terms(_required(block, "terms", "mean.function."), "mean.function.terms")
        poly = TrigPolynomial.from_terms(terms)
        if cls == "periodic":
            return MeanFunction.periodic_trig(poly)
        return MeanFunction.almost_periodic(poly)
    if cls == "vanishing":
        limit = block.get("limit", 0.0)
        limit = complex(limit[0], limit[1]) if isinstance(limit, (list, tuple)) else complex(limit)
        dim = int(block.get("dimension", 1))
        profile = block.get("profile", "inverse-square")
        if profile != "inverse-square":
            raise ConfigError(f"unknown vanishing profile {profile!r}")

        def evaluator(pts):
            pts = np.atleast_2d(pts)
            return limit + 1.0 / (1.0 + np.sum(pts**2, axis=1))

        return MeanFunction.vanishing(evaluator, limit, dim)
    raise ConfigError(f"unknown mean-function class {cls!r}")


def build_algebra(block: dict) -> HAlgebra:
    kind = block.get("kind")
    if kind == "periodic":
        return HAlgebra.periodic_lattice(int(block.get("dimension", 1)))
    if kind == "ap-subgroup":
        return HAlgebra.subgroup(_required(block, "generators", "sigma.algebra."),
                                 int(block.get("degree", 8)))
    raise ConfigError(f"unknown algebra kind {kind!r}")


def build_field(block: dict, algebra: HAlgebra, domain: Box, path: str) -> TwoScaleField:
    """The field of a ``sigma.u0`` or ``sigma.battery[i]`` block found at ``path``."""
    terms = []
    for i, term in enumerate(block.get("terms", [])):
        macro = build_test_function(term["macro"], domain.dim)
        element = algebra.from_terms(_terms(term["element"], f"{path}terms[{i}].element"))
        terms.append((macro, element))
    if not terms:
        raise ConfigError("field needs at least one term")
    return TwoScaleField(domain=domain, terms=tuple(terms), name=block.get("name", "field"))


def build_ball(block: dict, key_center: str, key_radius: str, dim: int) -> Ball:
    center = block.get(key_center)
    if center is None:
        center = [0.0] * dim
    return Ball(center=tuple(center), radius=float(block[key_radius]))


def tolerance(cfg: dict, key: str, default: float) -> float:
    block = cfg.get("tolerances") or {}
    return float(block.get(key, default))


def apply_overrides(cfg: dict, overrides) -> None:
    """Apply ``--tol-override key=value`` pairs onto the tolerances block."""
    if not overrides:
        return
    block = cfg.setdefault("tolerances", {})
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"bad override {item!r}, expected key=value")
        key, _, value = item.partition("=")
        key = key.strip()
        if key not in _KNOWN_KEYS["tolerances"]:
            raise ConfigError(f"unknown tolerance {key!r} in {item!r}")
        try:
            block[key] = float(value)
        except ValueError as exc:
            raise ConfigError(f"bad override value in {item!r}") from exc
