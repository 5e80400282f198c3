"""Experiment configuration: one typed schema, one validating walk, object builders.

:func:`validate_config` walks a YAML mapping against ``_SCHEMA`` once: it
rejects unknown and missing keys, converts every value and names the path of
a bad entry in a :class:`ConfigError` (exit code 2 at the CLI).  Builders read
only converted values and add the checks that relate two fields.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import replace
from typing import NamedTuple

import numpy as np
import yaml

from .actions import CENTER_TOL, Action, Ball, DiagonalScaling, ExpSemigroup, ProductAction
from .algebra import HAlgebra
from .groups import RGroup
from .meanvalue import MeanFunction
from .measures import (
    DEFAULT_TAIL_CUT,
    ConstructedMeasure,
    Homogenizer,
    Lebesgue,
    PointMass,
    TestFunction,
    bump,
    construct_measure,
    default_battery,
    gaussian,
    mollifier,
    parabola,
    triangle,
)
from .quadrature import Box, GridSpec
from .sigma import TwoScaleField
from .trig import TrigPolynomial


class ConfigError(ValueError):
    """A configuration file failed to parse or validate."""


def load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = yaml.load(handle, Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader))
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f" at line {mark.line + 1}, column {mark.column + 1}" if mark else ""
        raise ConfigError(f"malformed config{where}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config root must be a mapping")
    return data


@contextmanager
def _at(path: str):
    """Re-raise a ``TypeError`` or ``ValueError`` as a config error naming ``path``."""
    try:
        yield
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc


# -- schema ----------------------------------------------------------------------
# A node is a mapping from keys to nodes, a _Variants mapping, a one-entry list
# (a list of that node), a _Then, or a converter of a leaf value.


class _Required(NamedTuple):  # a key its mapping must carry
    node: object


class _Variants(NamedTuple):  # a mapping whose ``tag`` key picks its schema
    tag: str
    choices: dict
    default: str | None = None


class _Then(NamedTuple):  # ``node`` converted, then passed to ``build``
    node: object
    build: object


def _floats(value) -> list:
    """A number or a list of numbers, as a list of floats."""
    return [float(v) for v in value] if isinstance(value, list) else [float(value)]


def _row(shape: str, *converters):
    """The converter of a list of ``len(converters)`` entries such as ``[low, high]``."""
    def convert(value) -> tuple:
        if not isinstance(value, list) or len(value) != len(converters):
            raise ValueError(f"must be {shape}, got {value!r}")
        return tuple(c(v) for c, v in zip(converters, value))
    return convert


def _positive(convert):
    """The converter ``convert`` that also rejects a value that is not above zero."""
    def check(value):
        value = convert(value)
        if not value > 0:
            raise ValueError(f"must be positive, got {value!r}")
        return value
    return check


def _one_of(*names):
    def choose(value):
        if value not in names:
            raise ValueError(f"must be one of {list(names)}, got {value!r}")
        return value
    return choose


def _label(value):
    if not isinstance(value, (str, int, float)):
        raise TypeError(f"a name must be a string or a number, got {value!r}")
    return value


def _box(pairs: list) -> Box:
    if not pairs:
        raise ValueError("needs at least one [low, high] pair")
    return Box(tuple(low for low, _ in pairs), tuple(high for _, high in pairs))


_BOX = _Then([_row("a [low, high] pair", float, float)], _box)
# a [frequency, re, im] term as (frequency list, coefficient)
_TERMS = _Required([_Then(_row("[frequency, re, im]", _floats, float, float),
                          lambda t: (t[0], complex(t[1], t[2])))])
_POINT = _Required(_floats)
_TEST_FUNCTION = _Variants("kind", {
    "gaussian": {"center": _POINT, "sigma": _Required(float), "name": _label},
    "bump": {"center": _POINT, "width": _Required(float), "name": _label},
    "triangle": {"center": _POINT, "width": _Required(float), "name": _label},
    "mollifier": {"center": _POINT, "width": _Required(float), "name": _label},
    "parabola": {"box": _Required(_BOX), "name": _label},
})
_ACTION = _Variants("variant", {
    "diagonal-scaling": {"exponents": _Required([int])},
    "exp-semigroup": {"k": _Required(float), "matrix": _Required([[float]])},
    "product": {},
})
_ACTION.choices["product"]["factors"] = _Required([_ACTION])
_FIELD = {"name": _label,
          "terms": _Required([{"macro": _Required(_TEST_FUNCTION), "element": _TERMS}])}
_SCHEMA = {
    "seed": int,
    "group": {"kind": _Required(str), "weight_param": float},
    "action": _ACTION,
    "ladder": {"count": int, "step": float, "values": [float]},
    "grid": {"rule": _one_of("midpoint", "gauss"), "base_nodes": _positive(int),
             "panel_order": _positive(int), "max_nodes": _positive(int)},
    "tolerances": {"rel": float, "decay_order": float},
    "battery": [_TEST_FUNCTION],
    "absorption": {"source_center": _floats, "source_radius": _Required(float),
                   "target_radius": _Required(float), "directions_per_dim": int},
    "escape": {"point": _POINT, "radius": _Required(float)},
    "contraction": {"eps": float, "starts": int, "tol": float, "max_iter": int,
                    "pairs": _positive(int)},
    "homogenizer": _Variants("measure", {
        "lebesgue": {"factor_override": float},
        "weighted-power": {"factor_override": float, "power": float},
        "dirac": {"factor_override": float, "point": _floats},
    }, default="lebesgue"),
    "construct": {
        "seed_measure": _Variants("kind", {"dirac": {"point": _POINT},
                                           "uniform": {"box": _Required(_BOX)}}),
        "tail_cut": _positive(float),
    },
    "mean": {
        "function": _Required(_Variants("class", {
            "periodic": {"terms": _TERMS},
            "almost-periodic": {"terms": _TERMS},
            "vanishing": {"limit": _floats},
        })),
        "phi": _TEST_FUNCTION,
        "shift": _floats,
        "kernel": _TEST_FUNCTION,
    },
    "sigma": {
        "algebra": _Variants("kind", {
            "periodic": {"dimension": int},
            "ap-subgroup": {"dimension": int, "generators": _Required([_floats]), "degree": int},
        }),
        "domain": _BOX,
        "u0": _Required(_FIELD),
        "battery": [_FIELD],
        "p": float,
    },
}


def _walk(value, node, path: str):
    """``value`` converted against schema ``node``; ``path`` names it in errors."""
    if isinstance(node, list):
        if not isinstance(value, list):
            raise ConfigError(f"{path} must be a list, got {value!r}")
        return [_walk(entry, node[0], f"{path}[{i}]") for i, entry in enumerate(value)]
    if isinstance(node, _Then):
        value, node = _walk(value, node.node, path), node.build
    if not isinstance(node, (dict, _Variants)):
        with _at(path):
            return node(value)
    if not isinstance(value, dict):
        raise ConfigError(f"{path or 'config root'} must be a mapping, got {value!r}")
    prefix = f"{path}." if path else ""
    if isinstance(node, _Variants):
        tag = value.get(node.tag, node.default)
        if not isinstance(tag, str) or tag not in node.choices:
            raise ConfigError(f"unknown {prefix}{node.tag} {tag!r} (known: {sorted(node.choices)})")
        value, node = {node.tag: tag, **value}, {node.tag: str, **node.choices[tag]}
    for key in value:
        if key not in node:
            raise ConfigError(f"unknown key {prefix}{key!r} (known: {sorted(node)})")
    out = {}
    for key, child in node.items():
        if isinstance(child, _Required) and key not in value:
            raise ConfigError(f"missing key {prefix}{key!r}")
        if key in value:
            out[key] = _walk(value[key], child.node if isinstance(child, _Required) else child,
                             prefix + key)
    return out


def validate_config(cfg: dict) -> dict:
    """``cfg`` with every value converted; an unknown or missing key or a
    malformed value is a config error naming its path."""
    return _walk(cfg, _SCHEMA, "")


def apply_overrides(cfg: dict, overrides) -> None:
    """Copy ``--tol-override key=value`` pairs into the raw tolerances block,
    which :func:`validate_config` then checks like any other."""
    for item in overrides or ():
        key, sep, value = item.partition("=")
        if not sep:
            raise ConfigError(f"bad override {item!r}, expected key=value")
        if isinstance(cfg.setdefault("tolerances", {}), dict):
            cfg["tolerances"][key.strip()] = value


# -- builders: each reads blocks that validate_config returned --------------------


def check_dimension(path: str, got: int, dim: int) -> None:
    """A config error unless ``got``, the dimension of the entry at ``path``, is ``dim``."""
    if got != dim:
        raise ConfigError(f"{path} has dimension {got}, the action's is {dim}")


def build_action(cfg: dict) -> Action:
    with _at("group"):
        group = RGroup(**cfg.get("group", {"kind": "positive-multiplicative"}))
    with _at("action"):
        return _action(cfg.get("action", {"variant": "diagonal-scaling", "exponents": [1]}), group)


def _action(block: dict, group: RGroup) -> Action:
    variant = block["variant"]
    if variant == "diagonal-scaling":
        return DiagonalScaling(tuple(block["exponents"]), group=group)
    if variant == "exp-semigroup":
        return ExpSemigroup.from_matrix(block["k"], block["matrix"], group=group)
    return ProductAction(factors=tuple(_action(b, group) for b in block["factors"]))


def build_ladder(cfg: dict, group: RGroup, min_rungs: int = 1) -> list:
    """The ladder of group elements; a verdict that fits a decay order asks
    for ``min_rungs=2``, since one rung gives no slope."""
    block = cfg.get("ladder", {})
    if "values" not in block:
        count = block.get("count", 12)
        with _at("ladder.count" if count < 1 else "ladder.step"):
            ladder = list(group.ladder(count, block.get("step")))
    else:
        ladder = []
        for i, value in enumerate(block["values"]):
            with _at(f"ladder.values[{i}]"):
                ladder.append(group.validate(value))
        if not ladder or any(b >= a for a, b in zip(ladder, ladder[1:])):
            raise ConfigError("ladder.values must be a non-empty, strictly decreasing list")
    if len(ladder) < min_rungs:
        raise ConfigError(f"ladder has {len(ladder)} rung(s); a decay order needs {min_rungs}")
    return ladder


def build_grid_spec(cfg: dict) -> GridSpec:
    """The ``grid`` block's spec.  ``rule: gauss`` means Gauss-Legendre panels
    of ``panel_order`` nodes (default 16); ``rule: midpoint``, the default,
    means one-node panels and takes no ``panel_order``."""
    block = dict(cfg.get("grid", {}))
    if block.pop("rule", "midpoint") == "gauss":
        return GridSpec(**{"panel_order": 16, **block})
    if "panel_order" in block:
        raise ConfigError("grid.panel_order: the midpoint rule has no panels; set grid.rule: gauss")
    return GridSpec(**block)


def build_test_function(block: dict, dim: int, path: str) -> TestFunction:
    kind, name = block["kind"], block.get("name")
    if kind == "parabola":
        check_dimension(f"{path}.box", block["box"].dim, dim)
        return parabola(block["box"], name)
    center = block["center"]
    check_dimension(f"{path}.center", len(center), dim)
    with _at(path):  # a support box of non-positive width
        if kind == "gaussian":
            return gaussian(center, block["sigma"], name)
        if kind == "triangle":
            return triangle(center[0], block["width"], name)
        return (bump if kind == "bump" else mollifier)(center, block["width"], name)


def build_battery(cfg: dict, dim: int, edge_checked: bool = False) -> list:
    """The ``battery`` block's test functions, or the default battery.

    With ``edge_checked`` (the homogeneity subcommand, whose Lebesgue
    pushforwards judge the mass on the grid's boundary) a parabola is
    rejected: its support is its exact box, so its edge nodes carry about
    6 / n^2 of its mass and no grid passes the check.
    """
    entries = cfg.get("battery")
    if not entries:
        return default_battery(dim)
    for i, block in enumerate(entries):
        if edge_checked and block["kind"] == "parabola":
            raise ConfigError(f"battery[{i}]: a parabola's mass reaches its support's edge, "
                              "so every Lebesgue pushforward's edge check rejects it")
    return [build_test_function(b, dim, f"battery[{i}]") for i, b in enumerate(entries)]


def build_absorption(block: dict, action: Action) -> tuple[Ball, Ball]:
    center = block.get("source_center", [0.0] * action.dimension)
    check_dimension("absorption.source_center", len(center), action.dimension)
    with _at("absorption"):
        return (Ball(center=center, radius=block["source_radius"]),
                Ball(center=tuple(action.center()), radius=block["target_radius"]))


def build_escape(block: dict, action: Action) -> np.ndarray:
    """The ``escape`` block's point, which must lie off the action's center."""
    point = np.asarray(block["point"])
    check_dimension("escape.point", len(point), action.dimension)
    if np.linalg.norm(point - action.center()) <= CENTER_TOL:
        raise ConfigError("escape.point: escape is undefined at the action's center")
    return point


def build_contraction(cfg: dict, group: RGroup) -> dict:
    """The ``contraction`` block with its defaults, ``eps`` a group element."""
    block = {"starts": 10, "tol": 1e-12, "max_iter": 10**5, "pairs": 256,
             **cfg.get("contraction", {})}
    if block["starts"] < 1:
        raise ConfigError("contraction.starts must be at least 1")
    with _at("contraction.eps"):
        block["eps"] = group.validate(block.get("eps", group.ladder(1)[0]))
    return block


def build_homogenizer(cfg: dict, action: Action) -> Homogenizer:
    grid_spec = build_grid_spec(cfg)
    block = cfg.get("homogenizer", {"measure": "lebesgue"})
    if block["measure"] == "weighted-power":
        if not isinstance(action, DiagonalScaling) or action.dimension != 1:
            raise ConfigError("homogenizer.measure: weighted-power needs a 1-D diagonal scaling")
        hz = Homogenizer.weighted_power(action, block.get("power", 1.0), grid_spec)
    elif block["measure"] == "dirac":
        if "point" in block:
            check_dimension("homogenizer.point", len(block["point"]), action.dimension)
        hz = Homogenizer.point_mass(action, block.get("point"), grid_spec)
    else:
        hz = Homogenizer.lebesgue(action, grid_spec)
    if "factor_override" in block:
        # negative-control knob: replace the factor map by a declared rate
        hz = replace(hz, factor_map=action.group.character(block["factor_override"]))
    return hz


def build_seed_measure(block: dict, dim: int) -> Lebesgue | PointMass:
    if block["kind"] == "dirac":
        check_dimension("construct.seed_measure.point", len(block["point"]), dim)
        return PointMass(block["point"])
    box = block["box"]
    check_dimension("construct.seed_measure.box", box.dim, dim)
    return Lebesgue(domain=box)


def build_constructed_measure(cfg: dict, action: Action) -> ConstructedMeasure:
    block = cfg.get("construct", {})
    seed = build_seed_measure(block.get("seed_measure", {"kind": "dirac", "point": [1.0]}),
                              action.dimension)
    with _at("construct.seed_measure"):
        return construct_measure(action, seed,
                                 tail_cut=block.get("tail_cut", DEFAULT_TAIL_CUT))


def build_mean_function(block: dict, dim: int) -> MeanFunction:
    cls = block["class"]
    if cls == "vanishing":
        with _at("mean.function.limit"):
            limit = complex(*block.get("limit", [0.0]))

        def evaluator(pts):
            pts = np.atleast_2d(pts)
            return limit + 1.0 / (1.0 + np.sum(pts**2, axis=1))

        u = MeanFunction.vanishing(evaluator, limit, dim)
    else:
        with _at("mean.function.terms"):
            poly = TrigPolynomial.from_terms(block["terms"], dim)
            u = MeanFunction.periodic_trig(poly) if cls == "periodic" else MeanFunction.almost_periodic(poly)
    check_dimension("mean.function", u.dimension, dim)
    return u


def build_algebra(block: dict, dim: int) -> HAlgebra:
    with _at("sigma.algebra"):
        algebra = HAlgebra(**{"dimension": dim, **block})
    check_dimension("sigma.algebra", algebra.dimension, dim)
    return algebra


def build_field(block: dict, algebra: HAlgebra, domain: Box, path: str) -> TwoScaleField:
    """The field of a ``sigma.u0`` or ``sigma.battery[i]`` block found at ``path``."""
    terms = []
    for i, term in enumerate(block["terms"]):
        macro = build_test_function(term["macro"], domain.dim, f"{path}.terms[{i}].macro")
        with _at(f"{path}.terms[{i}].element"):
            terms.append((macro, algebra.from_terms(term["element"])))
    with _at(path):
        return TwoScaleField(domain=domain, terms=tuple(terms), name=block.get("name", "field"))
