"""Mutation rows: each injects one plausible defect in process, runs the CLI
on a committed config and requires the named verdict to read FAIL.

Every row first runs the same config without its defect, where the verdict
must pass, so a row cannot succeed because the verdict never passes.
"""

import dataclasses
import glob
import json
import os

import numpy as np
import pytest

from scaleflow import cli, meanvalue
from scaleflow import config as cfg_mod
from scaleflow.actions import Action, DiagonalScaling
from scaleflow.groups import RGroup
from scaleflow.sigma import TwoScaleField
from scaleflow.trig import TrigPolynomial

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")


def _off_identity(params, identity: float):
    """1 at the group identity, 1 + 1e-6 elsewhere, elementwise."""
    return np.where(np.asarray(params) == identity, 1.0, 1.0 + 1e-6)


def _scale_the_scales(monkeypatch):
    # H_a H_b and H_ab now differ by a factor 1 + 1e-6.  Raising the scales
    # to the power 1 + 1e-6 instead leaves eps -> eps**(-r (1 + 1e-6)), still
    # a homomorphism, which no group-law sample can tell from the real one.
    scales = DiagonalScaling._scales
    monkeypatch.setattr(DiagonalScaling, "_scales",
                        lambda self, params: scales(self, params) * _off_identity(params, 1.0)[..., None])


def _offset_the_center(monkeypatch):
    center = Action.center
    monkeypatch.setattr(Action, "center", lambda self: center(self) + 1e-9)


def _scale_the_factor_map(monkeypatch):
    build = cfg_mod.build_homogenizer

    def scaled(cfg, action):
        hz = build(cfg, action)
        c, identity = hz.factor_map, action.group.identity
        return dataclasses.replace(hz, factor_map=lambda eps: c(eps) * _off_identity(eps, identity))

    monkeypatch.setattr(cfg_mod, "build_homogenizer", scaled)


def _scale_method(cls, name: str, factor: float):
    # every value the method returns, times factor
    def mutate(monkeypatch):
        method = getattr(cls, name)
        monkeypatch.setattr(cls, name, lambda self, *args: method(self, *args) * factor)
    return mutate


def _scale_the_closed_form_mean(monkeypatch):
    # the limit empirical_mean measures against; cli.mean only prints it
    mean = meanvalue.mean
    monkeypatch.setattr(meanvalue, "mean", lambda u: mean(u) * 1.001)


def _scale_the_translate(monkeypatch):
    # the translate's coefficients 1e-3 off, its frequencies exact
    translate = meanvalue.MeanFunction.translate

    def scaled(self, shift):
        moved = translate(self, shift)
        poly = TrigPolynomial(moved.poly.freqs, moved.poly.coeffs * 1.001)
        return dataclasses.replace(moved, poly=poly)

    monkeypatch.setattr(meanvalue.MeanFunction, "translate", scaled)


# (subcommand, config stem, verdict the defect must flip, defect)
ROWS = {
    "diagonal-scales-times-1+1e-6": ("verify-action", "verify_action", "group-law", _scale_the_scales),
    "center-offset-1e-9": ("contract", "contract", "fixed-point", _offset_the_center),
    "factor-map-times-1+1e-6": ("homogeneity", "homogeneity_r2", "factor-multiplicative",
                                _scale_the_factor_map),
    "volume-factor-times-1+1e-4": ("homogeneity", "homogeneity_r2", "homogeneity",
                                   _scale_method(DiagonalScaling, "volume_factor", 1.0 + 1e-4)),
    "group-weight-times-1+1e-4": ("construct-measure", "construct_measure", "construct-homogeneity",
                                  _scale_method(RGroup, "weight", 1.0 + 1e-4)),
    # the final error stays at 5e-4, under rel = 1e-2; the fitted order drops to 0
    "closed-form-mean-times-1.001": ("mean", "mean_periodic", "empirical-mean-order",
                                     _scale_the_closed_form_mean),
    "envelope-norm-times-0.99": ("sigma", "sigma_periodic", "trace-norm-bound",
                                 _scale_method(TwoScaleField, "envelope_norm", 0.99)),
    "translate-coefficients-times-1.001": ("mean", "mean_periodic", "translation-invariance",
                                           _scale_the_translate),
}


def _verdicts(tmp_path, subcommand: str, stem: str) -> dict:
    """Verdict name -> "pass" or "FAIL", from the ``verdicts`` array of the
    one JSON report a CLI run writes."""
    config = os.path.join(CONFIG_DIR, f"{stem}.yaml")
    cli.main([subcommand, "--config", config, "--out", str(tmp_path)])
    (path,) = glob.glob(os.path.join(tmp_path, "*.json"))
    with open(path, encoding="utf-8") as handle:
        verdicts = json.load(handle)["verdicts"]
    return {v["name"]: "pass" if v["passed"] else "FAIL" for v in verdicts}


@pytest.mark.parametrize("row", sorted(ROWS))
def test_mutation_flips_its_verdict(row, monkeypatch, tmp_path):
    subcommand, stem, verdict, mutate = ROWS[row]
    assert _verdicts(tmp_path / "clean", subcommand, stem)[verdict] == "pass"
    mutate(monkeypatch)
    assert _verdicts(tmp_path / "mutated", subcommand, stem)[verdict] == "FAIL"
