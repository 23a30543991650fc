"""Scenario definitions and feasibility checks.

A scenario is a set of users (UEs) served by a single base station, one
transmission opportunity per slot.  Each UE belongs to exactly one service
class:

* ``aoi`` -- wants fresh information; cost weight ``rho`` applies to its
  long-run average age (slots since the arrival of the newest delivered
  packet).
* ``latency`` -- every packet must be delivered; carries either a cost
  weight ``rho`` (weighted-objective scenarios) or a latency ceiling
  ``beta`` (constrained scenarios).
* ``throughput`` -- always backlogged (a fresh packet is available every
  slot); requires long-run delivery rate at least ``alpha``.

Feasibility of the slot budget requires

    sum_j q_j/p_j  +  sum_k alpha_k/p_k  <  1        (strictly)

over latency UEs j and throughput UEs k; the leftover ``zeta`` is the
attempt budget available to AoI traffic.
"""

from __future__ import annotations

import enum
import json
import math
import numbers
from dataclasses import dataclass, replace
from pathlib import Path


class UeClass(enum.Enum):
    AOI = "aoi"
    LATENCY = "latency"
    THROUGHPUT = "throughput"


class Variant(enum.Enum):
    """Which optimisation problem the scenario instantiates."""

    LATENCY_CONSTRAINED = "latency_constrained"  # latency UEs carry beta
    LATENCY_WEIGHTED = "latency_weighted"        # latency UEs carry rho


class ScenarioError(ValueError):
    """Structural problem in a scenario definition (not infeasibility)."""


@dataclass(frozen=True)
class UeConfig:
    """One UE's class and parameters.

    Fields not applicable to the class must be left as ``None``; they are
    never defaulted silently.  Throughput UEs never specify ``q`` (they are
    treated as perpetually backlogged).
    """

    id: int
    cls: UeClass
    p: float
    q: float | None = None
    rho: float | None = None
    beta: float | None = None
    alpha: float | None = None


@dataclass(frozen=True)
class Scenario:
    ues: tuple[UeConfig, ...]
    variant: Variant

    def by_class(self, cls: UeClass) -> tuple[UeConfig, ...]:
        return tuple(u for u in self.ues if u.cls is cls)

    @property
    def aoi_ues(self) -> tuple[UeConfig, ...]:
        return self.by_class(UeClass.AOI)

    @property
    def latency_ues(self) -> tuple[UeConfig, ...]:
        return self.by_class(UeClass.LATENCY)

    @property
    def throughput_ues(self) -> tuple[UeConfig, ...]:
        return self.by_class(UeClass.THROUGHPUT)


@dataclass(frozen=True)
class FeasibilityReport:
    """Outcome of :func:`validate`.  Infeasibility is a legal report."""

    load: float
    feasible: bool
    zeta: float
    theta_sum: float | None = None
    rd_feasible: bool | None = None


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ScenarioError(msg)


def _check_ue(ue: UeConfig, variant: Variant) -> None:
    name = f"ue {ue.id}"
    _require(isinstance(ue.id, int) and not isinstance(ue.id, bool) and ue.id >= 0,
             f"{name}: id must be a small nonnegative integer")
    for key in ("p", "q", "rho", "beta", "alpha"):
        value = getattr(ue, key)
        number = isinstance(value, numbers.Real) and not isinstance(value, bool)
        _require((number and math.isfinite(value)) or (value is None and key != "p"),
                 f"{name}: {key} must be a finite number, got {value!r}")
    _require(0.0 < ue.p <= 1.0, f"{name}: p must be in (0, 1], got {ue.p}")
    if ue.cls is UeClass.AOI:
        _require(ue.q is not None, f"{name}: aoi class requires q")
        _require(0.0 < ue.q <= 1.0, f"{name}: q must be in (0, 1], got {ue.q}")
        _require(ue.rho is not None and ue.rho > 0, f"{name}: aoi class requires rho > 0")
        _require(ue.beta is None, f"{name}: beta does not apply to aoi class")
        _require(ue.alpha is None, f"{name}: alpha does not apply to aoi class")
    elif ue.cls is UeClass.LATENCY:
        _require(ue.q is not None, f"{name}: latency class requires q")
        _require(0.0 < ue.q <= 1.0, f"{name}: q must be in (0, 1], got {ue.q}")
        _require(ue.alpha is None,
                 f"{name}: alpha does not apply to latency class")
        if variant is Variant.LATENCY_WEIGHTED:
            _require(ue.rho is not None and ue.rho > 0,
                     f"{name}: latency class requires rho > 0 in weighted scenarios")
            _require(ue.beta is None, f"{name}: beta applies only to constrained scenarios")
        else:
            _require(ue.beta is not None,
                     f"{name}: latency class requires beta in constrained scenarios")
            _require(ue.beta >= 1.0,
                     f"{name}: beta must be at least 1 (any delivery takes a slot)")
            _require(ue.rho is None, f"{name}: rho applies only to weighted scenarios")
    else:  # THROUGHPUT
        _require(ue.q is None, f"{name}: throughput class never specifies q (always backlogged)")
        _require(ue.alpha is not None, f"{name}: throughput class requires alpha")
        _require(0.0 < ue.alpha < 1.0, f"{name}: alpha must be in (0, 1), got {ue.alpha}")
        _require(ue.rho is None, f"{name}: rho does not apply to throughput class")
        _require(ue.beta is None, f"{name}: beta does not apply to throughput class")


def check_structure(scenario: Scenario) -> None:
    """Raise :class:`ScenarioError` on any structural violation."""
    _require(len(scenario.ues) >= 1, "scenario needs at least one ue")
    seen: set[int] = set()
    for ue in scenario.ues:
        _check_ue(ue, scenario.variant)
        _require(ue.id not in seen, f"duplicate ue id {ue.id}")
        seen.add(ue.id)


def validate(scenario: Scenario) -> FeasibilityReport:
    """Check the slot budget; pure, never mutates the scenario.

    Infeasible scenarios produce ``feasible=False`` rather than an error;
    only structural violations raise.
    """
    check_structure(scenario)
    load = sum(u.q / u.p for u in scenario.latency_ues)
    load += sum(u.alpha / u.p for u in scenario.throughput_ues)
    zeta = 1.0 - load
    ts = rd = None
    if scenario.variant is Variant.LATENCY_CONSTRAINED and scenario.latency_ues:
        ts = theta_sum(scenario)
        rd = ts <= 1.0
    return FeasibilityReport(load=load, feasible=load < 1.0, zeta=zeta,
                             theta_sum=ts, rd_feasible=rd)


def theta_j(q: float, p: float, beta: float) -> float:
    """Per-slot service share that pins a latency UE's average at ``beta``."""
    return (q + (1.0 - q) / beta) / p


def theta_sum(scenario: Scenario) -> float:
    """Total service share claimed by the latency UEs' ceilings."""
    if scenario.variant is not Variant.LATENCY_CONSTRAINED:
        raise ScenarioError("theta_sum applies to latency-constrained scenarios only")
    for u in scenario.latency_ues:
        _require(u.beta is not None, f"ue {u.id}: beta required")
    return sum(theta_j(u.q, u.p, u.beta) for u in scenario.latency_ues)


# ---------------------------------------------------------------------------
# Scenario file format (JSON): top-level "variant" plus a "ue" list; each
# entry carries "id", "class" and the class-appropriate subset of
# q / p / rho / beta / alpha.  Unknown keys are rejected.

_UE_KEYS = {"id", "class", "q", "p", "rho", "beta", "alpha"}


def scenario_from_dict(doc: dict) -> Scenario:
    if not isinstance(doc, dict):
        raise ScenarioError("scenario document must be a mapping")
    unknown = set(doc) - {"variant", "ue"}
    if unknown:
        raise ScenarioError(f"unknown top-level keys: {sorted(unknown)}")
    try:
        variant = Variant(doc["variant"])
    except KeyError:
        raise ScenarioError("missing top-level 'variant'") from None
    except ValueError:
        raise ScenarioError(f"unknown variant {doc['variant']!r}") from None
    entries = doc.get("ue")
    if not isinstance(entries, list) or not entries:
        raise ScenarioError("'ue' must be a non-empty list")
    ues = []
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise ScenarioError(f"ue[{i}]: must be a mapping")
        unknown = set(entry) - _UE_KEYS
        if unknown:
            raise ScenarioError(f"ue[{i}]: unknown keys {sorted(unknown)}")
        for key in ("id", "class", "p"):
            if key not in entry:
                raise ScenarioError(f"ue[{i}]: missing '{key}'")
        try:
            cls = UeClass(entry["class"])
        except ValueError:
            raise ScenarioError(f"ue[{i}]: unknown class {entry['class']!r}") from None
        ues.append(UeConfig(
            id=entry["id"], cls=cls, p=entry["p"], q=entry.get("q"),
            rho=entry.get("rho"), beta=entry.get("beta"), alpha=entry.get("alpha"),
        ))
    scenario = Scenario(ues=tuple(ues), variant=variant)
    check_structure(scenario)
    return scenario


def scenario_to_dict(scenario: Scenario) -> dict:
    entries = []
    for u in scenario.ues:
        entry: dict = {"id": u.id, "class": u.cls.value, "p": u.p}
        for key in ("q", "rho", "beta", "alpha"):
            value = getattr(u, key)
            if value is not None:
                entry[key] = value
        entries.append(entry)
    return {"variant": scenario.variant.value, "ue": entries}


def load_scenario(path: str | Path) -> Scenario:
    try:
        text = Path(path).read_text()
    except UnicodeDecodeError as exc:
        raise ScenarioError(f"{path}: not a text file ({exc})") from None
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{path}: not valid JSON ({exc})") from None
    return scenario_from_dict(doc)


def save_scenario(scenario: Scenario, path: str | Path) -> None:
    Path(path).write_text(json.dumps(scenario_to_dict(scenario), indent=2) + "\n")


def replace_param(scenario: Scenario, ue_id: int, **fields) -> Scenario:
    """Return a copy of the scenario with one UE's fields replaced."""
    if ue_id not in {u.id for u in scenario.ues}:
        raise ScenarioError(f"no ue with id {ue_id}")
    return replace(scenario, ues=tuple(replace(u, **fields) if u.id == ue_id else u
                                       for u in scenario.ues))
