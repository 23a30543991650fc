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
from functools import cached_property
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
    """A system's UEs and its variant.  Its layout, ``positions`` and the
    UEs of each class, is derived from the fields on first use and kept in
    the instance's ``__dict__``, outside the fields, so equality, hashing,
    ``replace`` and ``repr`` see only ``ues`` and ``variant``."""

    ues: tuple[UeConfig, ...]
    variant: Variant

    def by_class(self, cls: UeClass) -> tuple[UeConfig, ...]:
        return tuple(u for u in self.ues if u.cls is cls)

    @cached_property
    def positions(self) -> tuple[UeConfig, ...]:
        """The UEs by ascending id: a UE's *position* is its index here,
        and every engine's per-UE state is indexed by it (see ``rng``)."""
        return tuple(sorted(self.ues, key=lambda u: u.id))

    @cached_property
    def aoi_ues(self) -> tuple[UeConfig, ...]:
        return self.by_class(UeClass.AOI)

    @cached_property
    def latency_ues(self) -> tuple[UeConfig, ...]:
        return self.by_class(UeClass.LATENCY)

    @cached_property
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


def _check_ue(ue: UeConfig, variant: Variant) -> None:
    # a message is formatted only once its check has failed
    i, cls = ue.id, ue.cls
    if not (isinstance(i, int) and not isinstance(i, bool) and i >= 0):
        raise ScenarioError(f"ue {i}: id must be a small nonnegative integer")
    for key in ("p", "q", "rho", "beta", "alpha"):
        value = getattr(ue, key)
        # float and int before the ABC check, which costs microseconds
        number = type(value) is float or type(value) is int or (
            value is not None and isinstance(value, numbers.Real) and not isinstance(value, bool))
        if not ((number and math.isfinite(value)) or (value is None and key != "p")):
            raise ScenarioError(f"ue {i}: {key} must be a finite number, got {value!r}")
    if not 0.0 < ue.p <= 1.0:
        raise ScenarioError(f"ue {i}: p must be in (0, 1], got {ue.p}")
    if cls is UeClass.THROUGHPUT:
        if ue.q is not None:
            raise ScenarioError(f"ue {i}: throughput class never specifies q (always backlogged)")
        if ue.alpha is None:
            raise ScenarioError(f"ue {i}: throughput class requires alpha")
        if not 0.0 < ue.alpha < 1.0:
            raise ScenarioError(f"ue {i}: alpha must be in (0, 1), got {ue.alpha}")
        if ue.rho is not None:
            raise ScenarioError(f"ue {i}: rho does not apply to throughput class")
        if ue.beta is not None:
            raise ScenarioError(f"ue {i}: beta does not apply to throughput class")
        return
    if ue.q is None:
        raise ScenarioError(f"ue {i}: {cls.value} class requires q")
    if not 0.0 < ue.q <= 1.0:
        raise ScenarioError(f"ue {i}: q must be in (0, 1], got {ue.q}")
    if cls is UeClass.AOI:
        if ue.rho is None or not ue.rho > 0:
            raise ScenarioError(f"ue {i}: aoi class requires rho > 0")
        if ue.beta is not None:
            raise ScenarioError(f"ue {i}: beta does not apply to aoi class")
        if ue.alpha is not None:
            raise ScenarioError(f"ue {i}: alpha does not apply to aoi class")
        return
    if ue.alpha is not None:
        raise ScenarioError(f"ue {i}: alpha does not apply to latency class")
    if variant is Variant.LATENCY_WEIGHTED:
        if ue.rho is None or not ue.rho > 0:
            raise ScenarioError(f"ue {i}: latency class requires rho > 0 in weighted scenarios")
        if ue.beta is not None:
            raise ScenarioError(f"ue {i}: beta applies only to constrained scenarios")
    else:
        if ue.beta is None:
            raise ScenarioError(f"ue {i}: latency class requires beta in constrained scenarios")
        if not ue.beta >= 1.0:
            raise ScenarioError(f"ue {i}: beta must be at least 1 (any delivery takes a slot)")
        if ue.rho is not None:
            raise ScenarioError(f"ue {i}: rho applies only to weighted scenarios")


def check_structure(scenario: Scenario) -> None:
    """Raise :class:`ScenarioError` on any structural violation."""
    if not scenario.ues:
        raise ScenarioError("scenario needs at least one ue")
    seen: set[int] = set()
    for ue in scenario.ues:
        _check_ue(ue, scenario.variant)
        if ue.id in seen:
            raise ScenarioError(f"duplicate ue id {ue.id}")
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
        if u.beta is None:
            raise ScenarioError(f"ue {u.id}: beta required")
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
