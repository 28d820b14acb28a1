"""Experiment configuration: a strict, versioned JSON schema.

A configuration describes one manifold family with parameter ranges (dimension
list, density amplitude list, grid sizes), the estimate constants, the checks
to run, tolerances, and output destinations.  Unknown keys are rejected at
every level, because a silently ignored typo can corrupt an entire sweep, and
so is a key the named family (``FAMILY_KEYS``) or density (``DENSITY_KEYS``)
does not take.  Every family resolves to one length ``L``, ``length`` or
``pi * radius``: the round warp of length ``L`` is the round sphere of radius
``L/pi``, whose Einstein constant is ``(n-1)/(L/pi)^2``.  Each density, also
the soliton potential, resolves to one (label, coefficients) pair per instance.
Two retired keys are still read, so that older version-1 files parse:
``l_max`` (an integer >= 1) and ``workers`` (exactly 1).  Neither selects
anything, and any other value is a config error.
"""

from __future__ import annotations

import itertools
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

from .errors import ConfigError
from . import geometry

SCHEMA_VERSION = 1

# each family's keys beyond "name" and "density": (required, optional)
FAMILY_KEYS = {"sphere": (("n",), ("radius",)),
               "stretched-sphere": (("n", "length"), ()),
               "circle": (("length",), ("n",))}
DENSITY_KEYS = {"zero": (), "cosine": ("eps",), "poly-cos": ("coeffs",)}  # beyond "name"
# names are checked against tuples first: a JSON list as a name is then unequal
# to each, where a dict lookup would raise TypeError
MANIFOLD_FAMILIES = tuple(FAMILY_KEYS)
DENSITY_FAMILIES = tuple(DENSITY_KEYS)
CHECK_NAMES = ("spectrum", "bounds", "estimates", "soliton")
FORMATS = ("csv", "json")

DEFAULT_TOLERANCES = {
    "spectrum": 1e-3,  # the soliton check's membership window; the spectrum check reads none
    "bound_margin": 1e-6,
    "gradient": 1e-2,
    "dominance": 1e-2,
    "holder": 1e-8,
    "soliton": 1e-8,
}


def _require_keys(obj: dict, where: str, required: tuple, optional: tuple):
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be a JSON object, got {obj!r}")
    unknown = set(obj) - set(required) - set(optional)
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {sorted(unknown)}")
    missing = set(required) - set(obj)
    if missing:
        raise ConfigError(f"missing key(s) in {where}: {sorted(missing)}")


def _as_list(value, name: str, kind):
    """Finite floats or exact ints from a value or list; ``[value]`` admits one scalar."""
    items = value if isinstance(value, list) else [value]
    if not items:
        raise ConfigError(f"{name} must be a non-empty value or list")
    out = []
    for item in items:
        number = isinstance(item, (int, float)) and not isinstance(item, bool)
        # finite, compared as is: math.isfinite overflows on ints beyond float range
        if kind is float and number and abs(item) <= sys.float_info.max:
            out.append(float(item))
        elif kind is int and number and isinstance(item, int):
            out.append(int(item))
        else:
            raise ConfigError(f"{name} entries must be finite {kind.__name__}, got {item!r}")
    return tuple(out)


def _scalar(value, name: str, kind, ok, rule: str):
    """One finite float or exact int; the config error "<name> <rule>" unless ``ok`` holds."""
    (x,) = _as_list([value], name, kind)
    if not ok(x):
        raise ConfigError(f"{name} {rule}")
    return x


def _positive(x) -> bool:
    return x > 0


def _names(value, where: str, what: str, known: tuple) -> tuple[str, ...]:
    """A non-empty list of names, each one of ``known``."""
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{where} must be a non-empty list, got {value!r}")
    for item in value:
        if item not in known:
            raise ConfigError(f"unknown {what} {item!r}; known: {known}")
    return tuple(value)


@dataclass(frozen=True)
class DensitySpec:
    """A density section resolved to one (label, coefficients) pair per instance."""

    eps: tuple[float, ...]  # the cosine amplitudes swept; (0.0,) for the other families
    choices: tuple[tuple[str, tuple[float, ...]], ...]


@dataclass(frozen=True)
class SolitonSpec:
    gamma: float | str  # a number, or "einstein" for (n-1)/(L/pi)^2


@dataclass(frozen=True)
class ExperimentConfig:
    family: str
    n: tuple[int, ...]
    L: float
    density: DensitySpec
    grids: tuple[int, ...]
    b: float
    bins: int
    sigma: float
    checks: tuple[str, ...]
    tolerances: dict
    soliton: SolitonSpec | None
    out_dir: str | None
    formats: tuple[str, ...]

    def instances(self) -> list["InstanceSpec"]:
        """Every (n, density, grid) instance, sorted by (n, coefficients, N)."""
        out = [InstanceSpec(self.family, n, N, label, coeffs) for n, (label, coeffs), N
               in itertools.product(self.n, self.density.choices, self.grids)]
        out.sort(key=lambda i: (i.n, i.coeffs, i.N))
        return out


@dataclass(frozen=True)
class InstanceSpec:
    family: str
    n: int
    N: int
    density_label: str
    coeffs: tuple[float, ...]

    @property
    def key(self) -> str:
        return f"{self.family}:n={self.n}:density={self.density_label}:N={self.N}"


def _parse_density(obj, where: str) -> DensitySpec:
    """A density section; a cosine takes a list of amplitudes, or one."""
    obj = {"name": "zero"} if obj is None else obj
    _require_keys(obj, where, ("name",), ("eps", "coeffs"))
    name = obj["name"]
    if name not in DENSITY_FAMILIES:
        raise ConfigError(f"{where} takes the families {DENSITY_FAMILIES}, not {name!r}")
    # each family reads only its own parameter; a stray one would be silently ignored
    _require_keys(obj, f"the {name} family of {where}", ("name",) + DENSITY_KEYS[name], ())
    if name == "cosine":
        eps = _as_list(obj["eps"], f"{where}.eps", float)
        return DensitySpec(eps, tuple((f"cosine({e:g})", (0.0, e)) for e in eps))
    if name == "zero":
        return DensitySpec((0.0,), (("zero", (0.0,)),))
    coeffs = _as_list(obj["coeffs"], f"{where}.coeffs", float)
    if len(coeffs) > 3:  # the degree of be_ricci_lower_bound's closed form
        raise ConfigError(f"poly-cos takes at most 3 coeffs (degree 2, the degree K_eff "
                          f"has a closed form for); got {len(coeffs)}")
    return DensitySpec((0.0,), ((f"poly-cos({','.join('%g' % c for c in coeffs)})", coeffs),))


def parse_config(data: dict) -> ExperimentConfig:
    """Validate a raw configuration dictionary into an ExperimentConfig."""
    _require_keys(data, "config", ("schema_version", "family", "checks"),
                  ("grids", "b", "bins", "l_max", "sigma", "workers",
                   "tolerances", "soliton", "output"))
    if type(data["schema_version"]) is not int or data["schema_version"] != SCHEMA_VERSION:
        raise ConfigError(f"unsupported schema_version {data['schema_version']!r}; "
                          f"this build reads version {SCHEMA_VERSION}")

    fam = data["family"]
    _require_keys(fam, "family", ("name",), ("n", "radius", "length", "density"))
    name = fam["name"]
    if name not in MANIFOLD_FAMILIES:
        raise ConfigError(f"unknown manifold family {name!r}; known: {MANIFOLD_FAMILIES}")
    required, optional = FAMILY_KEYS[name]
    _require_keys(fam, f"the {name} family", ("name",) + required, ("density",) + optional)
    circle = name == "circle"
    n = _as_list(fam.get("n", 1), "family.n", int)
    if circle and n != (1,):
        raise ConfigError("circle models are one-dimensional; omit 'n' or set it to 1")
    if not circle and min(n) < 2:
        raise ConfigError("interval-sphere dimensions must satisfy n >= 2")
    if "length" in fam:
        L = _scalar(fam["length"], "family.length", float, _positive, "must be positive")
    else:  # a sphere of radius r is the round warp of length pi r
        L = math.pi * _scalar(fam.get("radius", 1.0), "family.radius", float, _positive,
                              "must be positive")
    density = _parse_density(fam.get("density"), "family.density")

    checks = _names(data["checks"], "checks", "check", CHECK_NAMES)
    grids = _as_list(data.get("grids", 1000), "grids", int)
    if any(g < 8 for g in grids):
        raise ConfigError("grid sizes must be at least 8")

    tolerances = dict(DEFAULT_TOLERANCES)
    overrides = data.get("tolerances")
    if not isinstance(overrides, (dict, type(None))):
        raise ConfigError(f"tolerances must be a JSON object, got {overrides!r}")
    for key, value in (overrides or {}).items():
        if key not in tolerances:
            raise ConfigError(f"unknown tolerance {key!r}; known: {sorted(tolerances)}")
        tolerances[key] = _scalar(value, f"tolerance {key!r}", float, _positive,
                                  "must be a positive number")

    soliton = None
    if data.get("soliton") is not None:
        sob = data["soliton"]
        _require_keys(sob, "soliton", ("gamma",), ())
        gamma = sob["gamma"]
        if gamma != "einstein":
            gamma = _scalar(gamma, "soliton.gamma", float, _positive,
                            "must be positive or the string 'einstein'")
        soliton = SolitonSpec(gamma=gamma)
    if "soliton" in checks and soliton is None:
        raise ConfigError("the 'soliton' check needs a 'soliton' section")

    out = data.get("output")
    out = {} if out is None else out
    _require_keys(out, "output", (), ("dir", "formats"))
    if not isinstance(out.get("dir", ""), str):
        raise ConfigError(f"output.dir must be a string, got {out['dir']!r}")
    formats = _names(out.get("formats", ["csv"]), "output.formats", "output format", FORMATS)

    b = _scalar(data.get("b", 1.01), "b", float, lambda v: v > 1.0, "must exceed 1")
    bins = _scalar(data.get("bins", 200), "bins", int, lambda v: v >= 2, "must be at least 2")
    # retired keys, still read so that older files parse; neither is stored
    _scalar(data.get("l_max", 1), "l_max", int, lambda v: v >= 1,
            "is retired and may only be an integer >= 1: the first eigenvalue is always "
            "searched in the sectors l = 0, 1")
    _scalar(data.get("workers", 1), "workers", int, lambda v: v == 1,
            "is retired and may only be 1: instances run one at a time")
    (sigma,) = _as_list([data.get("sigma", 1.0)], "sigma", float)

    config = ExperimentConfig(
        family=name, n=n, L=L, density=density, grids=grids, b=b, bins=bins,
        sigma=sigma, checks=checks, tolerances=tolerances, soliton=soliton,
        out_dir=out.get("dir"), formats=formats,
    )
    # a repeated key would be two report rows, and two tallies, of one instance
    seen = set()
    for inst in config.instances():
        if inst.key in seen:
            raise ConfigError(f"two instances share the report key {inst.key!r}: an n, grid "
                              f"size or amplitude repeats, or two amplitudes print alike")
        seen.add(inst.key)
    return config


def read_config(path: str | Path):
    """The raw JSON of a configuration file, for ``parse_config``."""
    try:
        return json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read configuration: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"configuration is not valid JSON: {exc}") from exc


def build_model(config: ExperimentConfig, inst: InstanceSpec) -> geometry.WarpedManifold:
    """Instantiate the manifold for one instance of the sweep."""
    if config.family == "circle":
        return geometry.circle(config.L, density=inst.coeffs)
    return geometry.interval_sphere(inst.n, config.L, density=inst.coeffs)


def soliton_gamma(config: ExperimentConfig, model: geometry.WarpedManifold) -> float:
    if config.soliton.gamma == "einstein":
        return geometry.einstein_constant(model)
    return config.soliton.gamma
