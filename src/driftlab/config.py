"""Experiment configuration: a strict, versioned JSON schema.

A configuration describes one manifold family with parameter ranges (dimension
list, density amplitude list, grid sizes), the estimate constants, the checks
to run, tolerances, and output destinations.  Unknown keys are rejected at
every level, because a silently ignored typo can corrupt an entire sweep.
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

MANIFOLD_FAMILIES = ("sphere", "stretched-sphere", "circle")
DENSITY_FAMILIES = ("zero", "cosine", "poly-cos")
_DENSITY_KEYS = {"zero": (), "cosine": ("eps",), "poly-cos": ("coeffs",)}  # beyond "name"
CHECK_NAMES = ("spectrum", "bounds", "estimates", "soliton")
FORMATS = ("csv", "json")

DEFAULT_TOLERANCES = {
    "spectrum": 1e-3,
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


@dataclass(frozen=True)
class DensitySpec:
    name: str
    eps: tuple[float, ...] = (0.0,)
    coeffs: tuple[float, ...] | None = None

    def label(self, eps: float) -> str:
        if self.name == "zero":
            return "zero"
        if self.name == "cosine":
            return f"cosine({eps:g})"
        return f"poly-cos({','.join('%g' % c for c in self.coeffs)})"


@dataclass(frozen=True)
class SolitonSpec:
    f_name: str
    f_eps: float
    gamma: float | str  # a number, or "einstein" for (n-1)/rho^2, rho the warp radius


@dataclass(frozen=True)
class ExperimentConfig:
    family: str
    n: tuple[int, ...]
    radius: float
    length: float | None
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
        eps_values = self.density.eps if self.density.name == "cosine" else (0.0,)
        out = []
        for n, eps, N in itertools.product(self.n, eps_values, self.grids):
            out.append(InstanceSpec(family=self.family, n=n, eps=eps, N=N,
                                    density_label=self.density.label(eps)))
        out.sort(key=lambda i: i.sort_key)
        return out


@dataclass(frozen=True)
class InstanceSpec:
    family: str
    n: int
    eps: float
    N: int
    density_label: str

    @property
    def key(self) -> str:
        return f"{self.family}:n={self.n}:density={self.density_label}:N={self.N}"

    @property
    def sort_key(self):
        return (self.family, self.n, self.eps, self.N)


def _parse_density(obj, family: str) -> DensitySpec:
    if obj is None:
        return DensitySpec(name="zero")
    _require_keys(obj, "family.density", ("name",), ("eps", "coeffs"))
    name = obj["name"]
    if name not in DENSITY_FAMILIES:
        raise ConfigError(f"unknown density family {name!r}; known: {DENSITY_FAMILIES}")
    # each family reads only its own parameter; a stray one would be silently ignored
    _require_keys(obj, f"the {name} density", ("name",) + _DENSITY_KEYS[name], ())
    if name == "zero":
        return DensitySpec(name="zero")
    if name == "cosine":
        return DensitySpec(name="cosine", eps=_as_list(obj["eps"], "density.eps", float))
    if family == "circle":
        raise ConfigError("poly-cos densities are not periodic; circles take 'cosine' or 'zero'")
    coeffs = _as_list(obj["coeffs"], "density.coeffs", float)
    if len(coeffs) > 3:  # the degree of be_ricci_lower_bound's closed form
        raise ConfigError(f"poly-cos takes at most 3 coeffs (degree 2, the degree K_eff "
                          f"has a closed form for); got {len(coeffs)}")
    return DensitySpec(name="poly-cos", coeffs=coeffs)


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
    if name == "circle":
        n = _as_list(fam.get("n", 1), "family.n", int)
        if n != (1,):
            raise ConfigError("circle models are one-dimensional; omit 'n' or set it to 1")
        if "length" not in fam:
            raise ConfigError("circle models need 'length' (the circumference)")
        if "radius" in fam:
            raise ConfigError("circle models take 'length', not 'radius'")
    else:
        if "n" not in fam:
            raise ConfigError(f"{name} models need 'n'")
        n = _as_list(fam["n"], "family.n", int)
        if any(v < 2 for v in n):
            raise ConfigError("interval-sphere dimensions must satisfy n >= 2")
    if name == "sphere" and "length" in fam:
        raise ConfigError("sphere models take 'radius', not 'length'")
    if name == "stretched-sphere":
        if "length" not in fam:
            raise ConfigError("stretched-sphere models need 'length'")
        if "radius" in fam:
            raise ConfigError("stretched-sphere models take 'length', not 'radius'")
    (radius,) = _as_list([fam.get("radius", 1.0)], "family.radius", float)
    if radius <= 0:
        raise ConfigError("radius must be positive")
    length = fam.get("length")
    if length is not None:
        (length,) = _as_list([length], "family.length", float)
        if length <= 0:
            raise ConfigError("length must be positive")
    density = _parse_density(fam.get("density"), name)

    checks = data["checks"]
    if not isinstance(checks, list) or not checks:
        raise ConfigError("checks must be a non-empty list")
    checks = tuple(checks)
    for c in checks:
        if c not in CHECK_NAMES:
            raise ConfigError(f"unknown check {c!r}; known: {CHECK_NAMES}")

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
        (value,) = _as_list([value], f"tolerance {key!r}", float)
        if value <= 0:
            raise ConfigError(f"tolerance {key!r} must be a positive number")
        tolerances[key] = value

    soliton = None
    if data.get("soliton") is not None:
        sob = data["soliton"]
        _require_keys(sob, "soliton", ("gamma",), ("f",))
        fobj = sob.get("f")
        fobj = {"name": "zero"} if fobj is None else fobj
        _require_keys(fobj, "soliton.f", ("name",), ("eps",))
        if fobj["name"] not in ("zero", "cosine"):
            raise ConfigError("soliton potentials support families 'zero' and 'cosine'")
        _require_keys(fobj, f"the {fobj['name']} soliton potential",
                      ("name",) + _DENSITY_KEYS[fobj["name"]], ())
        gamma = sob["gamma"]
        if gamma != "einstein":
            (gamma,) = _as_list([gamma], "soliton.gamma", float)
            if gamma <= 0:
                raise ConfigError("soliton gamma must be positive or the string 'einstein'")
        (f_eps,) = _as_list([fobj.get("eps", 0.0)], "soliton.f.eps", float)
        soliton = SolitonSpec(f_name=fobj["name"], f_eps=f_eps, gamma=gamma)
    if "soliton" in checks and soliton is None:
        raise ConfigError("the 'soliton' check needs a 'soliton' section")

    out = data.get("output")
    out = {} if out is None else out
    _require_keys(out, "output", (), ("dir", "formats"))
    formats = out.get("formats", ["csv"])
    if not isinstance(formats, list):
        raise ConfigError(f"output.formats must be a list, got {formats!r}")
    if not isinstance(out.get("dir", ""), str):
        raise ConfigError(f"output.dir must be a string, got {out['dir']!r}")
    formats = tuple(formats)
    for f in formats:
        if f not in FORMATS:
            raise ConfigError(f"unknown output format {f!r}; known: {FORMATS}")

    (b,) = _as_list([data.get("b", 1.01)], "b", float)
    if b <= 1.0:
        raise ConfigError("b must exceed 1")
    (bins,) = _as_list([data.get("bins", 200)], "bins", int)
    if bins < 2:
        raise ConfigError("bins must be at least 2")
    # retired keys, still read so that older files parse; neither is stored
    (l_max,) = _as_list([data.get("l_max", 1)], "l_max", int)
    if l_max < 1:
        raise ConfigError("l_max is retired and may only be an integer >= 1: the first "
                          "eigenvalue is always searched in the sectors l = 0, 1")
    (workers,) = _as_list([data.get("workers", 1)], "workers", int)
    if workers != 1:
        raise ConfigError("workers is retired and may only be 1: instances run one at a time")
    (sigma,) = _as_list([data.get("sigma", 1.0)], "sigma", float)

    return ExperimentConfig(
        family=name, n=n, radius=radius,
        length=length,
        density=density, grids=grids, b=b, bins=bins,
        sigma=sigma, checks=checks,
        tolerances=tolerances, soliton=soliton,
        out_dir=out.get("dir"), formats=formats,
    )


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
        length = config.length
        if config.density.name == "cosine":  # one period: cos(2 pi theta / length)
            dens = geometry.cosine_density(inst.eps, length / 2.0)
        else:
            dens = geometry.zero_density()
        return geometry.circle(length, density=dens)

    length = config.length if config.family == "stretched-sphere" \
        else math.pi * config.radius
    if config.density.name == "cosine":
        dens = geometry.cosine_density(inst.eps, length)
    elif config.density.name == "poly-cos":
        dens = geometry.poly_cos_density(config.density.coeffs, length)
    else:
        dens = geometry.zero_density()
    if config.family == "sphere":
        return geometry.sphere(inst.n, radius=config.radius, density=dens)
    return geometry.interval_sphere(inst.n, length, density=dens)


def build_soliton_potential(config: ExperimentConfig, model) -> geometry.RadialProfile:
    spec = config.soliton
    if spec.f_name == "zero":
        return geometry.zero_density()
    return geometry.cosine_density(spec.f_eps, model.L)


def soliton_gamma(config: ExperimentConfig, n: int) -> float:
    spec = config.soliton
    if spec.gamma == "einstein":
        # a stretched sphere of length L is the round sphere of radius L/pi
        rho = config.length / math.pi if config.family == "stretched-sphere" else config.radius
        return (n - 1) / rho**2
    return float(spec.gamma)
