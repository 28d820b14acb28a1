"""Configuration parsing, sweep orchestration, report emission, and the CLI."""

import argparse
import json
import math
import platform
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy
from hypothesis import given, settings, strategies as st

import driftlab as dl
import driftlab.cli as cli
import driftlab.runner as runner
from driftlab.bounds import ling_case
from driftlab.config import CHECK_NAMES, build_model, parse_config, read_config, soliton_gamma
from driftlab.errors import ConfigError, InapplicableBoundError, SolverError
from driftlab.reports import (BARRIER_COLUMNS, ERROR, FAIL, INAPPLICABLE, PASS,
                              SWEEP_COLUMNS, Check, InstanceRecord, InstanceResult,
                              barrier_table, environment_stamp,
                              format_value, render_csv, render_json)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def _base_config(**overrides):
    data = {
        "schema_version": 1,
        "family": {"name": "sphere", "n": [2],
                   "density": {"name": "cosine", "eps": [0.1]}},
        "grids": [200],
        "checks": ["spectrum"],
    }
    data.update(overrides)
    return data


def test_parse_happy_path_defaults():
    config = parse_config(_base_config())
    assert config.family == "sphere"
    assert config.n == (2,)
    assert config.b == 1.01
    assert config.bins == 200
    assert config.tolerances["bound_margin"] == 1e-6
    assert config.formats == ("csv",)


def test_parse_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config(_base_config(surprise=1))
    bad_family = _base_config()
    bad_family["family"]["typo"] = True
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config(bad_family)
    bad_density = _base_config()
    bad_density["family"]["density"] = {"name": "cosine", "eps": [0.1], "huh": 2}
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config(bad_density)


def test_parse_rejects_bad_values():
    with pytest.raises(ConfigError, match="schema_version"):
        parse_config(_base_config(schema_version=99))
    with pytest.raises(ConfigError, match="manifold family"):
        parse_config(_base_config(family={"name": "torus", "n": [2]}))
    with pytest.raises(ConfigError, match="non-empty"):
        parse_config(_base_config(family={"name": "sphere", "n": []}))
    with pytest.raises(ConfigError, match="non-empty"):
        parse_config(_base_config(checks=[]))
    with pytest.raises(ConfigError, match="unknown check"):
        parse_config(_base_config(checks=["spectrum", "vibes"]))
    with pytest.raises(ConfigError, match="n >= 2"):
        parse_config(_base_config(family={"name": "sphere", "n": [1]}))
    with pytest.raises(ConfigError, match="b must exceed"):
        parse_config(_base_config(b=0.99))
    with pytest.raises(ConfigError, match="tolerance"):
        parse_config(_base_config(tolerances={"bound_margin": -1.0}))
    with pytest.raises(ConfigError, match="unknown tolerance"):
        parse_config(_base_config(tolerances={"wat": 1.0}))
    with pytest.raises(ConfigError, match="soliton"):
        parse_config(_base_config(checks=["soliton"]))
    with pytest.raises(ConfigError, match=r"unknown key\(s\) in the sphere family: \['length'\]"):
        parse_config(_base_config(family={"name": "sphere", "n": [2], "length": 2.0}))
    with pytest.raises(ConfigError, match=r"unknown key\(s\) in the circle family: \['radius'\]"):
        parse_config(_base_config(
            family={"name": "circle", "length": 6.0, "radius": 1.0}))


@pytest.mark.parametrize("overrides", [
    {"b": math.inf},
    {"b": math.nan},
    {"sigma": math.nan},
    {"bins": 2.7},
    {"l_max": 1.9},
    {"workers": 1.5},
    {"tolerances": {"gradient": math.inf}},
    {"family": {"name": "sphere", "n": [2], "radius": math.inf}},
    {"family": {"name": "sphere", "n": [2],
                "density": {"name": "cosine", "eps": [math.nan]}}},
    {"b": 10**400},  # beyond float range
])
def test_parse_rejects_non_finite_and_non_integral(overrides, tmp_path, capsys):
    # json reads NaN and Infinity; neither may reach a check, nor may a
    # fractional count be truncated
    with pytest.raises(ConfigError, match="finite"):
        parse_config(_base_config(**overrides))
    path = tmp_path / "config.json"
    path.write_text(json.dumps(_base_config(**overrides)))
    assert cli.main(["spectrum", "--config", str(path)]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("overrides", [
    {"checks": 3},
    {"checks": "spectrum"},
    {"family": 0},
    {"family": {"name": "sphere", "n": [2], "density": 3.5}},
    {"output": True},
    {"output": False},
    {"output": {"formats": None}},
    {"output": {"dir": 3}},
    {"tolerance_profile": []},
    {"tolerances": [1]},
    {"tolerances": 0},
    {"soliton": 3},
    # soliton.f is retired: the soliton potential is the family density
    {"soliton": {"gamma": 1.0, "f": []}},
    {"schema_version": True},
    # a parameter that the named family would silently ignore
    {"family": {"name": "sphere", "n": [2],
                "density": {"name": "poly-cos", "coeffs": [0, -1], "eps": [0.1, 0.5]}}},
    {"family": {"name": "sphere", "n": [2], "density": {"name": "zero", "eps": [0.1]}}},
    {"family": {"name": "sphere", "n": [2],
                "density": {"name": "cosine", "eps": [0.1], "coeffs": [0, -1]}}},
    {"checks": ["soliton"], "soliton": {"gamma": 1.0, "f": {"name": "zero"}}},
    # gamma is required, positive, and a number or exactly "einstein"
    {"checks": ["soliton"], "soliton": {}},
    {"checks": ["soliton"], "soliton": {"gamma": 0.0}},
    {"checks": ["soliton"], "soliton": {"gamma": "Einstein"}},
    # a null length used to parse, and then fail every instance
    {"family": {"name": "stretched-sphere", "n": [2], "length": None}},
    {"family": {"name": "circle", "length": None}},
    # an output dir and no format would write nothing, and say nothing
    {"output": {"dir": "out", "formats": []}},
])
def test_parse_rejects_wrongly_typed_values(overrides, tmp_path, capsys):
    # a wrongly typed value is a config error (exit 2), neither a crash nor a default
    with pytest.raises(ConfigError):
        parse_config(_base_config(**overrides))
    path = tmp_path / "config.json"
    path.write_text(json.dumps(_base_config(**overrides)))
    assert cli.main(["spectrum", "--config", str(path)]) == 2
    assert "config error" in capsys.readouterr().err


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=6)

_CONFIG_KEYS = (
    [(key,) for key in ("schema_version", "family", "checks", "grids", "b", "bins",
                        "l_max", "sigma", "workers", "tolerance_profile",
                        "tolerances", "soliton", "output")]
    + [("family", key) for key in ("name", "n", "radius", "length", "density")]
    + [("family", "density", key) for key in ("name", "eps", "coeffs")]
    + [("tolerances", "gradient"), ("soliton", "gamma"), ("soliton", "f"),
       ("output", "dir"), ("output", "formats")])


@settings(max_examples=200, deadline=None)
@given(path=st.sampled_from(_CONFIG_KEYS), value=_JSON)
def test_parse_config_fails_only_with_config_error(path, value):
    # any JSON value at any key either parses or is a config error (exit 2)
    data = _base_config(tolerances={"gradient": 0.05},
                        soliton={"gamma": 1.0},
                        output={"dir": "out", "formats": ["csv"]})
    parent = data
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    try:
        parse_config(data)
    except ConfigError:
        pass


def test_tolerance_profiles():
    # one default set; per-key overrides still express the retired "strict" profile
    strict = {"bound_margin": 1e-9, "gradient": 1e-3,
              "dominance": 1e-3, "holder": 1e-10, "soliton": 1e-10}
    assert parse_config(_base_config(tolerances=strict)).tolerances == strict
    override = parse_config(_base_config(tolerances={"gradient": 0.05}))
    assert override.tolerances["gradient"] == 0.05
    assert override.tolerances["bound_margin"] == 1e-6


def test_the_spectrum_tolerance_is_gone():
    # it was only the soliton check's membership window, which no longer
    # exists, and the spectrum check reads no tolerance: naming it is an
    # unknown tolerance
    with pytest.raises(ConfigError, match="unknown tolerance 'spectrum'"):
        parse_config(_base_config(tolerances={"spectrum": 0.01}))


def test_retired_keys_still_parse_and_select_nothing():
    # version-1 files written before the keys were retired (the benchmark's
    # sphere and circle configurations among them) read as before
    assert parse_config(_base_config(l_max=2, workers=1)) == parse_config(_base_config())
    assert parse_config(_base_config(l_max=7)) == parse_config(_base_config())


@pytest.mark.parametrize("overrides,match", [
    # a zonal-only search (l_max = 0) would miss an l = 1 first eigenvalue
    ({"l_max": 0}, "l_max is retired"),
    ({"l_max": -1}, "l_max is retired"),
    ({"workers": 2}, "workers is retired"),
    ({"workers": 0}, "workers is retired"),
    ({"tolerance_profile": "default"}, "unknown key"),
    ({"tolerance_profile": "strict"}, "unknown key"),
], ids=["l_max=0", "l_max=-1", "workers=2", "workers=0", "tolerance_profile=default",
        "tolerance_profile=strict"])
def test_retired_settings_are_config_errors(overrides, match, tmp_path, capsys):
    with pytest.raises(ConfigError, match=match):
        parse_config(_base_config(**overrides))
    path = tmp_path / "config.json"
    path.write_text(json.dumps(_base_config(**overrides)))
    assert cli.main(["spectrum", "--config", str(path)]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["spectrum", "--workers", "1"],
    ["sweep", "--workers", "2"],
    ["certify", "--tolerance-profile", "strict"],
    ["sweep", "--tolerance-profile", "default"],
], ids=["spectrum-workers", "sweep-workers", "certify-tolerance-profile",
        "sweep-tolerance-profile"])
def test_retired_flags_are_usage_errors(argv, tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(_base_config()))
    with pytest.raises(SystemExit) as exc:
        cli.main([argv[0], "--config", str(path)] + argv[1:])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_instances_expand_and_sort():
    config = parse_config(_base_config(
        family={"name": "sphere", "n": [3, 2],
                "density": {"name": "cosine", "eps": [0.5, 0.1]}},
        grids=[100, 50]))
    keys = [i.key for i in config.instances()]
    assert len(keys) == 8
    assert keys == sorted(keys, key=lambda k: k) or keys[0].startswith("sphere:n=2")
    assert keys[0] == "sphere:n=2:density=cosine(0.1):N=50"


def test_build_models():
    config = parse_config(_base_config())
    inst = config.instances()[0]
    model = build_model(config, inst)
    assert model.n == 2 and abs(model.L - math.pi) < 1e-15

    circle_cfg = parse_config({
        "schema_version": 1,
        "family": {"name": "circle", "length": 6.0,
                   "density": {"name": "cosine", "eps": [0.2]}},
        "checks": ["spectrum"],
    })
    cmodel = build_model(circle_cfg, circle_cfg.instances()[0])
    assert cmodel.topology == "circle" and cmodel.L == 6.0

    stretched = parse_config({
        "schema_version": 1,
        "family": {"name": "stretched-sphere", "n": [2], "length": 2.5},
        "checks": ["spectrum"],
    })
    smodel = build_model(stretched, stretched.instances()[0])
    assert smodel.L == 2.5


def test_soliton_gamma_resolution():
    config = parse_config(_base_config(checks=["soliton"], soliton={"gamma": "einstein"}))
    assert soliton_gamma(config, dl.sphere(3)) == 2.0
    fixed = parse_config(_base_config(checks=["soliton"], soliton={"gamma": 1.5}))
    assert soliton_gamma(fixed, dl.sphere(3)) == 1.5


def test_einstein_gamma_uses_the_warp_radius_of_stretched_spheres():
    # a stretched sphere of length L is the round sphere of radius L/pi, so its
    # Einstein constant is (n-1) pi^2 / L^2, whatever the unused radius default
    for length in (2 * math.pi, math.pi, 2.5):
        config = parse_config(_base_config(
            family={"name": "stretched-sphere", "n": [2, 3, 4], "length": length,
                    "density": {"name": "zero"}},
            grids=[400], checks=["soliton"], soliton={"gamma": "einstein"}))
        for inst in config.instances():
            n = inst.n
            assert soliton_gamma(config, build_model(config, inst)) \
                == (n - 1) / (length / math.pi) ** 2
        report = runner.run(config)
        assert report.all_passed
        for row in report.rows:
            assert row["verdict_soliton"] is True
            for col in ("soliton_resid_rr", "soliton_resid_tan", "bianchi_resid",
                        "constancy_std", "trace_resid", "eigenid_resid"):
                assert row[col] < 1e-10
    rescaled = parse_config(_base_config(
        family={"name": "sphere", "n": [3], "radius": 2.0, "density": {"name": "zero"}},
        checks=["soliton"], soliton={"gamma": "einstein"}))
    assert soliton_gamma(rescaled, build_model(rescaled, rescaled.instances()[0])) == 2.0 / 4.0


def test_radius_and_length_give_the_same_rows():
    # a sphere of radius r is the round warp of length pi r: the two families
    # differ only in how the length is given, so every other column agrees
    def rows(family):
        config = parse_config(_base_config(
            family=dict(family, n=[3], density={"name": "cosine", "eps": [0.5]}),
            grids=[400], checks=["spectrum", "bounds", "estimates", "soliton"],
            soliton={"gamma": "einstein"}))
        for inst in config.instances():
            assert soliton_gamma(config, build_model(config, inst)) \
                == (inst.n - 1) / (config.L / math.pi) ** 2
        return runner.run(config).rows

    (by_radius,) = rows({"name": "sphere", "radius": 2.0})
    (by_length,) = rows({"name": "stretched-sphere", "length": 6.283185307179586})
    assert by_radius["L"] == by_length["L"] == 2.0 * math.pi
    assert by_radius["soliton_gamma"] == 2.0 / 4.0
    assert by_radius.keys() == by_length.keys()
    differ = {key for key in by_radius if by_radius[key] != by_length[key]}
    assert differ == {"family", "instance"}


@pytest.mark.parametrize("family,grids,repeated", [
    ({"name": "sphere", "n": [2, 2], "density": {"name": "cosine", "eps": [0.1]}}, [64],
     "sphere:n=2:density=cosine(0.1):N=64"),
    ({"name": "sphere", "n": [2], "density": {"name": "cosine", "eps": [0.1, 0.1]}}, [64],
     "sphere:n=2:density=cosine(0.1):N=64"),
    ({"name": "sphere", "n": [2], "density": {"name": "cosine", "eps": [0.1]}}, [64, 64],
     "sphere:n=2:density=cosine(0.1):N=64"),
    # distinct amplitudes that print alike under %g
    ({"name": "sphere", "n": [2],
      "density": {"name": "cosine", "eps": [0.1234561, 0.1234562]}}, [64],
     "sphere:n=2:density=cosine(0.123456):N=64"),
    ({"name": "circle", "length": 6.0, "density": {"name": "cosine", "eps": [0.5, 0.5]}},
     [64, 80], "circle:n=1:density=cosine(0.5):N=64"),
], ids=["n", "eps", "grids", "eps-alike-under-g", "circle"])
def test_instances_sharing_a_report_key_are_config_errors(family, grids, repeated):
    # two rows under one key would make the summary count one instance twice
    with pytest.raises(ConfigError, match=re.escape(repr(repeated))):
        parse_config(_base_config(family=family, grids=grids))


def test_run_spectrum_row():
    config = parse_config(_base_config(grids=[400]))
    report = runner.run(config)
    assert report.summary["instances"] == 1
    row = report.rows[0]
    assert abs(row["lambda1"] - 2.0015) < 1e-2
    assert 0.0 < row["normalize_residual"] <= 1e-10  # rounding, over the operator norm
    assert row["verdict_spectrum"] is True
    assert report.all_passed


def test_run_failing_soliton_check_is_reported():
    config = parse_config(_base_config(
        checks=["soliton"], soliton={"gamma": 1.0}, grids=[300]))
    report = runner.run(config)
    assert report.rows[0]["verdict_soliton"] is False
    assert not report.all_passed


def test_run_isolates_instance_failures(monkeypatch):
    config = parse_config(_base_config(
        family={"name": "sphere", "n": [2, 3],
                "density": {"name": "cosine", "eps": [0.1]}},
        grids=[200]))
    original = runner.run_instance

    def explode_on_n3(cfg, inst):
        if inst.n == 3:
            raise RuntimeError("boom")
        return original(cfg, inst)

    monkeypatch.setattr(runner, "run_instance", explode_on_n3)
    report = runner.run(config)
    assert report.summary["instances"] == 2
    assert report.summary["errors"] == 1
    good = [r for r in report.rows if not r.get("error")]
    assert len(good) == 1 and good[0]["n"] == 2


def test_run_counts_each_row_once(monkeypatch):
    config = parse_config(_base_config(
        family={"name": "sphere", "n": [2, 3, 4],
                "density": {"name": "cosine", "eps": [0.1]}}))

    def error_failed_and_inapplicable(cfg, inst):
        record = InstanceRecord(instance=inst.key, family=inst.family, n=inst.n)
        checks = {2: {"spectrum": Check(PASS)},
                  3: {"spectrum": Check(FAIL), "bounds": Check(ERROR, "boom")},
                  4: {"spectrum": Check(PASS), "bounds": Check(INAPPLICABLE, "why")}}
        return InstanceResult(record, checks[inst.n])

    monkeypatch.setattr(runner, "run_instance", error_failed_and_inapplicable)
    report = runner.run(config)
    summary = report.summary
    assert summary["passed"] + summary["failed"] + summary["errors"] + \
        summary["inapplicable"] == summary["instances"]
    assert (summary["passed"], summary["failed"], summary["errors"],
            summary["inapplicable"]) == (1, 0, 1, 1)
    assert report.exit_code == 1
    assert [row.get("error") for row in report.rows] == [None, "boom", None]
    assert report.rows[2]["reason"] == "bounds: why"

    def solver_failure_on_n4(cfg, inst):
        if inst.n == 4:
            raise SolverError("no convergence\nafter 300 iterations")
        return error_failed_and_inapplicable(cfg, inst)

    monkeypatch.setattr(runner, "run_instance", solver_failure_on_n4)
    report = runner.run(config)
    assert (report.summary["errors"], report.summary["solver_failures"]) == (2, 1)
    assert report.exit_code == 3
    assert report.rows[2]["error"] == "solver-failure: no convergence after 300 iterations"


@pytest.mark.parametrize("family,checks", [
    ({"name": "circle", "length": 2.0 * math.pi,
      "density": {"name": "cosine", "eps": [0.5]}}, ["spectrum", "bounds", "estimates"]),
    # Ric_phi = 1 + 1.5 cos r < 0 near r = pi, so K_eff <= 0
    ({"name": "sphere", "n": [2], "density": {"name": "cosine", "eps": [-1.5]}},
     ["spectrum", "bounds"]),
], ids=["circle", "nonpositive-K_eff"])
def test_inapplicable_checks_are_not_errors(family, checks, tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(_base_config(family=family, checks=checks, grids=[400])))
    code = cli.main(["sweep", "--config", str(path), "--out", str(tmp_path),
                     "--format", "json"])
    assert code == 0, capsys.readouterr().out
    report = json.loads((tmp_path / "report.json").read_text())
    summary = report["summary"]
    assert (summary["errors"], summary["inapplicable"], summary["passed"]) == (0, 1, 0)
    (row,) = report["rows"]
    assert "error" not in row and row["verdict_spectrum"] is True
    assert all(row[f"verdict_{c}"] is None for c in checks[1:])
    # every inapplicable check keeps its own one-line reason
    reasons = row["reason"].split("; ")
    assert [r.split(":")[0] for r in reasons] == checks[1:]
    assert "interval-sphere" in row["reason"] if family["name"] == "circle" \
        else "K_eff > 0" in row["reason"]


def test_estimates_without_a_case_are_inapplicable(monkeypatch):
    def no_case(a, delta):
        raise InapplicableBoundError(f"delta={delta!r} must lie in (0, 1/2]")

    monkeypatch.setattr(runner.bounds_mod, "ling_case", no_case)
    report = runner.run(parse_config(_base_config(checks=["estimates"])))
    assert report.summary["inapplicable"] == 1 and report.exit_code == 0
    assert report.rows[0]["reason"].startswith("estimates: no barrier for the case analysis")
    assert "error" not in report.rows[0]


def test_case_barrier_selection():
    # each case label maps to the matching barrier family
    import dataclasses

    import driftlab as dl
    from driftlab.runner import _select_case_barrier
    from driftlab.spectral import _bisect, assemble

    model = dl.sphere(2)
    grid = dl.Grid.uniform(model, 600)
    mode = _bisect(assemble(grid, 0), 598, 600)[1]  # first non-zero zonal
    nef = dl.normalize(mode, b=1.01)
    config = parse_config(_base_config())

    sym = dataclasses.replace(nef, a=0.0)  # case A is exactly a = 0
    case_a = ling_case(sym.a, sym.delta)
    assert case_a.label == "A"
    z_a = _select_case_barrier(config, sym, case_a)
    assert (z_a.a, z_a.b) == (0.0, 1.01) and case_a.mu == 1.0
    assert z_a.xi_coeff == case_a.mu * sym.delta

    asym = dataclasses.replace(nef, a=0.5, K=0.6 * nef.lam)  # delta = 0.3
    case = ling_case(asym.a, asym.delta)
    assert case.label == "B-2-b1"
    z_b1 = _select_case_barrier(config, asym, case)
    assert z_b1.xi_coeff == case.mu * asym.delta

    tiny = dataclasses.replace(nef, a=1e-3)
    case2 = ling_case(tiny.a, tiny.delta)
    assert case2.label == "B-2-b2"
    z_b2 = _select_case_barrier(config, tiny, case2)
    assert z_b2.xi_coeff == tiny.delta - config.sigma * tiny.c**2
    # a barrier is its three values
    assert [f.name for f in dataclasses.fields(z_b2)] == ["a", "b", "xi_coeff"]


@pytest.mark.parametrize("name", ["ling_cases", "cosine_density_sweep"])
def test_report_barrier_margins_rebuild_from_the_row(name):
    # the barrier rebuilt from a report row's a, b and delta, through the
    # runner's selection and the row's case, gives the row's transit and
    # Holder margins bit for bit at the row's lambda1 and its model's d
    from types import SimpleNamespace

    from driftlab.estimates import length_integral_check
    from driftlab.runner import _select_case_barrier

    raw = read_config(CONFIGS / f"{name}.json")
    raw["grids"] = [400]
    config = parse_config(raw)
    cases = set()
    for inst, row in zip(config.instances(), runner.run(config).rows):
        case = ling_case(row["a"], row["delta"])
        assert case.label == row["case"]
        cases.add(case.label)
        model = build_model(config, inst)
        assert dl.diameter(model) == row["d"]
        nef = SimpleNamespace(a=row["a"], b=row["b"], delta=row["delta"], lam=row["lambda1"],
                              grid=SimpleNamespace(model=model))
        ledger = length_integral_check(nef, _select_case_barrier(config, nef, case))
        assert ledger.margin_transit.hex() == row["transit_margin"].hex()
        assert ledger.margin_holder.hex() == row["holder_margin"].hex()
    assert cases == ({"B-1", "B-2-b1", "B-2-b2"} if name == "ling_cases" else {"A"})


def test_csv_header_and_formatting():
    header = render_csv([], SWEEP_COLUMNS).splitlines()[0]
    assert header.startswith("instance,family,topology,n,L,density,N,b,bins,lambda1")
    assert format_value(math.pi) == "3.1415926535897931"
    assert format_value(True) == "true"
    assert format_value(None) == ""
    assert format_value(np.float64(0.1)) == "0.10000000000000001"
    assert format_value(7) == "7"
    # round-trip at 17 significant digits
    assert float(format_value(0.1 + 0.2)) == 0.1 + 0.2


def test_csv_render_deterministic():
    rows = [{"instance": "x", "lambda1": 1.0 / 3.0, "n": 2}]
    assert render_csv(rows, SWEEP_COLUMNS) == render_csv(rows, SWEEP_COLUMNS)


def test_json_round_trip():
    payload = {"schema_version": 1, "rows": [{"a": 0.1, "b": None, "c": [1, 2]}],
               "summary": {"passed": 1}}
    text = render_json(payload)
    assert json.loads(text) == payload


def test_report_rows_hold_only_plain_json_scalars():
    # render_json takes no numpy fallback: every value of a row is a Python
    # scalar or None, on applicable and inapplicable checks alike
    sphere = parse_config(_base_config(checks=list(CHECK_NAMES), soliton={"gamma": 1.0}))
    ring = parse_config(_base_config(
        family={"name": "circle", "length": 6.0, "density": {"name": "cosine", "eps": [0.5]}},
        checks=list(CHECK_NAMES), soliton={"gamma": "einstein"}))
    rows = runner.run(sphere).rows + runner.run(ring).rows
    assert "reason" not in rows[0] and rows[1]["reason"]  # the circle: three inapplicable
    for row in rows:
        for key, value in row.items():
            assert value is None or type(value) in (bool, int, float, str), (key, type(value))
    json.loads(render_json({"rows": rows}))


def test_a_circle_takes_a_poly_cos_density():
    # a poly-cos density is L-periodic and even on a circle by construction,
    # so the config reports the library's lambda1 bit for bit
    family = {"name": "circle", "length": 6.0,
              "density": {"name": "poly-cos", "coeffs": [0.1, -0.7, 0.6]}}
    (row,) = runner.run(parse_config(_base_config(family=family))).rows
    model = dl.circle(6.0, density=(0.1, -0.7, 0.6))
    assert row["lambda1"] == dl.first_nonzero_eigenvalue(dl.Grid.uniform(model, 200)).lam
    assert row["verdict_spectrum"] is True
    shipped = read_config(CONFIGS / "circle_polycos.json")
    assert shipped["family"] == family and shipped["checks"] == ["spectrum"]


def test_barrier_table():
    rows = barrier_table(0.0, 1.01, 0.25, 1.0, points=1001)
    assert len(rows) == 1001
    assert rows[0]["t"] == -math.pi / 2.0
    assert rows[-1]["t"] == math.pi / 2.0
    assert abs(rows[0]["xi"]) < 1e-14
    assert abs(rows[0]["eta"] + 1.0) < 1e-14
    mid = rows[500]
    assert abs(mid["z"] - (1.0 + 0.25 * (1.0 - math.pi**2 / 4.0))) < 1e-12


def test_emit_barriers_checks_the_barrier_hypotheses(tmp_path, capsys):
    # the table goes through barrier(), so a barrier outside its hypotheses is
    # refused with the reason instead of written
    out = tmp_path / "out"
    assert cli.main(["emit-barriers", "--out", str(out), "--mu", "5", "--delta", "2"]) == 1
    assert "barrier needs" in capsys.readouterr().err
    assert cli.main(["emit-barriers", "--out", str(out), "--delta", "2"]) == 1
    assert "delta in (0, 1/2]" in capsys.readouterr().err
    assert not (out / "barriers.csv").exists()
    assert cli.main(["emit-barriers", "--out", str(out), "--points", "2"]) == 0
    assert len((out / "barriers.csv").read_text().splitlines()) == 3


def test_emit_barriers_writes_csv_only(tmp_path, capsys):
    # the table is CSV only, so a --format request is refused, not ignored
    with pytest.raises(SystemExit) as exc:
        cli.main(["emit-barriers", "--out", str(tmp_path), "--format", "json"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --format" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("points", ["-1", "0", "1"])
def test_emit_barriers_needs_two_points(points, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["emit-barriers", "--out", str(tmp_path), "--points", points])
    assert exc.value.code == 2
    assert "--points of at least 2" in capsys.readouterr().err
    assert not (tmp_path / "barriers.csv").exists()


def test_cli_exit_codes(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli.main(["sweep", "--config", str(bad)]) == 2
    assert "config error" in capsys.readouterr().err

    missing = tmp_path / "missing.json"
    missing.write_text(json.dumps(_base_config(surprise=1)))
    assert cli.main(["sweep", "--config", str(missing)]) == 2

    good = tmp_path / "good.json"
    good.write_text(json.dumps(_base_config(grids=[300])))
    code = cli.main(["spectrum", "--config", str(good), "--out", str(tmp_path / "o")])
    out = capsys.readouterr().out
    assert code == 0
    assert "lambda1=2.0" in out
    assert (tmp_path / "o" / "report.csv").exists()

    # soliton-check without a soliton section is a usage error
    capsys.readouterr()
    assert cli.main(["soliton-check", "--config", str(good)]) == 2
    assert "the 'soliton' check needs a 'soliton' section" in capsys.readouterr().err

    failing = tmp_path / "failing.json"
    failing.write_text(json.dumps(_base_config(
        checks=["soliton"], grids=[300], soliton={"gamma": 1.0})))
    assert cli.main(["soliton-check", "--config", str(failing)]) == 1

    # a retired soliton potential is an unknown key: the potential is the family density
    capsys.readouterr()
    retired = tmp_path / "retired.json"
    retired.write_text(json.dumps(_base_config(
        checks=["soliton"], grids=[300], soliton={"gamma": 1.0, "f": {"name": "zero"}})))
    assert cli.main(["soliton-check", "--config", str(retired)]) == 2
    assert "unknown key(s) in soliton: ['f']" in capsys.readouterr().err


def test_cli_grid_override(tmp_path, capsys):
    good = tmp_path / "good.json"
    good.write_text(json.dumps(_base_config(grids=[5000])))
    code = cli.main(["spectrum", "--config", str(good), "--grid", "200"])
    assert code == 0
    assert "N=200" in capsys.readouterr().out
    # the override obeys the same bound as the file: grids >= 8
    assert cli.main(["spectrum", "--config", str(good), "--grid", "3"]) == 2
    # and does not hide an invalid file
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(_base_config(grids=[2.5, -7])))
    for command in ("sweep", "spectrum"):
        capsys.readouterr()
        assert cli.main([command, "--config", str(bad)]) == 2
        assert cli.main([command, "--config", str(bad), "--grid", "64"]) == 2
        assert "grids entries must be finite int" in capsys.readouterr().err


def test_an_odd_circle_grid_is_a_config_error(tmp_path, capsys):
    # a circle's grid holds its mirror half, N/2 cells, so an odd N is
    # refused, in the file and through the --grid override alike; an odd
    # sphere grid stays valid
    family = {"name": "circle", "length": 6.0, "density": {"name": "cosine", "eps": [0.5]}}
    with pytest.raises(ConfigError, match="a circle grid must be even: its mirror half "
                                          "holds N/2 cells, got N = 81"):
        parse_config(_base_config(family=family, grids=[64, 81]))
    assert parse_config(_base_config(family=family, grids=[64, 82])).grids == (64, 82)
    assert parse_config(_base_config(grids=[81])).grids == (81,)
    path = tmp_path / "circle.json"
    path.write_text(json.dumps(_base_config(family=family, grids=[64])))
    capsys.readouterr()
    assert cli.main(["spectrum", "--config", str(path), "--grid", "2001"]) == 2
    assert "a circle grid must be even" in capsys.readouterr().err
    assert cli.main(["spectrum", "--config", str(path), "--grid", "66"]) == 0
    assert "N=66" in capsys.readouterr().out


def test_cli_emit_barriers(tmp_path, capsys):
    code = cli.main(["emit-barriers", "--out", str(tmp_path), "--points", "101",
                     "--delta", "0.25"])
    assert code == 0
    lines = (tmp_path / "barriers.csv").read_text().splitlines()
    assert lines[0] == ",".join(BARRIER_COLUMNS)
    assert len(lines) == 102
    # with a > 0 the z column carries eta; every column keeps the bits of the
    # library's own evaluation at the table's points
    args = ["--a", "0.3", "--b", "1.2", "--delta", "0.12", "--mu", "0.8", "--points", "2001"]
    assert cli.main(["emit-barriers", "--out", str(tmp_path)] + args) == 0
    table = np.loadtxt(tmp_path / "barriers.csv", delimiter=",", skiprows=1).T
    t = np.linspace(-math.pi / 2.0, math.pi / 2.0, 2001)
    expected = [t, dl.xi(t), dl.eta(t), dl.barrier(0.3, 1.2, 0.12, 0.8).value(t)]
    assert [col.tobytes() for col in table] == [col.tobytes() for col in expected]


def test_emit_csv_writes_file(tmp_path):
    path, = cli._emit([{"t": 0.0, "xi": 1.0}], ["t", "xi"], None, tmp_path, ("csv",), "x")
    assert path == tmp_path / "x.csv" and path.read_text() == "t,xi\n0,1\n"


@pytest.mark.parametrize("argv,work", [
    (["sweep", "--config", str(CONFIGS / "cosine_density_sweep.json")], "run"),
    (["verify-paper"], "verify_paper"),
    (["emit-barriers"], None),
], ids=["sweep", "verify-paper", "emit-barriers"])
@pytest.mark.parametrize("under", [False, True], ids=["file", "under-file"])
def test_an_unwritable_out_is_a_usage_error(argv, work, under, tmp_path, capsys, monkeypatch):
    # an --out that is a file, or lies under one, stops the run with exit 2
    # and one line that names the path, before any instance or suite pass
    blocker = tmp_path / "file"
    blocker.write_text("kept")
    out = blocker / "sub" if under else blocker
    if work is not None:
        monkeypatch.setattr(cli, work, lambda *args: pytest.fail(f"{work} ran"))
    assert cli.main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"output error: cannot create output directory {out}: ")
    assert err.count("\n") == 1
    assert blocker.read_text() == "kept"


def test_an_unwritable_report_file_is_a_usage_error(tmp_path, capsys):
    (tmp_path / "barriers.csv").mkdir()
    assert cli.main(["emit-barriers", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"output error: cannot write {tmp_path / 'barriers.csv'}: ")
    assert err.count("\n") == 1


def test_cli_help_paths():
    with pytest.raises(SystemExit) as info:
        cli.main(["--help"])
    assert info.value.code == 0
    with pytest.raises(SystemExit) as info:
        cli.main(["sweep", "--help"])
    assert info.value.code == 0
    with pytest.raises(SystemExit) as info:
        cli.main([])  # a subcommand is required
    assert info.value.code == 2


def test_verify_paper_help_describes_its_own_outputs():
    # verify-paper has no config; by default it writes both reports into .
    sub = next(a for a in cli._build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    helps = {name: {a.dest: a.help for a in p._actions} for name, p in sub.choices.items()}
    verify = helps["verify-paper"]
    assert verify["out"] == "directory for verify_paper.csv and verify_paper.json (default: .)"
    assert verify["format"] == "write only this format (default: both csv and json)"
    assert helps["sweep"]["format"] == "output format (default: from config, else csv)"


def test_cli_import_leaves_integrate_interpolate_and_optimize_unloaded():
    # the quadrature is a fixed Gauss-Legendre rule, the spline import is
    # local to its one user and the fiber reduction is closed-form, so these
    # scipy subpackages stay out of a cold start
    code = ("import sys, driftlab.cli; print(sorted(m for m in ('scipy.integrate', "
            "'scipy.interpolate', 'scipy.optimize', 'scipy.special') "
            "if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_cli_import_leaves_scipy_sparse_unloaded():
    # every eigenproblem, the circle's included, is tridiagonal LAPACK work
    code = ("import sys, driftlab.cli; print(sorted(m for m in sys.modules "
            "if m.split('.')[:2] == ['scipy', 'sparse']))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_environment_stamp_names_the_interpreter_and_libraries():
    stamp = environment_stamp([400, 200, 400])
    assert stamp["grids"] == [200, 400]
    assert stamp["python"] == platform.python_version()
    assert stamp["numpy"] == np.__version__
    assert stamp["scipy"] == scipy.__version__


def test_ling_cases_config_reaches_each_barrier_case():
    # zonal first eigenfunctions with a != 0: one instance per asymmetric case
    raw = read_config(CONFIGS / "ling_cases.json")
    raw["grids"] = [400]
    report = runner.run(parse_config(raw))
    rows = report.rows
    assert [row["lambda1_mode"] for row in rows] == [0, 0, 0]
    assert [row["case"] for row in rows] == ["B-1", "B-2-b1", "B-2-b2"]
    assert all(row["a"] > 0.0 for row in rows)
    for row in rows:
        assert all(row[f"verdict_{name}"] is True
                   for name in ("spectrum", "bounds", "estimates")), row
        # the case bound pi^2/d^2 + (case constant) alpha, alpha = (n-1) K_eff / 2
        case = ling_case(row["a"], row["delta"])
        assert case.label == row["case"]
        alpha = 0.5 * (row["n"] - 1) * row["K_eff"]
        assert row["bound_case"] == pytest.approx(
            math.pi**2 / row["d"]**2 + case.alpha_multiple * alpha, rel=1e-15)
        assert row["margin_case"] == row["lambda1"] - row["bound_case"]
        assert ("case_mu" in row) == (row["case"] != "B-2-b2"), row
    assert report.summary["passed"] == 3 and report.exit_code == 0
