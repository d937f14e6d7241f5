"""Command-line orchestration: scenario configs, subcommands, file artifacts.

Exit codes: 0 success, 1 a library error (core.GasmomentsError) or an
OSError while a subcommand runs, 2 config error, 3 check failure (verify
suites); any other exception is a bug and keeps its traceback. Exit 2 covers every input file and value the
library rejects: the library objects a runner takes are built while the
config is resolved, before out_dir exists. Every output file starts with a header declaring
the toolkit version and a 12-hex-digit hash of the resolved scenario, and
floats are serialized at 17 significant digits, so re-running a scenario
with identical config and inputs reproduces the artifacts byte for byte.

Scenario files are INI: a [common] section (out_dir, seed) plus
one section per subcommand. Command-line flags override file values; keys
unknown to a section's schema are rejected with the offending line number.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import sys
import tempfile
from dataclasses import dataclass

import numpy as np

from . import __version__, bounds, momenta, solver
from .bounds import (
    ConstEnvelope,
    DecayClassSpec,
    LogEnvelope,
    PowerEnvelope,
    TableEnvelope,
    contradiction_time,
)
from .core import (
    FlowSnapshot,
    GasParameters,
    GasmomentsError,
    InvalidInputError,
    ParameterError,
    RadialGrid,
    _axis,
    _count,
    _csv_rows,
    _first_bad,
    _fmt,
    _load_table,
    _read_text,
    _within,
    conserved,
    load_snapshot,
    snapshot_text,
)
from .exact import (
    DeformationODE,
    GaussianShape,
    InvalidShapeError,
    TabulatedShape,
    _power_momentum,
    build_balanced_profiles,
    build_compatible_profiles,
    check_compatibility,
    deformation_constant,
    excluding_pressure_constant,
    integrate_deformation,
    reconstruct_fields,
)
from .lagrangian import MaterialVolume, _level_times, theorem3_functional, track_boundary
from .momenta import Power, Quadratic, ShiftedPower, g_phi, g_phi_rate, lemma1_terms, sigma_norm_sq, virial_residual
from .solver import (
    SolverConfig,
    _output_times,
    cell_centered_grid,
    run as solver_run,
    state_from_snapshot,
)

__all__ = ["ConfigError", "ScenarioConfig", "main"]


class ConfigError(ValueError):
    """Scenario configuration is unusable; mapped to exit code 2."""


# ---------------------------------------------------------------- formatting

def _json_text(fields: dict) -> str:
    # deliberate mini-serializer: json.dumps renders floats shortest-round-trip,
    # while the output contract pins 17 significant digits; every artifact is one flat object
    items = []
    for k, v in fields.items():
        if isinstance(v, bool):
            text = "true" if v else "false"
        elif v is None:
            text = "null"
        elif isinstance(v, (int, np.integer)):
            text = str(int(v))
        elif isinstance(v, (float, np.floating)):
            if not math.isfinite(v):  # JSON has no inf or nan
                raise InvalidInputError(f"JSON field {k!r} is not finite: {v}")
            text = _fmt(v)
        elif isinstance(v, str):
            text = json.dumps(v)
        else:
            raise TypeError(f"JSON field {k!r} has unsupported type {type(v).__name__}")
        items.append(f'  "{k}": {text}')
    return "{\n" + ",\n".join(items) + "\n}"


def _write_atomic(path: str, text: str) -> None:
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path) or ".", prefix=".tmp-")
    try:
        # mkstemp creates the file 0600; give it the mode open() would
        umask = os.umask(0)
        os.umask(umask)
        os.fchmod(fd, 0o666 & ~umask)
        with os.fdopen(fd, "w") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


# ------------------------------------------------------------- value parsers

def _parse_float(text: str) -> float:
    try:
        v = float(text)
    except (TypeError, ValueError):
        raise ConfigError(f"expected a number, got {text!r}")
    if not math.isfinite(v):
        raise ConfigError(f"expected a finite number, got {text!r}")
    return v


def _parse_int(text: str) -> int:
    try:
        return int(text)
    except (TypeError, ValueError):
        raise ConfigError(f"expected an integer, got {text!r}")


def _parse_list(parse, count=None, usage=""):
    """Comma list of parse(token): any length, blank text for none, or exactly count items, named by usage."""
    def parse_list(text: str) -> list:
        toks = text.split(",") if text.strip() else []
        if count is not None and len(toks) != count:
            raise ConfigError(f"expected {usage}, got {text!r}")
        return [parse(tok) for tok in toks]

    return parse_list


def _parse_kv(text: str, keys: tuple) -> list:
    """The values of name=<num> pairs, in the order of keys; each key given once."""
    out = {}
    for tok in text.split(","):
        name, sep, val = tok.partition("=")
        name = name.strip()
        if not sep or name not in keys:
            raise ConfigError(f"expected {','.join(k + '=<num>' for k in sorted(keys))}, got {text!r}")
        if name in out:
            raise ConfigError(f"repeated parameter {name!r} in {text!r}")
        out[name] = _parse_float(val)
    if set(out) != set(keys):
        raise ConfigError(f"missing parameters in {text!r}; need {sorted(keys)}")
    return [out[k] for k in keys]


def _require_file(path: str) -> str:
    if not path:
        raise ConfigError("expected a file path")
    if not os.path.isfile(path):
        raise ConfigError(f"no such file: {path}")
    return path


def _parse_snapshot(text: str) -> FlowSnapshot:
    return load_snapshot(_require_file(text))


def _parse_forms(name: str, forms: dict):
    """Parser of a setting whose forms are bare kinds or kind:<rest>; forms maps each usage text to a builder.

    A usage says what its builder takes: nothing ("gaussian"), the path of <csv> ("file:<csv>"), the numbers of
    name=<x> pairs in order ("power:c=<c>,p=<p>"), else one number. A builder of None keeps the bare kind.
    """
    kinds = {"".join(usage.partition(":")[:2]): (usage.partition(":")[2], build) for usage, build in forms.items()}
    *most, last = forms
    miss = f"{name} must be {' or '.join(filter(None, (', '.join(most), last)))}, got "

    def parse(text: str):
        kind, colon, rest = text.partition(":")
        if kind + colon not in kinds:
            raise ConfigError(f"{miss}{text!r}")
        spec, build = kinds[kind + colon]
        if "=" in spec:
            args = _parse_kv(rest, tuple(pair.partition("=")[0] for pair in spec.split(",")))
        else:
            args = [_require_file(rest)] if spec == "<csv>" else [_parse_float(rest)] if spec else []
        try:
            return kind if build is None else build(*args)
        except ParameterError as exc:
            raise ConfigError(f"bad {name} {text!r}: {exc}") from None

    parse.forms = tuple(forms)
    return parse


def _deformation_field(t_tab, a_tab, _):
    t_tab = _axis(t_tab, "deformation table times", 2)
    # the sphere is tracked from t = 0; np.interp would hold a(t) at its first value before t_tab[0]
    _within(t_tab[0], "the deformation table's first t", hi=0.0, ends="(]", error=InvalidInputError)
    return (lambda t, x: np.interp(t, t_tab, a_tab) * x), float(t_tab[-1])


# the pressure template and the table it was read from (None when analytic)
_parse_shape = _parse_forms("shape", {
    "gaussian": lambda: (GaussianShape(), None),
    "file:<csv>": lambda path: (_load_table(path, 2, "shape table", TabulatedShape), path),
})
_parse_envelope = _parse_forms("envelope", {
    "const:<c>": ConstEnvelope,
    "power:c=<c>,p=<p>": PowerEnvelope,
    "log:<c>": LogEnvelope,
    "table:<csv>": lambda path: _load_table(path, 2, "envelope table", TableEnvelope),
})
# the velocity field: v(t, x), the last t it is defined at and the table path (inf and None when analytic)
_parse_field_source = _parse_forms("field", {
    "zero": lambda: ((lambda t, x: np.zeros_like(x)), math.inf, None),
    "radial:k=<k>": lambda k: ((lambda t, x: k * x), math.inf, None),
    "deformation:<csv>": lambda path: (*_load_table(path, 3, "deformation table", _deformation_field), path),
})
# a weight is a builder of (inner_radius, n)
_parse_weight = _parse_forms("weight", {
    "quadratic": lambda: lambda inner_radius, n: Quadratic(),
    "power": lambda: lambda inner_radius, n: Power(n=n, inner_radius=inner_radius),
    "shifted:q=<q>": lambda q: lambda inner_radius, n: ShiftedPower(q=q, inner_radius=inner_radius),
})


# -------------------------------------------------------------- key schemas

class _Key:
    def __init__(self, parse, default=None, required=False, help="", rule=lambda v, key: v):
        self.parse = parse
        self.default = default  # the text a user would type, or None
        self.required = required
        self.help = help
        self.rule = rule  # one of core's rules, for a value the library judges only at run time


_POSITIVE = functools.partial(_within, lo=0.0)
_NONNEG = functools.partial(_within, lo=0.0, ends="[)")
# the certificate reads only M_v and M_rho; the other envelopes serve classify_snapshot
_UNREAD = ConstEnvelope(0.0)
_GAMMA = _Key(_parse_float, default="1.6666666666666667", help="heat-capacity ratio (> 1)")
_DIM = _Key(_parse_int, default="3", help="space dimension n")
_VEC3 = _parse_list(_parse_float, 3, "three comma-separated numbers")

_SCHEMAS = {
    "exact": {
        "shape": _Key(_parse_shape, default="gaussian", help="pressure template: gaussian or file:<csv>"),
        "gamma": _GAMMA,
        "dim": _DIM,
        "t_end": _Key(_parse_float, required=True, help="integration horizon", rule=_POSITIVE),
        "tol": _Key(_parse_float, default="1e-08", help="ODE error tolerance", rule=_POSITIVE),
        "variant": _Key(_parse_forms("variant", dict.fromkeys(("mass", "excluding"))), default="mass",
                        help="forcing constant route: momentum of mass, or excluding-pressure weight"),
        "snapshot_times": _Key(_parse_list(_parse_float), default="", help="comma list of reconstruction times"),
        "mass_scale": _Key(_parse_float, default="1.0", help="total mass of the profile pair"),
    },
    "momenta": {
        "snapshot": _Key(_parse_snapshot, required=True, help="snapshot CSV (r,rho,v,p)"),
        "weight": _Key(_parse_weight, default="quadratic",
                       help="weight function: quadratic, power or shifted:q=<q>"),
        "inner_radius": _Key(_parse_float, default=None, help="excluded ball radius for singular weights",
                             rule=_POSITIVE),
        "region": _Key(_parse_forms("region", dict.fromkeys(momenta.REGIONS)), default="all-space",
                       help="integration region"),
        "gamma": _GAMMA,
        "dim": _DIM,
    },
    "bounds": {
        "class_tag": _Key(_parse_forms("class_tag", dict.fromkeys(bounds.CLASS_TAGS)), required=True,
                          help="decay class tag: K_NS, K_NS0 or K_GD"),
        "alpha_v": _Key(_parse_float, required=True, help="velocity decay exponent"),
        "alpha_dv": _Key(_parse_float, required=True, help="velocity-derivative decay exponent"),
        "alpha_rho": _Key(_parse_float, required=True, help="density decay exponent"),
        "alpha_p": _Key(_parse_float, required=True, help="pressure decay exponent"),
        "alpha_theta": _Key(_parse_float, required=True, help="temperature decay exponent"),
        "m_v": _Key(_parse_envelope, required=True, help="velocity envelope"),
        "m_rho": _Key(_parse_envelope, required=True, help="density envelope"),
        "r0": _Key(_parse_float, required=True, help="class radius R0"),
        "epsilon": _Key(_parse_float, required=True, help="density tail margin"),
        "horizon": _Key(_parse_float, required=True, help="scan horizon"),
        "energy": _Key(_parse_float, default=None, help="total energy (or derive from snapshot)", rule=_NONNEG),
        "g0": _Key(_parse_float, default=None, help="initial momentum of mass"),
        "g0_rate": _Key(_parse_float, default=None, help="initial dG/dt (default 0 or from snapshot)"),
        "mass": _Key(_parse_float, default=None, help="total mass (or derive from snapshot)", rule=_NONNEG),
        "snapshot": _Key(_parse_snapshot, default=None, help="snapshot CSV for conserved quantities"),
        "scan_points": _Key(_parse_int, default="400", help="geometric scan resolution"),
        "gamma": _GAMMA,
        "dim": _DIM,
    },
    "volume": {
        "center": _Key(_VEC3, default="0,0,0", help="sphere center"),
        "radius": _Key(_parse_float, required=True, help="sphere radius"),
        "resolution": _Key(_parse_list(_parse_int, 2, "n_lat,n_lon"), default="24,48",
                           help="n_lat,n_lon boundary sampling"),
        "field": _Key(_parse_field_source, default="zero",
                      help="velocity source: zero, radial:k=<k> or deformation:<csv>"),
        "pressure": _Key(_parse_forms("pressure", {"const:<p>": float}), default="const:1",
                         help="pressure field, const:<p>"),
        "density": _Key(_parse_forms("density", {"const:<rho>": float}), default="const:1",
                        help="density field, const:<rho>"),
        "x0": _Key(_VEC3, required=True, help="probe point (outside the volume)"),
        "q": _Key(_parse_float, default="-7.0", help="weight exponent of the distance functional"),
        "t_end": _Key(_parse_float, required=True, help="tracking horizon"),
        "steps": _Key(_parse_int, default="64", help="advection steps"),
        "gamma": _GAMMA,
    },
    "simulate": {
        "snapshot": _Key(_parse_snapshot, required=True, help="initial snapshot CSV (r,rho,v,p)"),
        "cells": _Key(_parse_int, required=True, help="finite-volume cell count"),
        "cfl": _Key(_parse_float, default="0.45", help="CFL number in (0, 1)"),
        "t_end": _Key(_parse_float, required=True, help="simulation horizon"),
        "out_every": _Key(_parse_float, default=None, help="output interval (default: final time only)"),
        "flux": _Key(_parse_forms("flux", dict.fromkeys(solver.FLUX_CHOICES)), default="rusanov",
                     help="numerical flux: rusanov or hll"),
        "gamma": _GAMMA,
        "dim": _DIM,
    },
    "verify": {
        "suite": _Key(_parse_forms("suite", dict.fromkeys(("virial", "derivative", "riccati", "compatibility",
                                                           "sigma", "all"))),
                      default="all", help="which canned check suite to run"),
    },
}

_COMMON_KEYS = {
    "out_dir": _Key(str, default="."),
    "seed": _Key(_parse_int, default="0", rule=lambda v, key: _count(v, key, 0)),
}


def _postcheck(subcommand: str, v: dict) -> None:
    """Cross-key rules, then the library objects the runner takes.

    Their constructors are the value checks; the caller turns what they
    reject into a ConfigError, so every such failure precedes out_dir.
    """
    if "gamma" in v:
        v["params"] = GasParameters(n=v.get("dim", 3), gamma=v["gamma"])  # volume tracks in R^3
    if subcommand == "exact":
        for t in v["snapshot_times"]:
            _within(t, "snapshot time", 0.0, v["t_end"], ends="[]")
        params = v["params"]
        shape, where = v["shape"]
        try:
            pair = v["pair"] = build_compatible_profiles(shape, params, mass_scale=v["mass_scale"])
        except InvalidShapeError as exc:  # the builders probe the template: a rejection names its table
            raise ConfigError(f"{where}: {exc}" if where else str(exc)) from None
        if v["variant"] == "mass":
            v["ode"] = deformation_constant(pair, params)
        else:
            gph0 = _power_momentum(pair.rho0, pair.grid, params)
            v["ode"] = excluding_pressure_constant(float(pair.p0[0]), gph0, params)
    elif subcommand == "momenta":
        v["weight"] = v["weight"](v["inner_radius"], v["dim"])
        if v["inner_radius"] is not None:
            # singular weights demand a grid outside the excluded ball
            snap = v["snapshot"]
            keep = snap.grid.r >= v["inner_radius"]
            if np.count_nonzero(keep) < 2:
                raise ConfigError(f"fewer than 2 snapshot nodes beyond inner_radius={v['inner_radius']}")
            grid = RadialGrid(snap.grid.r[keep], r_max=snap.grid.r_max)
            v["snapshot"] = FlowSnapshot(grid, snap.rho[keep], snap.v[keep], snap.p[keep], t=snap.t)
    elif subcommand == "bounds":
        bounds._scan_times(v["horizon"], v["scan_points"])  # the scan's clock, judged before out_dir
        missing = [k for k in ("energy", "g0", "mass") if v[k] is None]
        if v["snapshot"] is None and missing:
            raise ConfigError(f"bounds needs {', '.join(missing)} (or a snapshot to derive them)")
        v["spec"] = DecayClassSpec(
            class_tag=v["class_tag"],
            alpha=(v["alpha_v"], v["alpha_dv"], v["alpha_rho"], v["alpha_p"], v["alpha_theta"]),
            M_v=v["m_v"],
            M_Dv=_UNREAD,
            M_rho=v["m_rho"],
            M_p=_UNREAD,
            M_theta=_UNREAD,
            R0=v["r0"],
            epsilon=v["epsilon"],
        )
        v["spec"].validate(v["params"])
    elif subcommand == "volume":
        v["field"], t_last, path = v["field"]
        _within(v["t_end"], f"{path}: t_end", hi=t_last, ends="(]")  # analytic fields have t_last = inf
        n_lat, n_lon = v["resolution"]
        v["volume"] = MaterialVolume.sphere_surface(v["center"], v["radius"], n_lat=n_lat, n_lon=n_lon)
        _level_times(v["volume"].t, v["t_end"], v["steps"])  # the tracker's clock, judged before out_dir
        # the q bound, then x0 outside and clear of the sphere, are its checks
        v["functional_t0"] = theorem3_functional(
            v["volume"],
            lambda pos: np.full(pos.shape[:-1], v["density"]),
            lambda pos: v["field"](0.0, pos),
            v["x0"],
            v["q"],
            v["params"],
        )
    elif subcommand == "simulate":
        v["solver"] = SolverConfig(cfl=v["cfl"], flux=v["flux"])
        source = v["snapshot"]
        grid = cell_centered_grid(source.grid.r_max, v["cells"])
        resample = lambda f: np.interp(grid.r, source.grid.r, f)
        v["initial"] = FlowSnapshot(grid, resample(source.rho), resample(source.v), resample(source.p), t=source.t)
        # the solver's own checks, in run's order, before out_dir: the output schedule, then positivity
        _output_times(source.t, v["t_end"], v["out_every"])
        state_from_snapshot(v["initial"], v["params"])


# --------------------------------------------------------- config resolution

@dataclass(frozen=True)
class ScenarioConfig:
    """Resolved scenario: subcommand, typed values, and artifact routing.

    raw holds the pre-parse key texts; the config hash is taken over them
    (plus the seed) so it is stable however the values were spelled out.
    out_dir stays outside the hash: it does not change results.
    """

    subcommand: str
    values: dict
    raw: dict
    out_dir: str
    seed: int

    def config_hash(self) -> str:
        canon = [f"subcommand={self.subcommand}", f"seed={self.seed}"]
        canon += [f"{k}={self.raw[k]}" for k in sorted(self.raw)]
        return hashlib.sha256("\n".join(canon).encode()).hexdigest()[:12]

    def header(self) -> str:
        return f"# gasmoments {__version__} config {self.config_hash()}"


def _load_ini(path: str, subcommand: str) -> dict:
    """Key texts of [common] and [subcommand]; a line is blank, a # or ; comment, [section] or key = value (or :)."""
    try:
        text = _read_text(path)  # an InvalidInputError is resolve_config's to report
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")
    if not text.strip():
        raise ConfigError(f"{path}: line 1: config file is empty")
    merged, seen, section, schema = {}, set(), None, None
    for lineno, line in enumerate(text.split("\n"), start=1):
        line = line.strip()
        if not line or line[0] in "#;":
            continue
        error = lambda what: ConfigError(f"{path}: line {lineno}: {what}")
        if line[0] == "[" and line[-1] == "]":
            section = line[1:-1]
            schema = _COMMON_KEYS if section == "common" else _SCHEMAS.get(section)
            if schema is None:
                raise error(f"unknown section [{section}]")
            if section in seen:
                raise error(f"repeated section [{section}]")
            seen.add(section)
        elif section is None:
            raise error(f"expected a [section] header, got {line!r}")
        else:
            key, sep, value = line.partition("=")
            if ":" in key:  # a colon before the first = ends the key
                key, sep, value = line.partition(":")
            key = key.strip().lower()
            if not sep or not key:
                raise error(f"expected key = value, got {line!r}")
            if key not in schema:
                raise error(f"unknown key {key!r} in [{section}]")
            if (section, key) in seen:
                raise error(f"repeated key {key!r} in [{section}]")
            seen.add((section, key))
            if section in ("common", subcommand):
                merged[key] = value.strip()
    return merged


def resolve_config(args: argparse.Namespace) -> ScenarioConfig:
    subcommand = args.subcommand
    schema = _SCHEMAS[subcommand]

    config_path = getattr(args, "config", None)
    raw = {}
    values = {}
    try:
        file_values = {} if config_path is None else _load_ini(config_path, subcommand)
        # a flag overrides the file; an absent flag is not in the namespace (SUPPRESS)
        given = {**file_values, **vars(args)}
        # a default is the text a user would type, read by the same parser and rule as given text
        for key, spec in {**schema, **_COMMON_KEYS}.items():
            text = given.get(key, spec.default)
            if text is None and spec.required:
                raise ConfigError(f"{subcommand}: missing required key {key!r}")
            raw[key] = "" if text is None else text
            values[key] = None if text is None else spec.rule(spec.parse(text), key)
        out_dir, seed = values.pop("out_dir"), values.pop("seed")
        _postcheck(subcommand, values)
    except GasmomentsError as exc:
        # what the library rejects, with the file and line where it read one
        raise ConfigError(str(exc)) from None

    # the hash takes the seed apart, and out_dir not at all
    raw = {key: raw[key] for key in schema}
    return ScenarioConfig(subcommand=subcommand, values=values, raw=raw, out_dir=out_dir, seed=seed)


# ----------------------------------------------------------------- runners

def _emit(cfg: ScenarioConfig, name: str, text: str) -> None:
    path = os.path.join(cfg.out_dir, name)
    _write_atomic(path, text)
    print(f"wrote {path}")


def _emit_csv(cfg: ScenarioConfig, name: str, names: list, columns) -> None:
    for column, values in zip(names, columns):
        i = _first_bad(values)
        if i is not None:
            raise InvalidInputError(f"{name} column {column!r} is not finite: {values[i]}")
    _emit(cfg, name, f"{cfg.header()}\n{','.join(names)}\n" + _csv_rows(*columns))


def _emit_json(cfg: ScenarioConfig, name: str, fields: dict) -> None:
    head = {"toolkit_version": __version__, "config_hash": cfg.config_hash()}
    _emit(cfg, name, _json_text({**head, **fields}) + "\n")


def _run_exact(cfg: ScenarioConfig) -> bool:
    v = cfg.values
    params, pair, ode = v["params"], v["pair"], v["ode"]
    sol = integrate_deformation(ode, v["t_end"], v["tol"])

    _emit_csv(cfg, "deformation.csv", ["t", "a", "b"], (sol.t_grid, sol.a_samples, sol.b_samples))
    for i, t in enumerate(v["snapshot_times"]):
        snap = reconstruct_fields(sol, pair, t, params)
        _emit(cfg, f"snapshot_{i:03d}.csv", snapshot_text(snap, cfg.header()))
    _emit_json(cfg, "summary.json", {
        "variant": v["variant"],
        "K": ode.K,
        "m_exp": ode.m_exp,
        "gamma": v["gamma"],
        "dim": v["dim"],
        "mass_scale": v["mass_scale"],
        "profile_scale": pair.scale,
        "compatibility_residual": check_compatibility(pair, params),
        "t_end": v["t_end"],
        "tol": v["tol"],
        "steps_accepted": int(len(sol.t_grid)),
    })
    return True


def _run_momenta(cfg: ScenarioConfig) -> bool:
    v = cfg.values
    params, snap, weight = v["params"], v["snapshot"], v["weight"]
    terms = lemma1_terms(snap, weight, v["region"], params)
    _emit_json(cfg, "momenta.json", {
        "weight": cfg.raw["weight"],
        "region": v["region"],
        "G": g_phi(snap, weight, params),
        "G_rate": terms.G_rate,
        "I1": terms.I1,
        "I2": terms.I2,
        "I3": terms.I3,
        "I4": terms.I4,
        "residual": virial_residual(snap, params),
    })
    return True


def _run_bounds(cfg: ScenarioConfig) -> bool:
    v = cfg.values
    params = v["params"]
    energy, g0, g0_rate, mass = v["energy"], v["g0"], v["g0_rate"], v["mass"]
    snap = v["snapshot"]
    if snap is not None:
        rep = conserved(snap, params)
        energy = rep.e_total if energy is None else energy
        mass = rep.mass if mass is None else mass
        g0 = g_phi(snap, Quadratic(), params) if g0 is None else g0
        g0_rate = g_phi_rate(snap, Quadratic(), params) if g0_rate is None else g0_rate
    if g0_rate is None:
        g0_rate = 0.0

    cert = contradiction_time(
        v["spec"], energy, g0, g0_rate, mass, v["horizon"], params, scan_points=v["scan_points"]
    )
    _emit_csv(cfg, "bounds.csv", ["t", "lower", "upper"], (cert.times, cert.lower, cert.upper))
    _emit_json(cfg, "certificate.json", {
        "class_tag": v["class_tag"],
        "verdict": cert.verdict,
        "t_star": cert.t_star,
        "horizon": v["horizon"],
        "energy": energy,
        "g0": g0,
        "g0_rate": g0_rate,
        "mass": mass,
    })
    return True


def _run_volume(cfg: ScenarioConfig) -> bool:
    v = cfg.values
    pressure_field = lambda t, pos: np.full(pos.shape[:-1], v["pressure"])
    report, dists, final = track_boundary(
        v["volume"], v["field"], pressure_field, v["x0"], v["t_end"], v["steps"]
    )
    series = (report.times, report.fluxes, dists, [v["functional_t0"]] * len(report.times))
    _emit_csv(cfg, "volume_series.csv", ["t", "flux", "min_distance", "functional_t0"], series)
    cloud = final.points.reshape(-1, 3).T
    _emit_csv(cfg, "volume_final.csv", ["x", "y", "z"], cloud)
    _emit_json(cfg, "volume_summary.json", {
        "flux_sup": report.M_observed,
        "functional_t0": v["functional_t0"],
        "final_min_distance": float(dists[-1]),
        "particles": int(cloud.shape[1]),
    })
    return True


def _run_simulate(cfg: ScenarioConfig) -> bool:
    v = cfg.values
    result = solver_run(v["initial"], v["t_end"], v["solver"], v["params"], out_every=v["out_every"])

    log = result.log
    columns = [log[k] for k in ("t", "mass", "e_kinetic", "e_internal", "G", "mass_out")]
    _emit_csv(cfg, "conservation.csv", ["t", "mass", "E_k", "E_i", "G", "mass_out"], columns)
    for i, snap in enumerate(result.snapshots):
        _emit(cfg, f"snapshot_{i:03d}.csv", snapshot_text(snap, cfg.header()))
    return True


# ------------------------------------------------------------ verify suites

def _suite_virial(seed: int) -> dict:
    params = GasParameters(n=3, gamma=5.0 / 3.0)
    pair = build_compatible_profiles(GaussianShape(), params)
    grid = RadialGrid.uniform(120.0 * pair.scale, 10001)
    sol = integrate_deformation(deformation_constant(pair, params), 1.0, 1e-8)
    snap = reconstruct_fields(sol, pair, 1.0, params, grid=grid)
    res = virial_residual(snap, params)
    return {"residual": res, "threshold": 1e-6, "passed": bool(res < 1e-6)}


def _suite_derivative(seed: int) -> dict:
    params = GasParameters(n=3, gamma=5.0 / 3.0)
    pair = build_compatible_profiles(GaussianShape(), params)
    sol = integrate_deformation(deformation_constant(pair, params), 2.0, 1e-10)
    grid = RadialGrid.uniform(20.0, 4001)
    dt = 1e-3
    w = Quadratic()
    g = lambda t: g_phi(reconstruct_fields(sol, pair, t, params, grid=grid), w, params)
    fd = (g(1.0 + dt) - g(1.0 - dt)) / (2.0 * dt)
    rate = g_phi_rate(reconstruct_fields(sol, pair, 1.0, params, grid=grid), w, params)
    rel = abs(fd - rate) / abs(rate)
    return {"fd": fd, "rate": rate, "rel_error": rel, "threshold": 1e-4, "passed": bool(rel < 1e-4)}


def _suite_riccati(seed: int) -> dict:
    # forcing-free case collapses to a' = -a^2, solved by 1/(1+t)
    sol = integrate_deformation(DeformationODE(K=0.0, m_exp=4.0, a0=1.0), 10.0, 1e-10)
    ts = np.linspace(0.0, 10.0, 101)
    err = max(abs(sol.a_at(float(t)) - 1.0 / (1.0 + t)) for t in ts)
    return {"max_error": err, "threshold": 1e-8, "passed": bool(err < 1e-8)}


def _suite_compatibility(seed: int) -> dict:
    params = GasParameters(n=3, gamma=5.0 / 3.0)
    pair = build_compatible_profiles(GaussianShape(), params)
    res_scaled = check_compatibility(pair, params)
    balanced = build_balanced_profiles(GaussianShape(), params, forcing=1.3)
    res_balanced = check_compatibility(balanced, params)
    k_err = abs(deformation_constant(balanced, params).K - 1.3) / 1.3
    passed = res_scaled < 1e-6 and res_balanced < 1e-10 and k_err < 1e-10
    return {
        "residual_scaled": res_scaled,
        "residual_balanced": res_balanced,
        "forcing_recovery_error": k_err,
        "threshold": 1e-6,
        "passed": bool(passed),
    }


def _suite_sigma(seed: int) -> dict:
    # |sigma|^2 against the cross-product identity on random vector pairs
    rng = np.random.default_rng(seed)
    v = rng.normal(size=(200, 3))
    x = rng.normal(size=(200, 3))
    vals = np.array([sigma_norm_sq(vi, xi) for vi, xi in zip(v, x)])
    ref = np.sum(np.cross(v, x) ** 2, axis=1)
    rel = float(np.max(np.abs(vals - ref)) / np.max(ref))
    radial = abs(sigma_norm_sq(2.5 * x[0], x[0])) / float(np.sum(x[0] ** 2) ** 2)
    passed = rel < 1e-12 and float(np.min(vals)) >= -1e-12 and radial < 1e-12
    return {"cross_check_error": rel, "radial_case": radial, "threshold": 1e-12, "passed": bool(passed)}


_SUITES = {
    "virial": _suite_virial,
    "derivative": _suite_derivative,
    "riccati": _suite_riccati,
    "compatibility": _suite_compatibility,
    "sigma": _suite_sigma,
}


def _run_verify(cfg: ScenarioConfig) -> bool:
    names = list(_SUITES) if cfg.values["suite"] == "all" else [cfg.values["suite"]]
    all_passed = True
    for name in names:
        result = {"suite": name, **_SUITES[name](cfg.seed)}
        _emit_json(cfg, f"verify_{name}.json", result)
        status = "pass" if result["passed"] else "FAIL"
        print(f"{name}: {status}")
        all_passed = all_passed and result["passed"]
    return all_passed


_RUNNERS = {
    "exact": _run_exact,
    "momenta": _run_momenta,
    "bounds": _run_bounds,
    "volume": _run_volume,
    "simulate": _run_simulate,
    "verify": _run_verify,
}


# -------------------------------------------------------------- entry point

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    # built once per process: parse_args keeps no state in the parser.
    # SUPPRESS keeps a subparser from clobbering globals given before the
    # subcommand: absent flags never touch the namespace
    common = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    common.add_argument("--config", help="scenario INI file; flags override its values")
    common.add_argument("--out-dir", dest="out_dir", help="output directory (created if missing)")
    common.add_argument("--seed", help="seed for randomized property suites")

    parser = argparse.ArgumentParser(
        prog="gasmoments",
        parents=[common],
        description="Momentum-of-mass toolkit: exact solutions, diagnostics, certificates, tracking, solver.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, schema in _SCHEMAS.items():
        sp = sub.add_parser(name, parents=[common], argument_default=argparse.SUPPRESS)
        for key, spec in schema.items():
            sp.add_argument("--" + key.replace("_", "-"), dest=key, help=spec.help)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        cfg = resolve_config(args)
        os.makedirs(cfg.out_dir, exist_ok=True)
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    try:
        passed = _RUNNERS[cfg.subcommand](cfg)
    except (GasmomentsError, OSError) as exc:  # anything else is a bug: let its traceback show
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    return 0 if passed else 3


if __name__ == "__main__":
    sys.exit(main())
