"""Study configuration files.

A study is described by one YAML document with named sections; the file
is the provenance record, so parsing is strict: unknown sections or keys
fail with the offending dotted path, and every value is type-checked
before it reaches :class:`~spdefem.experiments.StudyConfig`.

Schema (sections and keys, with defaults in brackets):

    study:
      kind: strong | weak | splitting_dt | moments | operators   (required)
      samples: int            [400]
      batch_size: int         [min(100, samples)]
      p_order: int            # strong and splitting_dt only  [2]
      seed: int               [0]
    mesh:
      levels_log2: [3, 4, 5]  # h = 2^-k;  or  levels: [0.125, ...]
      reference_log2: 9       # strong and weak only; or  reference: float
      length: float           [1.0]
    noise:
      family: power_decay | white | custom                        (required)
      rho: float              # power_decay only
      k_trunc: int            [1024]
      weights: [floats]       # custom only
    drift:
      preset: allen_cahn | zero | linear    # or  coeffs: [a0, a1, ...]
      rate: float             # linear preset only
    time:
      horizon: float          [1.0]
      dt_ref_log2: int        # or  dt_ref: float   [dt_ref = 2^-8]
      dt_levels_log2: [ints]  # splitting_dt only; or  dt_levels: [floats]
    initial:
      profile: default | zero | mode1       [default]
    functional:
      id: str                 # weak only  [exp_neg_sq_norm]
    operators:
      pairs: [[s, r, which], ...]           # operators kind only

Sections and keys that do not apply to the chosen kind are rejected, as
is mixing a plain key with its log2 twin.  Two removed keys are refused
with the reason: ``time.policy`` (every strong or weak level steps at
dt_ref) and ``noise.beta`` (no study reads a regularity index).  The
meshes of strong, weak and moment studies must nest: sorted, each
element count divides the next finer one (levels_log2 ladders always
do).
"""

from __future__ import annotations

import yaml

from .dynamics import PolynomialDrift
from .experiments import StudyConfig
from .noise import CovarianceSpec

__all__ = ["ConfigError", "parse_config", "load_config"]

_SECTIONS = ("study", "mesh", "noise", "drift", "time", "initial",
             "functional", "operators")

_SECTION_KEYS = {
    "study": ("kind", "samples", "batch_size", "p_order", "seed"),
    "mesh": ("levels", "levels_log2", "reference", "reference_log2",
             "length"),
    "noise": ("family", "rho", "k_trunc", "weights"),
    "drift": ("preset", "rate", "coeffs"),
    "time": ("horizon", "dt_ref", "dt_ref_log2", "dt_levels",
             "dt_levels_log2"),
    "initial": ("profile",),
    "functional": ("id",),
    "operators": ("pairs",),
}

_REMOVED_KEYS = {
    "time.policy": "removed: the h2beta step policy is gone, and every "
                   "level of a strong or weak study steps at dt_ref",
    "noise.beta": "removed: no study reads a regularity index, so a "
                  "custom family takes only its weights",
}

_DRIFT_PRESETS = ("allen_cahn", "zero", "linear")


class ConfigError(ValueError):
    """A study document failed validation; the message carries the
    dotted key path."""


def _fail(path: str, reason: str) -> None:
    raise ConfigError(f"{path}: {reason}")


def _require_mapping(value, path: str) -> dict:
    if not isinstance(value, dict):
        _fail(path, "expected a mapping of keys to values")
    return value


def _reject_unknown(mapping: dict, allowed, path: str) -> None:
    for key in mapping:
        if key not in allowed:
            where = f"{path}.{key}" if path else str(key)
            _fail(where, _REMOVED_KEYS.get(
                where, f"unknown key; allowed here: {', '.join(allowed)}"))


def _get_typed(section: dict, path: str, key: str, kinds, type_name: str,
               default=None):
    if key not in section or section[key] is None:
        return default
    value = section[key]
    if isinstance(value, bool) or not isinstance(value, kinds):
        _fail(f"{path}.{key}", f"expected {type_name}, got {value!r}")
    return value


def _get_int(section, path, key, default=None):
    return _get_typed(section, path, key, int, "an integer", default)


def _get_float(section, path, key, default=None):
    value = _get_typed(section, path, key, (int, float), "a number", default)
    return None if value is None else float(value)


def _get_str(section, path, key, default=None):
    return _get_typed(section, path, key, str, "a string", default)


def _get_number_list(section, path, key):
    if key not in section or section[key] is None:
        return None
    value = section[key]
    if not isinstance(value, list) or not value:
        _fail(f"{path}.{key}", "expected a non-empty list of numbers")
    out = []
    for i, item in enumerate(value):
        if isinstance(item, bool) or not isinstance(item, (int, float)):
            _fail(f"{path}.{key}[{i}]", f"expected a number, got {item!r}")
        out.append(float(item))
    return out


def _exclusive(section, path, plain, log2):
    if plain in section and log2 in section:
        _fail(f"{path}.{plain}", f"give either {plain} or {log2}, not both")


def _widths_from(section, path, plain, log2):
    """A decreasing ladder, given directly or as log2 exponents."""
    _exclusive(section, path, plain, log2)
    if log2 in section:
        value = section[log2]
        if not isinstance(value, list) or not value:
            _fail(f"{path}.{log2}", "expected a non-empty list of integers")
        out = []
        for i, item in enumerate(value):
            if isinstance(item, bool) or not isinstance(item, int):
                _fail(f"{path}.{log2}[{i}]",
                      f"expected an integer exponent, got {item!r}")
            out.append(2.0 ** -item)
        return tuple(out)
    values = _get_number_list(section, path, plain)
    return None if values is None else tuple(values)


def _scalar_from(section, path, plain, log2):
    _exclusive(section, path, plain, log2)
    if log2 in section:
        exponent = _get_int(section, path, log2)
        return None if exponent is None else 2.0 ** -exponent
    return _get_float(section, path, plain)


def _wrap(path: str, build, *args, **kwargs):
    """Re-raise a constructor's ValueError with the key path prefixed."""
    try:
        return build(*args, **kwargs)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _parse_noise(section: dict) -> CovarianceSpec:
    path = "noise"
    family = _get_str(section, path, "family")
    if family is None:
        _fail(f"{path}.family", "required: power_decay, white, or custom")
    k_trunc = _get_int(section, path, "k_trunc", default=1024)
    rho = _get_float(section, path, "rho")
    weights = _get_number_list(section, path, "weights")
    if family == "custom":
        if weights is None:
            _fail(f"{path}.weights", "required for the custom family")
        if "k_trunc" in section and section["k_trunc"] != len(weights):
            _fail(f"{path}.k_trunc", "must equal the number of weights")
        return _wrap(path, CovarianceSpec.custom, weights)
    if weights is not None:
        _fail(f"{path}.weights", "only meaningful for the custom family")
    if family == "power_decay":
        if rho is None:
            _fail(f"{path}.rho", "required for power_decay")
        return _wrap(path, CovarianceSpec.power_decay, rho, k_trunc=k_trunc)
    if family == "white":
        if rho is not None:
            _fail(f"{path}.rho", "only meaningful for power_decay")
        return _wrap(path, CovarianceSpec.white, k_trunc=k_trunc)
    _fail(f"{path}.family",
          f"unknown family {family!r}; choose power_decay, white, or custom")


def _parse_drift(section: dict) -> PolynomialDrift:
    path = "drift"
    preset = _get_str(section, path, "preset")
    coeffs = _get_number_list(section, path, "coeffs")
    rate = _get_float(section, path, "rate")
    if preset is not None and coeffs is not None:
        _fail(f"{path}.preset", "give either preset or coeffs, not both")
    if preset is None and coeffs is None:
        preset = "allen_cahn"
    if coeffs is not None:
        if rate is not None:
            _fail(f"{path}.rate", "only meaningful with preset: linear")
        return _wrap(f"{path}.coeffs", PolynomialDrift, tuple(coeffs))
    if preset not in _DRIFT_PRESETS:
        _fail(f"{path}.preset",
              f"unknown preset {preset!r}; choose one of "
              f"{', '.join(_DRIFT_PRESETS)}")
    if preset == "linear":
        if rate is None:
            _fail(f"{path}.rate", "required for preset: linear")
        return PolynomialDrift.linear(rate)
    if rate is not None:
        _fail(f"{path}.rate", "only meaningful with preset: linear")
    return (PolynomialDrift.allen_cahn() if preset == "allen_cahn"
            else PolynomialDrift.zero())


# libyaml's safe loader, several times faster than the pure-Python
# SafeLoader, which is the fallback where pyyaml was built without libyaml
_LOADER = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader


def parse_config(text: str) -> StudyConfig:
    """Parse and validate one YAML study document."""
    try:
        doc = yaml.load(text, Loader=_LOADER)
    except yaml.YAMLError as exc:
        raise ConfigError(f"not a well-formed document: {exc}") from exc
    doc = _require_mapping(doc if doc is not None else {}, "document root")
    _reject_unknown(doc, _SECTIONS, "")
    sections = {}
    for name in _SECTIONS:
        raw = doc.get(name)
        section = _require_mapping(raw, name) if raw is not None else {}
        _reject_unknown(section, _SECTION_KEYS[name], name)
        sections[name] = section

    study = sections["study"]
    kind = _get_str(study, "study", "kind")
    if kind is None:
        _fail("study.kind", "required: strong, weak, splitting_dt, "
              "moments, or operators")
    samples = _get_int(study, "study", "samples", default=400)
    batch_size = _get_int(study, "study", "batch_size",
                          default=min(100, samples))
    p_order = _get_int(study, "study", "p_order", default=2)
    if study.get("p_order") is not None and kind not in ("strong",
                                                        "splitting_dt"):
        _fail("study.p_order",
              "only meaningful for strong or splitting_dt studies")
    seed = _get_int(study, "study", "seed", default=0)

    mesh = sections["mesh"]
    levels = _widths_from(mesh, "mesh", "levels", "levels_log2")
    if levels is None:
        _fail("mesh.levels", "required (or mesh.levels_log2)")
    h_ref = _scalar_from(mesh, "mesh", "reference", "reference_log2")
    if h_ref is not None and kind not in ("strong", "weak"):
        _fail("mesh.reference", "only meaningful for strong or weak studies")
    length = _get_float(mesh, "mesh", "length", default=1.0)

    if "noise" not in doc and kind == "operators":
        covariance = CovarianceSpec.white(k_trunc=16)  # unused by the study
    else:
        covariance = _parse_noise(sections["noise"])
    drift = _parse_drift(sections["drift"])

    time_sec = sections["time"]
    horizon = _get_float(time_sec, "time", "horizon", default=1.0)
    dt_ref = _scalar_from(time_sec, "time", "dt_ref", "dt_ref_log2")
    if dt_ref is None:
        dt_ref = 2.0 ** -8
    dt_levels = _widths_from(time_sec, "time", "dt_levels",
                             "dt_levels_log2") or ()
    if dt_levels and kind != "splitting_dt":
        _fail("time.dt_levels", "only meaningful for splitting_dt studies")

    profile = _get_str(sections["initial"], "initial", "profile",
                       default="default")

    functional_sec = sections["functional"]
    if functional_sec and kind != "weak":
        _fail("functional.id", "only meaningful for weak studies")
    functional = _get_str(functional_sec, "functional", "id",
                          default="exp_neg_sq_norm")

    operators_sec = sections["operators"]
    if operators_sec and kind != "operators":
        _fail("operators.pairs", "only meaningful for operator studies")
    kwargs = {}
    if "pairs" in operators_sec:
        raw_pairs = operators_sec["pairs"]
        if not isinstance(raw_pairs, list) or not raw_pairs:
            _fail("operators.pairs", "expected a non-empty list of "
                  "[s, r, which] triples")
        pairs = []
        for i, item in enumerate(raw_pairs):
            where = f"operators.pairs[{i}]"
            if not isinstance(item, list) or len(item) != 3:
                _fail(where, "expected an [s, r, which] triple")
            s, r, which = item
            if isinstance(s, bool) or not isinstance(s, (int, float)):
                _fail(where, f"s must be a number, got {s!r}")
            if isinstance(r, bool) or not isinstance(r, (int, float)):
                _fail(where, f"r must be a number, got {r!r}")
            if which not in ("l2", "ritz", "semigroup"):
                _fail(where, "which must be l2, ritz, or semigroup")
            pairs.append((float(s), float(r), which))
        kwargs["operator_pairs"] = tuple(pairs)

    return _wrap("document", StudyConfig,
                 kind=kind, covariance=covariance, drift=drift,
                 levels=levels, h_ref=h_ref, dt_levels=dt_levels,
                 dt_ref=dt_ref, samples=samples, batch_size=batch_size,
                 p_order=p_order, functional=functional, horizon=horizon,
                 length=length, x0=profile, seed=seed, **kwargs)


def load_config(path) -> StudyConfig:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_config(handle.read())
