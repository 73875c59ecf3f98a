"""Study configuration files.

A study is described by one YAML document with named sections; the file
is the provenance record, so parsing is strict: unknown sections or keys
fail with the offending dotted path, and every value is type-checked
against `_SCHEMA` before it reaches
:class:`~spdefem.experiments.StudyConfig`.

Schema (sections and keys, with defaults in brackets):

    study:
      kind: strong | weak | splitting_dt | moments | operators   (required)
      samples: int            [400]
      seed: int               [0]
    mesh:
      levels_log2: [3, 4, 5]  # h = 2^-k;  or  levels: [0.125, ...]
      reference_log2: 9       # strong and weak only; or  reference: float
    noise:
      family: power_decay | white | custom                        (required)
      rho: float              # power_decay only (required there)
      k_trunc: int            [K_TRUNC = 1024; custom: the number of weights]
      weights: [floats]       # custom only (required there)
    drift:
      preset: allen_cahn | zero | linear    # or  coeffs: [a0, a1, ...]
      rate: float             # linear preset only (required there)
      # coeffs: [a0] or [a0, a1], or a cubic [0, a1, 0, a3] with a3 < 0
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

A ``<key>_log2`` key gives ``<key>`` as 2^-k; giving both is rejected,
as is a key the noise family or drift preset does not read (``rho``
under ``custom`` too).  One rule says which kind reads which key: each
key sets a ``StudyConfig`` field, every ``noise`` key the covariance and
every ``drift`` key the drift, and on a kind ``StudyConfig.KIND_FIELDS``
does not list for that field the key is refused, as a library
``StudyConfig`` refuses a non-default value of it.  So an operators
study, which draws no noise and steps no drift, reads only study.kind,
study.seed, the mesh widths, time.horizon (semigroup pairs are
evaluated there) and operators.pairs, and no key it never reads reaches
its hash.
``horizon``, ``dt_ref``, ``rho``, every mesh width and every step size
must be finite.  Removed keys are refused with the reason: ``time.policy``
and ``noise.beta``, which no study reads, and ``study.batch_size``,
``study.p_order`` and ``mesh.length``, which every study fixes (batches of
100 samples, root-mean-square errors, the unit interval).  The meshes of
strong, weak and moment studies must nest: sorted, each element count
divides the next finer one (levels_log2 ladders always do).
"""

from __future__ import annotations

import math

import yaml

from .dynamics import PolynomialDrift
from .experiments import STUDY_KINDS, StudyConfig, _kinds_text
from .fem import _check_operator_pair
from .noise import K_TRUNC, CovarianceSpec

__all__ = ["ConfigError", "parse_config", "load_config"]


class ConfigError(ValueError):
    """A study document failed validation; the message carries the
    dotted key path."""


def _fail(path: str, reason: str) -> None:
    raise ConfigError(f"{path}: {reason}")


def _require_mapping(value, path: str) -> dict:
    if not isinstance(value, dict):
        _fail(path, "expected a mapping of keys to values")
    return value


def _wrap(path: str, build, *args, **kwargs):
    """Re-raise a constructor's ValueError with the key path prefixed."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _typed(types, name, convert=None):
    """A check that a value is one of ``types`` (never a bool), then
    converted."""
    def check(value, path):
        if isinstance(value, bool) or not isinstance(value, types):
            _fail(path, f"expected {name}, got {value!r}")
        return value if convert is None else convert(value)
    return check


def _list_of(item, name):
    """A check that a value is a non-empty list, item by item."""
    def check(value, path):
        if not isinstance(value, list) or not value:
            _fail(path, f"expected a non-empty list of {name}")
        return tuple(item(v, f"{path}[{i}]") for i, v in enumerate(value))
    return check


def _pow2(k: int) -> float:
    # 2.0 ** 1024 overflows; an infinite width or step is refused later
    return 2.0 ** -k if k > -1024 else math.inf


_INT = _typed(int, "an integer")
_NUMBER = _typed((int, float), "a number", float)
_STR = _typed(str, "a string")
_NUMBERS = _list_of(_NUMBER, "numbers")
_EXPONENT = _typed(int, "an integer exponent", _pow2)
_EXPONENTS = _list_of(_EXPONENT, "integers")


def _pair(value, path):
    if not isinstance(value, list) or len(value) != 3:
        _fail(path, "expected an [s, r, which] triple")
    pair = (_NUMBER(value[0], path), _NUMBER(value[1], path),
            _STR(value[2], path))
    _wrap(path, _check_operator_pair, *pair)
    return pair


# section -> key -> check, which returns the converted value
_SCHEMA = {
    "study": {"kind": _STR, "samples": _INT, "seed": _INT},
    "mesh": {"levels": _NUMBERS, "levels_log2": _EXPONENTS,
             "reference": _NUMBER, "reference_log2": _EXPONENT},
    "noise": {"family": _STR, "rho": _NUMBER, "k_trunc": _INT,
              "weights": _NUMBERS},
    "drift": {"preset": _STR, "rate": _NUMBER, "coeffs": _NUMBERS},
    "time": {"horizon": _NUMBER, "dt_ref": _NUMBER, "dt_ref_log2": _EXPONENT,
             "dt_levels": _NUMBERS, "dt_levels_log2": _EXPONENTS},
    "initial": {"profile": _STR},
    "functional": {"id": _STR},
    "operators": {"pairs": _list_of(_pair, "[s, r, which] triples")},
}

_REMOVED_KEYS = {
    "time.policy": "removed: the h2beta step policy is gone, and every "
                   "level of a strong or weak study steps at dt_ref",
    "noise.beta": "removed: no study reads a regularity index, so a "
                  "custom family takes only its weights",
    "study.batch_size": "removed: every study runs in batches of 100 "
                        "samples",
    "study.p_order": "removed: strong and splitting_dt errors are always "
                     "root-mean-square",
    "mesh.length": "removed: every study runs on the unit interval [0, 1]",
}

# the StudyConfig field of each plain key whose name differs from it;
# the noise and drift keys build theirs in `_BUILT`
_FIELD_OF = {"mesh.reference": "h_ref", "initial.profile": "x0",
             "functional.id": "functional",
             "operators.pairs": "operator_pairs"}

# the keys each noise family requires besides family; k_trunc is optional
_NOISE_KEYS = {"power_decay": ("rho",), "white": (), "custom": ("weights",)}

# each drift preset's constructor and the keys it requires besides preset
_PRESETS = {"allen_cahn": (PolynomialDrift.allen_cahn, ()),
            "zero": (PolynomialDrift.zero, ()),
            "linear": (PolynomialDrift.linear, ("rate",))}


def _checked_values(doc: dict) -> dict:
    """Every non-null key of the document, type-checked and converted,
    by its dotted path as given (a ``_log2`` key holds its 2^-k)."""
    values = {}
    for name in doc:
        if name not in _SCHEMA:
            _fail(str(name),
                  f"unknown key; allowed here: {', '.join(_SCHEMA)}")
    for name, schema in _SCHEMA.items():
        raw = doc.get(name)
        section = _require_mapping(raw, name) if raw is not None else {}
        for key, value in section.items():
            path = f"{name}.{key}"
            if key not in schema:
                _fail(path, _REMOVED_KEYS.get(
                    path, f"unknown key; allowed here: {', '.join(schema)}"))
            plain = key.removesuffix("_log2")
            if plain != key and plain in section:
                _fail(f"{name}.{plain}",
                      f"give either {plain} or {key}, not both")
            if value is not None:
                values[path] = schema[key](value, path)
    return values


def _only(values: dict, section: str, owner: str, required, optional=()):
    """Refuse each key of ``section`` that ``owner`` does not read, and
    each ``required`` one that is missing."""
    for key in _SCHEMA[section]:
        path = f"{section}.{key}"
        if key in required and path not in values:
            _fail(path, f"required for {owner}")
        if path in values and key not in (*required, *optional):
            _fail(path, f"not read by {owner}")


def _parse_noise(values: dict) -> CovarianceSpec:
    family = values.get("noise.family")
    if family not in _NOISE_KEYS:
        _fail("noise.family", "required: power_decay, white, or custom"
              if family is None else f"unknown family {family!r}; choose "
              "power_decay, white, or custom")
    _only(values, "noise", f"the {family} family", _NOISE_KEYS[family],
          ("family", "k_trunc"))
    weights = values.get("noise.weights")
    k_trunc = values.get("noise.k_trunc",
                         K_TRUNC if weights is None else len(weights))
    return _wrap("noise", CovarianceSpec, kind=family, k_trunc=k_trunc,
                 rho=values.get("noise.rho"), custom_weights=weights)


def _parse_drift(values: dict) -> PolynomialDrift:
    if "drift.coeffs" in values:
        if "drift.preset" in values:
            _fail("drift.preset", "give either preset or coeffs, not both")
        _only(values, "drift", "coeffs", ("coeffs",))
        return _wrap("drift.coeffs", PolynomialDrift, values["drift.coeffs"])
    preset = values.get("drift.preset", "allen_cahn")
    if preset not in _PRESETS:
        _fail("drift.preset", f"unknown preset {preset!r}; choose one of "
              f"{', '.join(_PRESETS)}")
    build, required = _PRESETS[preset]
    _only(values, "drift", f"preset: {preset}", required, ("preset",))
    return _wrap("drift", build,
                 *(values[f"drift.{key}"] for key in required))


# the field that all keys of a section build together, and its builder
_BUILT = {"noise": ("covariance", _parse_noise),
          "drift": ("drift", _parse_drift)}

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
    values = _checked_values(doc)

    kind = values.get("study.kind")
    if kind not in STUDY_KINDS:
        _fail("study.kind", ("required" if kind is None else f"unknown kind "
              f"{kind!r}") + f"; choose {_kinds_text(STUDY_KINDS)}")
    fields = {}
    for path, value in values.items():
        plain = path.removesuffix("_log2")
        section, _, key = plain.partition(".")
        built = _BUILT.get(section)
        field = built[0] if built else _FIELD_OF.get(plain, key)
        kinds = StudyConfig.KIND_FIELDS.get(field)
        if kinds is not None and kind not in kinds:
            _fail(path, f"only meaningful for {_kinds_text(kinds)} studies")
        if not built:
            fields[field] = value
    if "levels" not in fields:
        _fail("mesh.levels", "required (or mesh.levels_log2)")
    for field, build in _BUILT.values():
        if kind in StudyConfig.KIND_FIELDS[field]:
            fields[field] = build(values)
    return _wrap("document", StudyConfig, **fields)


def load_config(path) -> StudyConfig:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_config(handle.read())
