"""Tests for the YAML study-document parser."""

import re
from pathlib import Path

import pytest
import yaml

from spdefem import (ConfigError, CovarianceSpec, PolynomialDrift,
                     StudyConfig, load_config, parse_config)
from spdefem import config

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
README = CONFIG_DIR.parent / "README.md"

MINIMAL_STRONG = """
study:
  kind: strong
mesh:
  levels_log2: [3, 4, 5]
  reference_log2: 7
noise:
  family: power_decay
  rho: 2.0
"""

# the kind-only keys no other test adds to every other kind: the kind
# that reads each, and a section that sets it
KIND_ONLY_BLOCKS = {
    "time.dt_levels": ("splitting_dt",
                       "time:\n  dt_levels: [0.125, 0.0625, 0.03125]"),
    "functional.id": ("weak", "functional:\n  id: cos_mode_1"),
    "operators.pairs": ("operators", "operators:\n  pairs: [[0, 2, l2]]"),
}


class TestDefaults:
    def test_minimal_document_fills_documented_defaults(self):
        cfg = parse_config(MINIMAL_STRONG)
        assert cfg.kind == "strong"
        assert cfg.horizon == 1.0
        assert cfg.samples == 400
        assert cfg.seed == 0
        assert cfg.dt_ref == 2.0 ** -8
        assert cfg.x0 == "default"
        assert cfg.drift.coeffs == (0.0, 1.0, 0.0, -1.0)  # reaction preset
        assert cfg.covariance.kind == "power_decay"
        assert cfg.covariance.rho == 2.0

    def test_log2_and_plain_widths_agree(self):
        plain = MINIMAL_STRONG.replace(
            "levels_log2: [3, 4, 5]", "levels: [0.125, 0.0625, 0.03125]"
        ).replace("reference_log2: 7", "reference: 0.0078125")
        assert parse_config(plain).config_hash \
            == parse_config(MINIMAL_STRONG).config_hash

    def test_load_config_reads_a_file(self, tmp_path):
        path = tmp_path / "study.yaml"
        path.write_text(MINIMAL_STRONG)
        assert load_config(path).config_hash \
            == parse_config(MINIMAL_STRONG).config_hash


def test_non_weak_shipped_hashes_hold():
    # the hash payload keeps the removed step policy as the constant
    # "fixed", so no shipped config outside the weak kind changed identity
    hashes = {name: load_config(CONFIG_DIR / f"{name}.yaml").config_hash
              for name in ("strong_smooth", "strong_white",
                           "moments_trace_class", "moments_white",
                           "splitting_dt", "operators", "trajectory")}
    assert hashes == {
        "strong_smooth": "c4dc9a4e46ec2d0a",
        "strong_white": "2b3973fa63b06c35",
        "moments_trace_class": "0fc5b9ece022c2dc",
        "moments_white": "7ad09411bed911ce",
        "splitting_dt": "5a0e6e4a18986f78",
        "operators": "d67eeb26c3c049ee",
        "trajectory": "ab8fb42dc0f32e38",
    }


def test_weak_shipped_hashes_hold():
    # with the test above, pins the identity of all nine shipped configs
    hashes = {name: load_config(CONFIG_DIR / f"{name}.yaml").config_hash
              for name in ("weak_rate", "weak_linear_oracle")}
    assert hashes == {"weak_rate": "62b5580faf7e16bd",
                      "weak_linear_oracle": "4ab2e1230ecd3d5d"}


def test_readme_yaml_block_parses():
    blocks = re.findall(r"```yaml\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    assert parse_config(blocks[0]).kind == "strong"


def test_module_docstring_names_every_schema_key():
    # the docstring's schema lists each section at a four-space indent,
    # then its keys (a log2 twin may share its plain key's line)
    blocks = dict(re.findall(r"^    (\w+):\n((?:      .*\n)+)",
                             config.__doc__, re.M))
    missing = [f"{name}.{key}" for name, keys in config._SCHEMA.items()
               for key in keys
               if not re.search(rf"(?<!\w){key}:", blocks.get(name, ""))]
    assert missing == []


@pytest.mark.skipif(not yaml.__with_libyaml__,
                    reason="pyyaml built without libyaml")
@pytest.mark.parametrize("path", sorted(CONFIG_DIR.glob("*.yaml")),
                         ids=lambda path: path.stem)
def test_libyaml_and_python_loaders_agree(path, monkeypatch):
    # parse_config uses libyaml's loader where pyyaml has it, and the
    # pure-Python SafeLoader only as the fallback
    assert config._LOADER is yaml.CSafeLoader
    text = path.read_text()
    fast = parse_config(text)
    monkeypatch.setattr(config, "_LOADER", yaml.SafeLoader)
    slow = parse_config(text)
    assert fast == slow
    assert fast.config_hash == slow.config_hash


class TestStrictness:
    def test_unknown_section_rejected_with_path(self):
        with pytest.raises(ConfigError, match="plotting"):
            parse_config(MINIMAL_STRONG + "\nplotting:\n  style: dots\n")

    def test_unknown_key_rejected_with_path(self):
        with pytest.raises(ConfigError, match=r"time\.step"):
            parse_config(MINIMAL_STRONG + "\ntime:\n  step: 0.1\n")

    def test_type_errors_carry_the_key_path(self):
        with pytest.raises(ConfigError, match=r"noise\.rho"):
            parse_config(MINIMAL_STRONG.replace("rho: 2.0", "rho: smooth"))
        with pytest.raises(ConfigError, match=r"study\.samples"):
            parse_config(MINIMAL_STRONG.replace(
                "kind: strong", "kind: strong\n  samples: many"))

    def test_booleans_are_not_numbers(self):
        with pytest.raises(ConfigError, match=r"noise\.rho"):
            parse_config(MINIMAL_STRONG.replace("rho: 2.0", "rho: true"))

    def test_malformed_yaml(self):
        with pytest.raises(ConfigError, match="well-formed"):
            parse_config("study: [unclosed")

    def test_non_mapping_root(self):
        with pytest.raises(ConfigError, match="mapping"):
            parse_config("- just\n- a\n- list\n")

    def test_mixing_plain_and_log2_forms(self):
        with pytest.raises(ConfigError, match="not both"):
            parse_config(MINIMAL_STRONG.replace(
                "levels_log2: [3, 4, 5]",
                "levels_log2: [3, 4, 5]\n  levels: [0.125]"))

    def test_missing_required_keys(self):
        with pytest.raises(ConfigError, match=r"study\.kind"):
            parse_config("mesh:\n  levels_log2: [3, 4, 5]\n")
        with pytest.raises(ConfigError, match=r"mesh\.levels"):
            parse_config("study:\n  kind: strong\nnoise:\n  family: white\n")
        with pytest.raises(ConfigError, match=r"noise\.family"):
            parse_config("""
study: {kind: strong}
mesh: {levels_log2: [3, 4, 5], reference_log2: 7}
""")


class TestDriftSection:
    def base(self, drift_block):
        return MINIMAL_STRONG + "\ndrift:\n" + drift_block

    def test_presets(self):
        zero = parse_config(self.base("  preset: zero"))
        assert zero.drift.coeffs == (0.0,)
        linear = parse_config(self.base("  preset: linear\n  rate: -2.5"))
        assert linear.drift.coeffs == (0.0, -2.5)

    def test_explicit_coefficients(self):
        cfg = parse_config(self.base("  coeffs: [0.0, 2.0, 0.0, -0.5]"))
        assert cfg.drift.coeffs == (0.0, 2.0, 0.0, -0.5)

    def test_positive_cubic_rejected_as_one_sided_violation(self):
        with pytest.raises(ConfigError,
                           match="one-sided Lipschitz violated"):
            parse_config(self.base("  coeffs: [0.0, 1.0, 0.0, 1.0]"))

    def test_cubic_without_closed_form_flow_rejected(self):
        with pytest.raises(ConfigError,
                           match=r"^drift\.coeffs: .*a0 = a2 = 0"):
            parse_config(self.base("  coeffs: [1, 1, 0, -1]"))

    def test_even_degree_rejected_as_one_sided_violation(self):
        with pytest.raises(ConfigError,
                           match="one-sided Lipschitz violated"):
            parse_config(self.base("  coeffs: [0.0, 1.0, -1.0]"))

    def test_degree_five_rejected(self):
        doc = self.base("  coeffs: [0.0, 1.0, 0.0, 0.0, 0.0, -1.0]")
        with pytest.raises(ConfigError, match="degree must stay below 5"):
            parse_config(doc)
        # the same bound applies when the study is weak
        with pytest.raises(ConfigError, match="degree must stay below 5"):
            parse_config(doc.replace("kind: strong", "kind: weak"))

    def test_rate_requires_linear_preset(self):
        with pytest.raises(ConfigError, match=r"drift\.rate"):
            parse_config(self.base("  preset: zero\n  rate: 1.0"))

    def test_preset_and_coeffs_conflict(self):
        with pytest.raises(ConfigError, match="not both"):
            parse_config(self.base(
                "  preset: zero\n  coeffs: [0.0, 1.0]"))


class TestNoiseSection:
    def test_white(self):
        cfg = parse_config(MINIMAL_STRONG.replace(
            "family: power_decay\n  rho: 2.0",
            "family: white\n  k_trunc: 256"))
        assert cfg.covariance.kind == "white"
        assert cfg.covariance.k_trunc == 256

    def test_omitted_k_trunc_is_the_library_default(self):
        # one default for the parser and the classmethods, so an omitted
        # k_trunc means one study whichever entry point built it
        cfg = parse_config(MINIMAL_STRONG)
        assert cfg.covariance == CovarianceSpec.power_decay(2.0)
        assert cfg.covariance.k_trunc == 1024
        white = parse_config(MINIMAL_STRONG.replace(
            "family: power_decay\n  rho: 2.0", "family: white"))
        assert white.covariance == CovarianceSpec.white()

    def test_custom_requires_weights_and_refuses_beta(self):
        doc = MINIMAL_STRONG.replace(
            "family: power_decay\n  rho: 2.0",
            "family: custom\n  weights: [1.0, 0.25, 0.0625]")
        cfg = parse_config(doc)
        assert cfg.covariance.custom_weights == (1.0, 0.25, 0.0625)
        with pytest.raises(ConfigError, match=r"noise\.weights: required"):
            parse_config(doc.replace("\n  weights: [1.0, 0.25, 0.0625]", ""))
        with pytest.raises(ConfigError, match=r"noise\.beta: removed"):
            parse_config(doc + "  beta: 1.0\n")

    def test_rho_only_for_power_decay(self):
        with pytest.raises(ConfigError, match=r"noise\.rho"):
            parse_config(MINIMAL_STRONG.replace(
                "family: power_decay", "family: white"))
        # a custom family reads only its weights; rho would go unread
        with pytest.raises(ConfigError, match=r"noise\.rho: not read"):
            parse_config(MINIMAL_STRONG.replace(
                "family: power_decay",
                "family: custom\n  weights: [1.0, 0.25]"))

    def test_unknown_family(self):
        with pytest.raises(ConfigError, match=r"noise\.family"):
            parse_config(MINIMAL_STRONG.replace(
                "family: power_decay\n  rho: 2.0", "family: pink"))


class TestKindSpecificSections:
    def test_functional_only_for_weak(self):
        doc = MINIMAL_STRONG + "\nfunctional:\n  id: cos_mode_1\n"
        with pytest.raises(ConfigError, match=r"functional\.id"):
            parse_config(doc)
        weak = doc.replace("kind: strong", "kind: weak")
        assert parse_config(weak).functional == "cos_mode_1"

    def test_cos_mode_beyond_k_trunc_rejected(self):
        weak = MINIMAL_STRONG.replace("kind: strong", "kind: weak") \
            + "  k_trunc: 16\nfunctional:\n  id: cos_mode_{}\n"
        assert parse_config(weak.format(16)).functional == "cos_mode_16"
        with pytest.raises(ConfigError, match="cos_mode_17.*k_trunc = 16"):
            parse_config(weak.format(17))

    def test_dt_levels_only_for_splitting(self):
        with pytest.raises(ConfigError, match=r"time\.dt_levels"):
            parse_config(MINIMAL_STRONG
                         + "\ntime:\n  dt_levels_log2: [3, 4, 5]\n")

    def test_policy_only_for_coupled_studies(self):
        doc = """
study: {kind: moments}
mesh: {levels_log2: [3, 4, 5]}
noise: {family: power_decay, rho: 2.0}
time: {policy: h2beta}
"""
        with pytest.raises(ConfigError, match=r"time\.policy"):
            parse_config(doc)

    def test_removed_keys_name_the_removal(self):
        weak = MINIMAL_STRONG.replace("kind: strong", "kind: weak")
        for doc, reason in [
                (weak + "\ntime:\n  policy: h2beta\n",
                 r"time\.policy: removed: the h2beta step policy is gone"),
                (weak + "  beta: 1.0\n",
                 r"noise\.beta: removed: no study reads a regularity index"),
                (weak.replace("kind: weak", "kind: weak\n  batch_size: 100"),
                 r"study\.batch_size: removed: every study runs in batches "
                 "of 100 samples"),
                (MINIMAL_STRONG.replace("kind: strong",
                                        "kind: strong\n  p_order: 2"),
                 r"study\.p_order: removed: strong and splitting_dt errors "
                 "are always root-mean-square"),
                (weak.replace("reference_log2: 7",
                              "reference_log2: 7\n  length: 1.0"),
                 r"mesh\.length: removed: every study runs on the unit "
                 r"interval \[0, 1\]")]:
            with pytest.raises(ConfigError, match=reason):
                parse_config(doc)

    @pytest.mark.parametrize("kind", ["strong", "weak", "moments",
                                      "operators", "splitting_dt"])
    def test_fixed_knobs_refused_on_every_kind(self, kind):
        # batches of 100, root-mean-square errors and the unit interval
        # hold for every kind, so no kind takes the removed keys
        doc = MINIMAL_STRONG.replace("kind: strong", f"kind: {kind}")
        if kind not in ("strong", "weak"):
            doc = doc.replace("  reference_log2: 7\n", "")
        if kind == "operators":
            doc = doc.split("noise:")[0]  # read by no operators study
        if kind == "splitting_dt":
            doc = doc.replace("[3, 4, 5]", "[5]") + (
                "time:\n  dt_levels_log2: [3, 4, 5]\n  dt_ref_log2: 8\n")
        parse_config(doc)
        for key, path in [("batch_size: 100", "study.batch_size"),
                          ("p_order: 2", "study.p_order")]:
            with pytest.raises(ConfigError,
                               match=rf"^{re.escape(path)}: removed"):
                parse_config(doc.replace(f"kind: {kind}",
                                         f"kind: {kind}\n  {key}"))
        with pytest.raises(ConfigError, match=r"^mesh\.length: removed"):
            parse_config(doc.replace("mesh:\n", "mesh:\n  length: 1.0\n"))

    def test_splitting_document(self):
        cfg = parse_config("""
study:
  kind: splitting_dt
  samples: 100
mesh:
  levels_log2: [5]
noise:
  family: power_decay
  rho: 2.0
  k_trunc: 64
time:
  dt_levels_log2: [3, 4, 5]
  dt_ref_log2: 8
""")
        assert cfg.kind == "splitting_dt"
        assert cfg.dt_levels == (0.125, 0.0625, 0.03125)
        assert cfg.dt_ref == 2.0 ** -8

    def test_operators_pairs(self):
        cfg = parse_config("""
study: {kind: operators}
mesh: {levels_log2: [3, 4, 5]}
operators:
  pairs: [[0, 2, l2], [0, 1.5, semigroup]]
""")
        assert cfg.operator_pairs == ((0.0, 2.0, "l2"),
                                      (0.0, 1.5, "semigroup"))

    def test_operators_pairs_validated(self):
        with pytest.raises(ConfigError, match=r"operators\.pairs\[0\]"):
            parse_config("""
study: {kind: operators}
mesh: {levels_log2: [3, 4, 5]}
operators:
  pairs: [[0, 2, fourier]]
""")

    @pytest.mark.parametrize("kind", ["moments", "operators",
                                      "splitting_dt"])
    def test_reference_only_for_strong_and_weak(self, kind):
        doc = MINIMAL_STRONG.replace("kind: strong", f"kind: {kind}")
        with pytest.raises(ConfigError, match=r"mesh\.reference"):
            parse_config(doc)

    OPERATORS_BASE = "study:\n  kind: operators\nmesh:\n  levels_log2: [3, 4, 5]\n"

    @pytest.mark.parametrize("extra, path", [
        ("  samples: 50\n", "study.samples"),
        ("time: {dt_ref_log2: 6}\n", "time.dt_ref_log2"),
        ("noise: {family: power_decay, rho: 2.0, k_trunc: 64}\n",
         "noise.family"),
        ("drift: {preset: zero}\n", "drift.preset"),
        ("initial: {profile: zero}\n", "initial.profile"),
    ])
    def test_keys_operators_studies_never_read_are_refused(self, extra,
                                                           path):
        # each used to parse, and to change the hash of a study that
        # never reads it
        doc = (self.OPERATORS_BASE.replace("mesh:", extra + "mesh:")
               if extra.startswith("  ") else self.OPERATORS_BASE + extra)
        with pytest.raises(ConfigError, match=rf"^{re.escape(path)}: only "
                           "meaningful for strong, weak, moments or "
                           "splitting_dt studies$"):
            parse_config(doc)

    def test_operators_studies_keep_the_keys_they_read(self):
        cfg = parse_config(self.OPERATORS_BASE)
        assert cfg.config_hash == "df758fd58d161148"
        # the seed (--seed overrides it too) and the horizon, at which
        # semigroup pairs are evaluated, are read
        doc = self.OPERATORS_BASE.replace("mesh:", "  seed: 3\nmesh:")
        assert parse_config(doc).seed == 3
        cfg = parse_config(self.OPERATORS_BASE + "time: {horizon: 0.5}\n")
        assert cfg.horizon == 0.5

    def test_library_operators_config_matches_its_document(self):
        cfg = StudyConfig(kind="operators", levels=(0.125, 0.0625, 0.03125))
        assert cfg.config_hash == "df758fd58d161148"
        assert cfg == parse_config(self.OPERATORS_BASE)

    def test_operators_section_only_for_operator_studies(self):
        with pytest.raises(ConfigError, match=r"operators\.pairs"):
            parse_config(MINIMAL_STRONG
                         + "\noperators:\n  pairs: [[0, 2, l2]]\n")

    @pytest.mark.parametrize("key, kind", [
        (key, kind) for key, (reader, _) in KIND_ONLY_BLOCKS.items()
        for kind in ("strong", "weak", "moments", "operators",
                     "splitting_dt") if kind != reader])
    def test_kind_only_keys_refused_on_other_kinds(self, key, kind):
        doc = MINIMAL_STRONG.replace("kind: strong", f"kind: {kind}")
        if kind not in ("strong", "weak"):
            doc = doc.replace("  reference_log2: 7\n", "")
        if kind == "operators":
            doc = doc.split("noise:")[0]  # read by no operators study
        if kind == "splitting_dt":
            doc = doc.replace("[3, 4, 5]", "[5]") + (
                "time:\n  dt_levels_log2: [3, 4, 5]\n  dt_ref_log2: 8\n")
        parse_config(doc)
        with pytest.raises(ConfigError, match=rf"^{re.escape(key)}: only "
                           "meaningful"):
            parse_config(doc + KIND_ONLY_BLOCKS[key][1] + "\n")


class TestDownstreamValidation:
    def test_study_level_errors_surface(self):
        # fine reference too close to the tested levels: caught by the
        # study validation, re-raised with document context
        with pytest.raises(ConfigError, match="reference width"):
            parse_config(MINIMAL_STRONG.replace("reference_log2: 7",
                                                "reference_log2: 6"))

    def test_initial_profile_choices(self):
        cfg = parse_config(MINIMAL_STRONG + "\ninitial:\n  profile: mode1\n")
        assert cfg.x0 == "mode1"
        with pytest.raises(ConfigError, match="x0"):
            parse_config(MINIMAL_STRONG + "\ninitial:\n  profile: bump\n")

    @pytest.mark.parametrize("ratios", [(12, 6, 3), (16, 8, 6)],
                             ids=["12-6-3", "16-8-6"])
    def test_splitting_steps_must_divide_the_horizon(self, ratios):
        # 3 and 6 reference steps do not tile the horizon's 256, so those
        # levels would stop short of T = 1 while the reference reaches it
        dt_levels = [r * 2.0 ** -8 for r in ratios]
        with pytest.raises(ValueError, match="divide the horizon"):
            StudyConfig(kind="splitting_dt",
                        covariance=CovarianceSpec.power_decay(2.0, 64),
                        drift=PolynomialDrift.allen_cahn(),
                        levels=(2.0 ** -5,), dt_levels=tuple(dt_levels),
                        dt_ref=2.0 ** -8, samples=100)
        doc = """
study: {kind: splitting_dt, samples: 100}
mesh: {levels_log2: [5]}
noise: {family: power_decay, rho: 2.0, k_trunc: 64}
time: {dt_ref_log2: 8, dt_levels: %s}
"""
        with pytest.raises(ConfigError, match="divide the horizon"):
            parse_config(doc % dt_levels)
        assert parse_config(doc % [r * 2.0 ** -8 for r in (16, 8, 4)]) \
            .step_ratios == (16, 8, 4)

    @pytest.mark.parametrize("old, new, reason", [
        ("rho: 2.0", "rho: .nan", r"noise: power_decay requires a finite "
         r"rho > 0, got nan"),
        ("rho: 2.0", "rho: .inf", "finite rho > 0, got inf"),
        ("rho: 2.0", "rho: 2.0\ntime:\n  horizon: .inf",
         "horizon must be positive and finite, got inf"),
        ("rho: 2.0", "rho: 2.0\ntime:\n  horizon: .nan",
         "horizon must be positive and finite, got nan"),
        ("rho: 2.0", "rho: 2.0\ntime:\n  dt_ref: .nan",
         "dt_ref must be positive and finite, got nan"),
        ("rho: 2.0", "rho: 2.0\ntime:\n  dt_ref: 0",
         "dt_ref must be positive and finite, got 0.0"),
        ("reference_log2: 7", "reference_log2: -2000",
         "width inf does not tile"),
        ("rho: 2.0", "rho: 2.0\ndrift:\n  preset: linear\n  rate: .nan",
         r"drift: coefficients must be a finite"),
        # NaN used to fail an ordering or positivity check, under its reason
        ("levels_log2: [3, 4, 5]", "levels: [.nan, 0.125, 0.0625]",
         "mesh widths must be positive and finite, got nan"),
        ("reference_log2: 7", "reference: .nan",
         "mesh widths must be positive and finite, got nan"),
        ("kind: strong\nmesh:\n  levels_log2: [3, 4, 5]\n  reference_log2: 7",
         "kind: splitting_dt\n  samples: 100\nmesh:\n  levels_log2: [5]\n"
         "time:\n  dt_ref_log2: 8\n  dt_levels: [.nan, 0.0625, 0.03125]",
         "step sizes must be positive and finite, got nan"),
    ], ids=["rho-nan", "rho-inf", "horizon-inf",
            "horizon-nan", "dt_ref-nan", "dt_ref-zero", "reference-2^2000",
            "rate-nan", "levels-nan", "reference-nan", "dt_levels-nan"])
    def test_non_finite_values_rejected(self, old, new, reason):
        # each used to pass, or to crash the study with an OverflowError,
        # ZeroDivisionError or a bare ValueError
        with pytest.raises(ConfigError, match=reason):
            parse_config(MINIMAL_STRONG.replace(old, new))

    def test_non_finite_step_size_rejected(self):
        doc = """
study: {kind: splitting_dt, samples: 100}
mesh: {levels_log2: [5]}
noise: {family: power_decay, rho: 2.0, k_trunc: 64}
time: {dt_ref_log2: 8, dt_levels: [.inf, 0.0625, 0.03125]}
"""
        with pytest.raises(ConfigError, match="integer multiple"):
            parse_config(doc)

    @pytest.mark.parametrize("seed", [-1, 2 ** 64])
    def test_seed_outside_64_bits_rejected(self, seed):
        doc = MINIMAL_STRONG.replace("kind: strong",
                                     f"kind: strong\n  seed: {seed}")
        with pytest.raises(ConfigError, match=r"document: seed must lie"):
            parse_config(doc)
        assert parse_config(doc.replace(str(seed), str(2 ** 64 - 1))) \
            .seed == 2 ** 64 - 1
