"""Tests for the command-line front end."""

import json
import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

import spdefem.cli as cli
import spdefem.experiments as experiments
from spdefem.config import parse_config
from spdefem.experiments import (LevelResult, RateReport, TrajectoryReport,
                                 _Report, run_study, simulate_trajectory)

SRC = Path(__file__).resolve().parents[1] / "src"

STRONG_DOC = """
study:
  kind: strong
  samples: 200
  seed: 17
mesh:
  levels_log2: [2, 3, 4]
  reference_log2: 6
noise:
  family: power_decay
  rho: 2.0
  k_trunc: 64
time:
  horizon: 0.25
  dt_ref_log2: 4
"""

MOMENTS_DOC = """
study:
  kind: moments
  samples: 100
  seed: 3
mesh:
  levels_log2: [2, 3, 4]
noise:
  family: power_decay
  rho: 2.0
  k_trunc: 64
time:
  horizon: 0.25
  dt_ref_log2: 4
"""

OPERATORS_DOC = """
study:
  kind: operators
mesh:
  levels_log2: [3, 4, 5, 6]
"""

SPLITTING_DT_DOC = """
study:
  kind: splitting_dt
  samples: 100
  seed: 5
mesh:
  levels_log2: [3]
noise:
  family: power_decay
  rho: 2.0
  k_trunc: 64
time:
  horizon: 0.25
  dt_levels_log2: [2, 3, 4]
  dt_ref_log2: 6
"""

# a linear drift this strong overflows the path within a few steps
OVERFLOW_DOC = (STRONG_DOC.replace("seed: 17", "seed: 1")
                .replace("horizon: 0.25", "horizon: 1.0")
                + "drift:\n  preset: linear\n  rate: 40.0\n"
                + "initial:\n  profile: zero\n")

# one small document per study kind
STUDY_DOCS = {
    "strong": STRONG_DOC,
    "weak": STRONG_DOC.replace("kind: strong", "kind: weak"),
    "splitting_dt": SPLITTING_DT_DOC,
    "moments": MOMENTS_DOC,
    "operators": OPERATORS_DOC,
}


@pytest.fixture
def strong_doc(tmp_path):
    path = tmp_path / "strong.yaml"
    path.write_text(STRONG_DOC)
    return path


class TestStudyCommand:
    def test_writes_csv_and_json(self, strong_doc, tmp_path, capsys):
        code = cli.main(["study", str(strong_doc), "--out", str(tmp_path)])
        assert code == 0
        written = {p.name for p in tmp_path.iterdir()}
        csvs = [n for n in written if n.endswith(".csv")]
        jsons = [n for n in written if n.endswith(".json")]
        assert len(csvs) == 1 and len(jsons) == 1
        assert csvs[0].startswith("strong_") and csvs[0].endswith("_s17.csv")
        text = (tmp_path / csvs[0]).read_text()
        assert "level,h,error,stderr,usable" in text
        doc = json.loads((tmp_path / jsons[0]).read_text())
        assert {"slope", "ci_lo", "ci_hi", "levels", "seed",
                "config_hash"} <= set(doc)
        assert doc["seed"] == 17
        # joint noise factor diagnostics ride in the JSON only
        noise = doc["noise"]
        assert noise["joint_dim"] == 3 + 7 + 15 + 63
        assert 0 < noise["factor_nnz"] < noise["joint_dim"] ** 2 / 2
        assert noise["cholesky_jitter"] >= 0.0
        # 4 reference steps, one draw each, in each of the two batches;
        # the probe rows of the first batch run on its ordinary draws
        assert noise["draws"] == 4 + 4
        assert "factor" not in text and "jitter" not in text
        assert "draws" not in text
        out = capsys.readouterr().out
        assert "slope=" in out

    def test_rerun_is_byte_identical(self, strong_doc, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert cli.main(["study", str(strong_doc),
                         "--out", str(out_a)]) == 0
        assert cli.main(["study", str(strong_doc), "--workers", "2",
                         "--out", str(out_b)]) == 0
        csv_a = next(out_a.glob("*.csv")).read_bytes()
        csv_b = next(out_b.glob("*.csv")).read_bytes()
        assert csv_a == csv_b

    def test_seed_flag_renames_artifact_not_hash(self, strong_doc,
                                                 tmp_path):
        assert cli.main(["study", str(strong_doc), "--seed", "99",
                         "--out", str(tmp_path)]) == 0
        path = next(tmp_path.glob("strong_*_s99.json"))
        doc = json.loads(path.read_text())
        assert doc["seed"] == 99
        # hash identifies the document, not the seed
        assert path.name.split("_")[1] == doc["config_hash"]

    def test_env_var_output_dir(self, strong_doc, tmp_path, monkeypatch):
        target = tmp_path / "fromenv"
        monkeypatch.setenv("SPDEFEM_OUT", str(target))
        assert cli.main(["study", str(strong_doc)]) == 0
        assert any(target.glob("strong_*.csv"))

    def test_moments_study(self, tmp_path, capsys):
        doc = tmp_path / "moments.yaml"
        doc.write_text(MOMENTS_DOC)
        assert cli.main(["study", str(doc), "--out", str(tmp_path)]) == 0
        csv_text = next(tmp_path.glob("moments_*.csv")).read_text()
        assert "z_sup" in csv_text.splitlines()[3]
        payload = json.loads(next(tmp_path.glob("moments_*.json"))
                             .read_text())
        assert "exponents" in payload

    def test_moments_study_reports_aborted_samples(self, tmp_path, capsys):
        doc = tmp_path / "moments.yaml"
        doc.write_text(MOMENTS_DOC.replace("seed: 3", "seed: 1")
                       .replace("horizon: 0.25", "horizon: 1.0")
                       + "drift:\n  preset: linear\n  rate: 26.0\n"
                       + "initial:\n  profile: zero\n")
        assert cli.main(["study", str(doc), "--out", str(tmp_path)]) == 0
        payload = json.loads(next(tmp_path.glob("moments_*.json"))
                             .read_text())
        aborted = payload["aborted_total"]
        assert 0 < aborted < 100
        note = (f"{aborted} of 100 samples aborted (overflow or "
                "non-finite state) and were discarded")
        assert payload["notes"] == [note]
        assert f"  note: {note}" in capsys.readouterr().out

    def test_operators_study(self, tmp_path):
        doc = tmp_path / "operators.yaml"
        doc.write_text(OPERATORS_DOC)
        assert cli.main(["study", str(doc), "--out", str(tmp_path)]) == 0
        csv_text = next(tmp_path.glob("operators_*.csv")).read_text()
        assert "s,r,which,slope,ci_lo,ci_hi" in csv_text
        payload = json.loads(next(tmp_path.glob("operators_*.json"))
                             .read_text())
        slopes = {(f["s"], f["r"], f["which"]): f["slope"]
                  for f in payload["fits"]}
        assert slopes[(0.0, 2.0, "l2")] == pytest.approx(2.0, abs=0.1)

    def test_operators_json_reports_one_worker(self, tmp_path):
        # an operator study never starts a pool, whatever --workers asks
        doc = tmp_path / "operators.yaml"
        doc.write_text(OPERATORS_DOC)
        assert cli.main(["study", str(doc), "--workers", "2",
                         "--out", str(tmp_path)]) == 0
        payload = json.loads(next(tmp_path.glob("operators_*.json"))
                             .read_text())
        assert payload["workers"] == 1

    def test_operators_runtime_covers_the_study(self, tmp_path,
                                                monkeypatch):
        doc = tmp_path / "operators.yaml"
        doc.write_text(OPERATORS_DOC)
        real_norm = experiments.operator_error_norm
        calls = []

        def slow_norm(*args, **kwargs):
            calls.append(None)
            time.sleep(0.02)
            return real_norm(*args, **kwargs)

        monkeypatch.setattr(experiments, "operator_error_norm", slow_norm)
        assert cli.main(["study", str(doc), "--out", str(tmp_path)]) == 0
        payload = json.loads(next(tmp_path.glob("operators_*.json"))
                             .read_text())
        # 3 pairs on 4 meshes
        assert len(calls) == 12
        assert payload["runtime_seconds"] >= 0.02 * len(calls)

    @pytest.mark.parametrize("errors, code, note", [
        ((0.5, 0.25, 0.3, 0.0625), 0,
         "usable errors are not monotone in resolution"),
        ((0.0, 0.0, 0.0, 0.0), 1,
         "insufficient data: only 0 of 4 levels clear the noise floor, "
         "need 3 for a rate fit"),
    ], ids=["non-monotone", "all-zero"])
    def test_operator_notes_reach_console_and_json(self, tmp_path, capsys,
                                                   monkeypatch, errors,
                                                   code, note):
        # the pairs' notes used to stay in their reports: an operator
        # study whose fit failed exited 1 without saying why
        by_elements = dict(zip((8, 16, 32, 64), errors))
        monkeypatch.setattr(experiments, "operator_error_norm",
                            lambda space, *args, **kwargs:
                            by_elements[space.n + 1])
        doc = tmp_path / "operators.yaml"
        doc.write_text(OPERATORS_DOC)
        assert cli.main(["study", str(doc), "--out", str(tmp_path)]) == code
        notes = [f"({pair}): {note}"
                 for pair in ("0, 2, l2", "1, 2, ritz", "0, 1, l2")]
        out = capsys.readouterr().out
        assert all(f"  note: {line}\n" in out for line in notes)
        payload = json.loads(next(tmp_path.glob("operators_*.json"))
                             .read_text())
        assert payload["notes"] == notes

    def test_noise_floor_only_fit_exits_nonzero(self, strong_doc,
                                                tmp_path, monkeypatch):
        drowned = RateReport(
            kind="strong",
            levels=[LevelResult(0, 0.25, 1e-9, 1e-3, False),
                    LevelResult(1, 0.125, 1e-9, 1e-3, False),
                    LevelResult(2, 0.0625, 1e-9, 1e-3, False)],
            slope=math.nan, ci_lo=math.nan, ci_hi=math.nan,
            noise_floor=4.0, monotonic=False, config_hash="deadbeef",
            seed=17, notes=("rate fit failed",))
        monkeypatch.setattr(cli, "run_study", lambda cfg, workers: drowned)
        code = cli.main(["study", str(strong_doc), "--out", str(tmp_path)])
        assert code == 1


class TestLibraryParity:
    @pytest.mark.parametrize("kind", [*sorted(STUDY_DOCS), "trajectory"])
    def test_report_writes_the_cli_artifacts(self, kind, tmp_path):
        text = STUDY_DOCS.get(kind, STRONG_DOC)
        doc = tmp_path / f"{kind}.yaml"
        doc.write_text(text)
        cfg = parse_config(text)
        if kind == "trajectory":
            report = TrajectoryReport(
                *simulate_trajectory(cfg), kind=kind,
                config_hash=cfg.config_hash, seed=cfg.seed,
                provenance=cfg.provenance)
            code = cli.main(["trajectory", str(doc), "--out", str(tmp_path)])
        else:
            report = run_study(cfg)
            code = cli.main(["study", str(doc), "--out", str(tmp_path)])
        assert next(tmp_path.glob(f"{kind}_*.csv")).read_text() \
            == report.to_csv()

        def drop_runtime(text):
            return re.sub(r'\n *"(runtime_seconds|setup_s|batches_s|reduce_s'
                          r'|pairs_s|start_method|threads)": [^\n]*',
                          "", text)

        written = next(tmp_path.glob(f"{kind}_*.json")).read_text()
        assert set(_Report.__dataclass_fields__) <= set(json.loads(written))
        assert drop_runtime(written) == drop_runtime(report.to_json())
        assert code == (1 if report.fit_failed else 0)


class TestTrajectoryCommand:
    def test_writes_plottable_checkpoints(self, strong_doc, tmp_path):
        assert cli.main(["trajectory", str(strong_doc),
                         "--out", str(tmp_path)]) == 0
        csv_path = next(tmp_path.glob("trajectory_*.csv"))
        lines = [ln for ln in csv_path.read_text().splitlines()
                 if not ln.startswith("#")]
        header, rows = lines[0], lines[1:]
        assert header.startswith("t,x0,")
        # 0.25 horizon at dt 2^-4: 4 steps, 5 checkpoints
        assert len(rows) == 5
        first = rows[0].split(",")
        # t=0 plus Dirichlet zeros at both walls
        assert float(first[0]) == 0.0
        assert float(first[1]) == 0.0
        assert float(first[-1]) == 0.0
        # interior columns: finest tested mesh is 2^-4 -> 17 nodes total
        assert len(first) == 1 + 17

    def test_rerun_is_byte_identical(self, strong_doc, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert cli.main(["trajectory", str(strong_doc),
                         "--out", str(out_a)]) == 0
        assert cli.main(["trajectory", str(strong_doc),
                         "--out", str(out_b)]) == 0
        assert next(out_a.glob("*.csv")).read_bytes() \
            == next(out_b.glob("*.csv")).read_bytes()


    def test_overflow_exits_one_without_artifacts(self, tmp_path, capsys):
        doc = tmp_path / "overflow.yaml"
        doc.write_text(OVERFLOW_DOC)
        out = tmp_path / "out"
        assert cli.main(["trajectory", str(doc), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "integration error: state overflow at step" in err
        assert "Traceback" not in err
        assert not any(out.glob("*"))

    def test_operator_study_exits_two(self, tmp_path, capsys):
        doc = tmp_path / "operators.yaml"
        doc.write_text(OPERATORS_DOC)
        out = tmp_path / "out"
        assert cli.main(["trajectory", str(doc), "--out", str(out)]) == 2
        assert "configuration error" in capsys.readouterr().err
        assert not out.exists()


class TestErrorPaths:
    def test_bad_document_exits_two(self, tmp_path, capsys):
        doc = tmp_path / "bad.yaml"
        doc.write_text(STRONG_DOC + "\nplotting:\n  style: dots\n")
        code = cli.main(["study", str(doc), "--out", str(tmp_path)])
        assert code == 2
        assert "configuration error" in capsys.readouterr().err

    def test_cos_mode_beyond_k_trunc_exits_two(self, tmp_path, capsys):
        doc = tmp_path / "weak.yaml"
        doc.write_text(STRONG_DOC.replace("kind: strong", "kind: weak")
                       + "functional:\n  id: cos_mode_65\n")
        code = cli.main(["study", str(doc), "--out", str(tmp_path)])
        assert code == 2
        assert "k_trunc = 64" in capsys.readouterr().err
        assert not any(tmp_path.glob("*.csv"))

    def test_cubic_without_closed_form_flow_exits_two(self, tmp_path,
                                                      capsys):
        doc = tmp_path / "strong.yaml"
        doc.write_text(STRONG_DOC + "drift:\n  coeffs: [1, 1, 0, -1]\n")
        code = cli.main(["study", str(doc), "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert "drift.coeffs:" in err and "a0 = a2 = 0" in err
        assert "Traceback" not in err
        assert not any(tmp_path.glob("*.csv"))

    def test_untiled_mesh_width_exits_two(self, tmp_path, capsys):
        doc = tmp_path / "strong.yaml"
        doc.write_text(STRONG_DOC.replace("levels_log2: [2, 3, 4]",
                                          "levels: [0.3, 0.2, 0.1]"))
        code = cli.main(["study", str(doc), "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert "width 0.3 does not tile" in err and "Traceback" not in err
        assert not any(tmp_path.glob("*.csv"))

    def test_non_nested_meshes_exit_two(self, tmp_path, capsys):
        # 6, 8 and 32 elements: 6 divides neither finer mesh
        doc = tmp_path / "strong.yaml"
        doc.write_text(STRONG_DOC.replace(
            "levels_log2: [2, 3, 4]",
            f"levels: [{1 / 6!r}, 0.125, 0.03125]").replace(
            "reference_log2: 6", "reference_log2: 7"))
        code = cli.main(["study", str(doc), "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert "[6, 8, 32, 128] do not nest" in err
        assert "Traceback" not in err
        assert not any(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("old, new, reason", [
        ("rho: 2.0", "rho: .nan", "finite rho > 0, got nan"),
        ("horizon: 0.25", "horizon: .inf",
         "horizon must be positive and finite, got inf"),
        ("levels_log2: [2, 3, 4]", "levels: [.nan, 0.125, 0.0625]",
         "mesh widths must be positive and finite, got nan"),
    ], ids=["rho-nan", "horizon-inf", "levels-nan"])
    def test_non_finite_value_exits_two(self, tmp_path, capsys, old, new,
                                        reason):
        # these used to die in the study with a traceback and exit 1
        doc = tmp_path / "strong.yaml"
        doc.write_text(STRONG_DOC.replace(old, new))
        code = cli.main(["study", str(doc), "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert reason in err and "Traceback" not in err
        assert not any(tmp_path.glob("*.csv"))

    def test_operators_key_never_read_exits_two(self, tmp_path, capsys):
        # a noise section used to be accepted, and hashed, on a study
        # that draws no noise
        doc = tmp_path / "operators.yaml"
        doc.write_text(OPERATORS_DOC + "noise:\n  family: white\n")
        code = cli.main(["study", str(doc), "--seed", "3", "--workers", "2",
                         "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert ("noise.family: only meaningful for strong, weak, moments "
                "or splitting_dt studies") in err
        assert "Traceback" not in err
        assert not any(tmp_path.glob("*.csv"))

    def test_operator_pair_out_of_range_exits_two(self, tmp_path, capsys):
        doc = tmp_path / "operators.yaml"
        doc.write_text(OPERATORS_DOC + "operators:\n  pairs: [[0, 3, l2]]\n")
        code = cli.main(["study", str(doc), "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert "got s = 0, r = 3" in err and "Traceback" not in err
        assert not any(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one_exit_two(self, strong_doc, tmp_path, capsys,
                                        workers):
        with pytest.raises(SystemExit) as exc:
            cli.main(["study", str(strong_doc), "--workers", workers,
                      "--out", str(tmp_path)])
        assert exc.value.code == 2
        assert "--workers" in capsys.readouterr().err
        assert not any(tmp_path.glob("*.json"))

    @pytest.mark.parametrize("command", ["trajectory", "selftest"])
    def test_workers_outside_study_exits_two(self, strong_doc, tmp_path,
                                             capsys, command):
        # one path runs in one process, and the selftest fixes its own
        # worker count: only study takes --workers
        config = [] if command == "selftest" else [str(strong_doc)]
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            cli.main([command, *config, "--workers", "2", "--out", str(out)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--workers" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["study", "trajectory", "selftest"])
    @pytest.mark.parametrize("seed", ["-1", "18446744073709551616"])
    def test_seed_outside_64_bits_exits_two(self, strong_doc, tmp_path,
                                            capsys, command, seed):
        config = [] if command == "selftest" else [str(strong_doc)]
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            cli.main([command, *config, "--seed", seed, "--out", str(out)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--seed" in err and "Traceback" not in err
        assert not out.exists()

    def test_removed_key_exits_two(self, tmp_path):
        doc = tmp_path / "study.yaml"
        env = dict(os.environ, PYTHONPATH=str(SRC))
        for text, removal in [
                (STRONG_DOC.replace("kind: strong", "kind: weak")
                 + "  policy: h2beta\n", "time.policy: removed"),
                (STRONG_DOC.replace("seed: 17", "seed: 17\n  batch_size: 100"),
                 "study.batch_size: removed: every study runs in batches"),
                (STRONG_DOC.replace("seed: 17", "seed: 17\n  p_order: 2"),
                 "study.p_order: removed: strong and splitting_dt errors"),
                (STRONG_DOC.replace("reference_log2: 6",
                                    "reference_log2: 6\n  length: 1.0"),
                 "mesh.length: removed: every study runs on the unit")]:
            doc.write_text(text)
            out = subprocess.run(
                [sys.executable, "-m", "spdefem.cli", "study", str(doc),
                 "--out", str(tmp_path)],
                capture_output=True, text=True, env=env, timeout=300)
            assert out.returncode == 2
            assert removal in out.stderr
            assert "Traceback" not in out.stderr
            assert not any(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("command", ["study", "trajectory"])
    @pytest.mark.parametrize("drift, coeffs, step", [
        ("  preset: linear\n  rate: 100000\n", "[0.0, 100000.0]", 0.125),
        ("  coeffs: [0, 20000, 0, -1]\n", "[0.0, 20000.0, 0.0, -1.0]",
         0.125),
    ])
    def test_overflowing_drift_exits_two(self, tmp_path, capsys, command,
                                         drift, coeffs, step):
        # e^(a1 t) of the closed-form flow overflows over the probe's
        # 2 dt_ref = 1/8: refused before any stepping
        doc = tmp_path / "drift.yaml"
        doc.write_text(STRONG_DOC + "drift:\n" + drift)
        out = tmp_path / "out"
        assert cli.main([command, str(doc), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert (f"drift coefficients {coeffs} overflow a float over a step "
                f"of {step!r}") in err
        assert "configuration error" in err and "Traceback" not in err
        assert not out.exists()

    def test_missing_file_exits_two(self, tmp_path, capsys):
        code = cli.main(["study", str(tmp_path / "absent.yaml")])
        assert code == 2
        assert "i/o error" in capsys.readouterr().err


class TestSelftestCommand:
    def test_fresh_checkout_passes(self, tmp_path, capsys):
        code = cli.main(["selftest", "--out", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "11/11 checks passed" in out
        payload = json.loads((tmp_path / "selftest.json").read_text())
        assert payload["passed"] is True
        assert len(payload["checks"]) == 11


def _fresh_python(args, openblas_threads):
    """Run ``python args`` in a fresh process; ``openblas_threads`` None
    leaves OPENBLAS_NUM_THREADS unset (this test process may carry the
    pin from its own ``spdefem.cli`` import)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("OPENBLAS_NUM_THREADS", None)
    if openblas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = openblas_threads
    out = subprocess.run([sys.executable, *args], capture_output=True,
                         text=True, env=env, timeout=300)
    assert out.returncode == 0, out.stderr
    return out.stdout


class TestSingleThreadedProcess:
    def test_package_import_loads_no_numpy(self):
        out = _fresh_python(["-c", "import spdefem, sys; "
                             "print(spdefem.__version__, "
                             "'numpy' in sys.modules)"], None)
        assert out.split() == [cli.__version__, "False"]

    @pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                        reason="no /proc/self/task to count threads in")
    def test_cli_import_leaves_one_thread(self):
        out = _fresh_python(["-c", "import os, spdefem.cli; "
                             "print(len(os.listdir('/proc/self/task')))"],
                            None)
        assert int(out) == 1

    def test_csv_bytes_do_not_depend_on_openblas_threads(self, strong_doc,
                                                         tmp_path):
        # the study process counts its threads as the study starts, in
        # the pooled case before the fork
        threads = 1 if os.path.isdir("/proc/self/task") else None
        csvs = set()
        for value, workers in ((None, "1"), ("1", "1"), ("2", "1"),
                               ("2", "2")):
            out_dir = tmp_path / f"{value}-{workers}"
            _fresh_python(["-m", "spdefem.cli", "study", str(strong_doc),
                           "--workers", workers, "--out", str(out_dir)],
                          value)
            csv = next(out_dir.glob("*.csv")).read_text()
            assert "threads" not in csv
            csvs.add(csv)
            doc = json.loads(next(out_dir.glob("*.json")).read_text())
            assert doc["runtime"] == {
                "start_method": None if workers == "1" else "fork",
                "threads": threads}
        assert len(csvs) == 1


# Runs cli.main(argv) in a fresh process and prints, as its last line,
# the modules that entered sys.modules between cli.main's entry and its
# first sample batch map or operator norm (the set-up), and the scipy
# modules loaded after the import and at the end.
_MODULE_PROBE = """
import functools, json, sys
from spdefem import cli, experiments

def first_work(fn):
    @functools.wraps(fn)
    def marked(*args, **kwargs):
        seen.setdefault("set_up", sorted(set(sys.modules) - entry))
        return fn(*args, **kwargs)
    return marked

def scipy_modules():
    return sorted(m for m in sys.modules if m.partition(".")[0] == "scipy")

seen = {"imported": scipy_modules()}
experiments._map_batches = first_work(experiments._map_batches)
experiments.operator_error_norm = first_work(experiments.operator_error_norm)
entry = set(sys.modules)
seen["code"] = cli.main(sys.argv[1:])
seen["ended"] = scipy_modules()
seen["unused"] = sorted({"multiprocessing", "spdefem.selftest"}
                        & set(sys.modules))
print(json.dumps(seen))
"""

# Runs cli.main(argv[2:]) in a fresh process; every pool worker appends
# to the file argv[1], at its first batch, how many of scipy's compiled
# kernels were loaded and which scipy modules were.
_WORKER_PROBE = """
import functools, json, sys
from spdefem import cli, experiments, fem

def first_batch(fn):
    @functools.wraps(fn)
    def engine_batch(index):
        if not seen:
            seen.append(index)
            with open(sys.argv[1], "a") as log:
                log.write(json.dumps([
                    fem._scipy_kernel.cache_info().currsize,
                    sorted(m for m in sys.modules
                           if m.partition(".")[0] == "scipy")]) + "\\n")
        return fn(index)
    return engine_batch

seen = []
experiments._engine_batch = first_batch(experiments._engine_batch)
sys.exit(cli.main(sys.argv[2:]))
"""


class TestLazyScipy:
    def test_operator_study_loads_no_scipy(self, tmp_path):
        config = SRC.parent / "configs" / "operators.yaml"
        out = _fresh_python(["-c", _MODULE_PROBE, "study", str(config),
                             "--out", str(tmp_path)], "1")
        seen = json.loads(out.splitlines()[-1])
        assert seen["code"] == 0
        assert seen["imported"] == [] and seen["ended"] == []

    @pytest.mark.parametrize("doc", ["operators", "strong", "weak",
                                     "moments", "splitting_dt"])
    def test_set_up_imports_no_module(self, doc, tmp_path):
        # importing scipy also loads numpy.polynomial, numpy.ma and
        # locale; without it, whatever set-up reaches must already be
        # loaded with the package, and the batches load scipy's compiled
        # kernels without importing a scipy package
        if doc == "operators":
            config = SRC.parent / "configs" / "operators.yaml"
        else:
            config = tmp_path / f"{doc}.yaml"
            config.write_text(STUDY_DOCS[doc])
        out = _fresh_python(["-c", _MODULE_PROBE, "study", str(config),
                             "--out", str(tmp_path / "out")], "1")
        seen = json.loads(out.splitlines()[-1])
        assert seen["code"] == 0
        assert seen["set_up"] == []
        assert seen["ended"] == []

    def test_trajectory_loads_no_scipy(self, strong_doc, tmp_path):
        out = _fresh_python(["-c", _MODULE_PROBE, "trajectory",
                             str(strong_doc), "--out", str(tmp_path)], "1")
        seen = json.loads(out.splitlines()[-1])
        assert seen["code"] == 0
        assert seen["imported"] == [] and seen["ended"] == []

    @pytest.mark.parametrize("doc", ["operators", "strong"])
    def test_serial_study_loads_no_pool_or_selftest(self, doc, tmp_path):
        # both are imported only on the paths that use them
        config = tmp_path / "study.yaml"
        config.write_text(STUDY_DOCS[doc])
        out = _fresh_python(["-c", _MODULE_PROBE, "study", str(config),
                             "--out", str(tmp_path / "out")], "1")
        seen = json.loads(out.splitlines()[-1])
        assert seen["code"] == 0 and seen["unused"] == []

    def test_pool_workers_inherit_the_kernels(self, strong_doc, tmp_path):
        log = tmp_path / "workers.jsonl"
        _fresh_python(["-c", _WORKER_PROBE, str(log), "study",
                       str(strong_doc), "--workers", "2",
                       "--out", str(tmp_path / "pooled")], None)
        loaded = [json.loads(line) for line in log.read_text().splitlines()]
        assert loaded and all(seen == [2, []] for seen in loaded)
        doc = json.loads(next((tmp_path / "pooled").glob("*.json"))
                         .read_text())
        assert doc["workers"] == 2
        assert doc["runtime"] == {
            "start_method": "fork",
            "threads": 1 if os.path.isdir("/proc/self/task") else None}
        assert cli.main(["study", str(strong_doc),
                         "--out", str(tmp_path / "serial")]) == 0
        pooled, serial = (next((tmp_path / d).glob("*.csv")).read_bytes()
                          for d in ("pooled", "serial"))
        assert pooled == serial
