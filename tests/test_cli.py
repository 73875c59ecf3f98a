"""Tests for the command-line front end."""

import json
import math
import time

import pytest

import spdefem.cli as cli
from spdefem.experiments import LevelResult, RateReport

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
noise:
  family: power_decay
  rho: 2.0
  k_trunc: 64
"""


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
        real_run_study = cli.run_study

        def slow_run_study(cfg, workers):
            time.sleep(0.2)
            return real_run_study(cfg, workers=workers)

        monkeypatch.setattr(cli, "run_study", slow_run_study)
        assert cli.main(["study", str(doc), "--out", str(tmp_path)]) == 0
        payload = json.loads(next(tmp_path.glob("operators_*.json"))
                             .read_text())
        assert payload["runtime_seconds"] >= 0.2

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

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one_exit_two(self, strong_doc, tmp_path, capsys,
                                        workers):
        with pytest.raises(SystemExit) as exc:
            cli.main(["study", str(strong_doc), "--workers", workers,
                      "--out", str(tmp_path)])
        assert exc.value.code == 2
        assert "--workers" in capsys.readouterr().err
        assert not any(tmp_path.glob("*.json"))

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
