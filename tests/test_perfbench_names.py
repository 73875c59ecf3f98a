"""The names `perfbench/spans.py` patches must exist in the package.

`perfbench.spans.instrument` wraps package callables by name, so a
refactor that renames or removes one breaks the benchmark's tracer.
This test instruments a fresh process, runs a tiny study of every kind
(strong, weak, splitting_dt, moments and operators), so that each row
table of the coupled engine runs through the patched names, and checks
that the coupled studies recorded their batch and joint-draw spans and
the operators study its operator-norm spans.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SCRIPT = """
import json
from spans import Tracer, instrument
from spdefem import CovarianceSpec, PolynomialDrift, StudyConfig
from spdefem.experiments import run_study

tracer = Tracer()
instrument(tracer)
common = dict(covariance=CovarianceSpec.power_decay(2.0, k_trunc=32),
              drift=PolynomialDrift.allen_cahn(), horizon=0.125,
              samples=100)
configs = {
    "strong": StudyConfig(kind="strong", levels=(0.25, 0.125, 0.0625),
                          h_ref=2.0 ** -6, dt_ref=2.0 ** -5, **common),
    "weak": StudyConfig(kind="weak", levels=(0.25, 0.125, 0.0625),
                        h_ref=2.0 ** -6, dt_ref=2.0 ** -5, **common),
    "splitting_dt": StudyConfig(kind="splitting_dt", levels=(0.125,),
                                dt_levels=(2.0 ** -4, 2.0 ** -5, 2.0 ** -6),
                                dt_ref=2.0 ** -8, **common),
    "moments": StudyConfig(kind="moments", levels=(0.25, 0.125, 0.0625),
                           dt_ref=2.0 ** -5, **common),
    "operators": StudyConfig(kind="operators",
                             levels=(0.25, 0.125, 0.0625), horizon=0.125),
}
calls = {}
for kind, cfg in configs.items():
    tracer.reset()
    run_study(cfg)
    calls[kind] = {name: entry[0] for name, entry in tracer.stats.items()}
print(json.dumps(calls))
"""


def test_tracer_records_batches_and_draws_of_coupled_studies():
    path = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        path + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
    out = subprocess.run([sys.executable, "-c", SCRIPT], capture_output=True,
                         text=True, env=env, cwd=ROOT, timeout=300)
    assert out.returncode == 0, out.stderr
    calls = json.loads(out.stdout)
    for kind in ("strong", "weak", "splitting_dt", "moments"):
        assert calls[kind]["experiments.batch"] == 1, kind
        assert calls[kind]["noise.draw"] > 0, kind
    # three default operator pairs on three meshes
    assert calls["operators"]["fem.operator_norm"] == 9
