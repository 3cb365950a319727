import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from thinpart import DomainError
from thinpart.fields import Field1D


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", ["x", "y"])
def test_from_samples_rejects_nonfinite_samples(name, bad):
    samples = {"x": [0.0, 1.0, 2.0, 3.0], "y": [1.0, 0.5, 0.25, 0.125]}
    samples[name][2] = bad
    with pytest.raises(DomainError, match=f"sample {name} values must be finite"):
        Field1D.from_samples(samples["x"], samples["y"])


# Run in a fresh interpreter: the CLI paths below build no sampled field,
# so they must not load scipy.interpolate; the first sampled spec does.
_IMPORT_SET_SCRIPT = """
import json, os, sys
import numpy as np
import thinpart
from thinpart import cli
from thinpart.flat_torus import FlatTorusLattice
from thinpart.warped_metric import WarpedMetricSpec

tmp = sys.argv[1]
loaded = {"import": "scipy.interpolate" in sys.modules}
codes = [cli.run(["--json", "lattice", "--lattice", "1,0,1"])]
loaded["lattice"] = "scipy.interpolate" in sys.modules
metric, bc = os.path.join(tmp, "m.json"), os.path.join(tmp, "bc.json")
with open(metric, "w") as fh:
    json.dump({"kind": "tube", "length": 1e-5, "twist": 0.3, "radius": 5.0}, fh)
with open(bc, "w") as fh:
    json.dump({"kind": "constant", "value": 3.8}, fh)
codes.append(cli.run([
    "--json", "graph", "solve", "--metric", metric, "--grid", "17x17",
    "--extent", "0.35x0.35", "--bc", bc, "--out", os.path.join(tmp, "u.csv"),
]))
loaded["graph_solve"] = "scipy.interpolate" in sys.modules
ts = np.linspace(0.0, 3.0, 400)
spec = WarpedMetricSpec.from_sampled(
    FlatTorusLattice.unit_square(), ts, np.exp(-ts), np.exp(-ts), np.exp(-ts))
loaded["sampled"] = "scipy.interpolate" in sys.modules
probes = [[float(spec.a1(t)), float(spec.a1.d1(t)), float(spec.a1.d2(t))]
          for t in (0.5, 1.2, 2.4)]
print(json.dumps({"codes": codes, "loaded": loaded, "probes": probes}))
"""


def test_scipy_interpolate_loads_with_the_first_sampled_field(tmp_path):
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_SET_SCRIPT, str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["codes"] == [0, 0]
    assert result["loaded"] == {"import": False, "lattice": False,
                                "graph_solve": False, "sampled": True}
    # The spline follows the closed form, as in test_sampled_spec_tracks_closed_form.
    for t, (value, d1, d2) in zip((0.5, 1.2, 2.4), result["probes"]):
        assert value == pytest.approx(math.exp(-t), rel=1e-8)
        assert d1 == pytest.approx(-math.exp(-t), rel=1e-5)
        assert d2 == pytest.approx(math.exp(-t), rel=1e-3)
