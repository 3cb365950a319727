import json
import math
import os
import subprocess
import sys
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thinpart import DomainError
from thinpart.fields import Field1D
from thinpart.flat_torus import FlatTorusLattice

from oracles import CountingNumpy


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", ["x", "y"])
def test_from_samples_rejects_nonfinite_samples(name, bad):
    samples = {"x": [0.0, 1.0, 2.0, 3.0], "y": [1.0, 0.5, 0.25, 0.125]}
    samples[name][2] = bad
    with pytest.raises(DomainError, match=f"sample {name} must be finite"):
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


@pytest.mark.parametrize("bad", [["0", "1", "2", "3"], None, [True, False, True, False],
                                 [0.0, 1.0, None, 3.0]],
                         ids=["strings", "none", "bools", "none_entry"])
@pytest.mark.parametrize("name", ["x", "y"])
def test_from_samples_rejects_non_numeric_samples(name, bad):
    samples = {"x": [0.0, 1.0, 2.0, 3.0], "y": [1.0, 0.5, 0.25, 0.125]}
    samples[name] = bad
    with pytest.raises(DomainError, match=f"sample {name} must be a rectangular array"):
        Field1D.from_samples(samples["x"], samples["y"])


# ---------------------------------------------------------------- jets


def _jet_fields():
    """Every source of a field, each with an interval of its domain."""
    from thinpart import filler
    from thinpart.tube_geometry import TubeParams, tube_as_warped
    from thinpart.warped_metric import blowup_rescale

    xs = np.linspace(0.0, 3.0, 12)
    sampled = Field1D.from_samples(xs, np.exp(-xs) + 0.1 * np.sin(3.0 * xs))
    tube = tube_as_warped(TubeParams(0.01, 0.2, 1.9), normalized=True)
    # Composed with t -> R - t and no scale: the factors are exactly +-1.
    unscaled_tube = tube_as_warped(TubeParams(0.01, 0.2, 1.9))
    blown_up = blowup_rescale(tube, 0.7, 2.5)
    filled = filler.as_warped(filler.build(12.0, FlatTorusLattice.unit_square()))
    fields = {
        "constant": (Field1D.constant(1.7), (-5.0, 5.0)),
        "exp_decay": (Field1D.exp_decay(), (-3.0, 6.0)),
        "from_samples": (sampled, (0.0, 3.0)),
        "tube_a1": (tube.a1, (0.0, 1.4)),
        "tube_a2": (tube.a2, (0.0, 1.4)),
        "tube_warping": (tube.warping, (0.0, 1.4)),
        "unscaled_tube_a1": (unscaled_tube.a1, (0.0, 1.4)),
        "unscaled_tube_a2": (unscaled_tube.a2, (0.0, 1.4)),
        "blowup_a1": (blown_up.a1, (blown_up.x3_min, blown_up.x3_max)),
        "blowup_a2": (blown_up.a2, (blown_up.x3_min, blown_up.x3_max)),
        "filler_a1": (filled.a1, (0.0, filled.x3_max)),
        "filler_a2": (filled.a2, (0.0, filled.x3_max)),
    }
    for name in ("constant", "exp_decay", "from_samples"):
        field, (lo, hi) = fields[name]
        # t -> field(2 - 0.5 t) * 3, on the interval that maps onto lo..hi.
        fields[f"affine_{name}"] = (field.compose_affine(-0.5, 2.0, 3.0),
                                    (2.0 * (2.0 - hi), 2.0 * (2.0 - lo)))
    return fields


JET_FIELDS = _jet_fields()


def _evaluators(field):
    return (field, field.d1, field.d2, field.d3)


@settings(derandomize=True, deadline=None, database=None, max_examples=60)
@given(name=st.sampled_from(sorted(JET_FIELDS)), order=st.integers(0, 3),
       unit=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=9), scalar=st.booleans())
def test_jet_equals_the_evaluators_bit_for_bit(name, order, unit, scalar):
    field, (lo, hi) = JET_FIELDS[name]
    t = lo + (hi - lo) * np.array(unit)
    if scalar:
        t = float(t[0])
    jet = field.jet(t, order)
    assert len(jet) == order + 1
    for value, evaluator in zip(jet, _evaluators(field)):
        assert np.array_equal(value, evaluator(t))


@pytest.mark.parametrize("spec_name", ["tube", "unscaled_tube", "blowup", "filler"])
def test_jets_sharing_a_memo_equal_their_evaluators(spec_name):
    a1, a2 = (JET_FIELDS[f"{spec_name}_a{i}"][0] for i in (1, 2))
    lo, hi = JET_FIELDS[f"{spec_name}_a1"][1]
    t = np.linspace(lo, hi, 17)
    memo = {}
    jets = [field.jet(t, 3, memo) for field in (a1, a2, a1)]
    for field, jet in zip((a1, a2, a1), jets):
        for value, evaluator in zip(jet, _evaluators(field)):
            assert np.array_equal(value, evaluator(t))


def test_the_tube_jets_form_the_argument_and_call_sinh_and_cosh_once():
    counts = Counter(sinh=0, cosh=0)
    numpy = CountingNumpy(counts)
    R = 1.9
    sinh, cosh = numpy.sinh, numpy.cosh
    a1 = Field1D(sinh, cosh, sinh, cosh).compose_affine(-1.0, R, 0.5)
    a2 = Field1D(cosh, sinh, cosh, sinh).compose_affine(-1.0, R, 0.5)
    t = np.linspace(0.0, 1.4, 9)
    memo = {}
    jets = a1.jet(t, 2, memo), a2.jet(t, 2, memo)
    assert counts == {"sinh": 1, "cosh": 1}
    # R - t once, and one value per distinct evaluator.
    assert sum(key[0] == ("affine", -1.0, R) for key in memo) == 1
    assert len(memo) == 3
    for field, jet in zip((a1, a2), jets):
        for value, evaluator in zip(jet, _evaluators(field)):
            assert np.array_equal(value, evaluator(t))


def test_the_cusp_jets_call_exp_once(monkeypatch):
    from thinpart import fields

    counts = Counter(exp=0)
    monkeypatch.setattr(fields, "np", CountingNumpy(counts))
    decay = Field1D.exp_decay()
    memo = {}
    t = np.linspace(0.0, 3.0, 9)
    decay.jet(t, 3, memo), decay.jet(t, 2, memo)
    assert counts == {"exp": 1}
