"""Smoke test of the benchmark's layer tracing (perfbench/tracer.py).

The tracer wraps package functions at the module attributes the pipeline
looks up at call time.  Renaming or bypassing one of those lookup points
must fail here rather than break ``perfbench/run.py --trace 1``.  No
timings are recorded.
"""
import importlib
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import tracer  # noqa: E402

from schubert import milnor, numlin  # noqa: E402
from schubert.factor import SchubertSymbol  # noqa: E402
from schubert.serialize import MatrixDocument  # noqa: E402

TOPS = {"general": (2, 4), "symmetric": (2, 3), "skew": (2,)}
HAAR = {"general": "sl", "symmetric": "sym_fiber", "skew": "skew_fiber"}
# the layers each identification must pass through, by class and tier
GENERAL = {"milnor.validate", "numlin.iwasawa", "factor.factorize_su"}
COMPACT = {"milnor.validate", "factor.peel"}
LAYERS = {
    "compact": COMPACT,
    "dressed": COMPACT | {"milnor.undress"},
    "haar": COMPACT | {"milnor.undress", "numlin.congruence", "numlin.iwasawa"},
}
# (numlin.det_calls, numlin.unitarity_checks) of each identification: the
# input's checks, and the model gate's only on an undressed compact part
CHECKS = {
    "general": {"compact": (1, 0), "dressed": (1, 0), "haar": (1, 0)},
    "symmetric": {"compact": (1, 1), "dressed": (2, 2), "haar": (1, 1)},
    "skew": {"compact": (0, 1), "dressed": (1, 2), "haar": (0, 1)},
}


def _patched_attributes():
    """Every (owner, attribute) that Tracer.install replaces."""
    points = [(importlib.import_module(mod), attr)
              for mod, attr, _ in tracer.SPANS + tracer.COUNTERS]
    return points + [(np.linalg, "eigh"), (milnor.FiberElement, "__post_init__"),
                     (MatrixDocument, "from_json")]


@pytest.fixture
def installed():
    before = [(owner, attr, owner.__dict__[attr]) for owner, attr in _patched_attributes()]
    t = tracer.Tracer()
    t.install()
    try:
        yield t
    finally:
        t.uninstall()
    assert all(owner.__dict__[attr] is original for owner, attr, original in before)


@pytest.mark.parametrize("klass", sorted(TOPS))
def test_each_tier_passes_its_layers(installed, klass):
    symbol = SchubertSymbol(TOPS[klass], 4, klass)
    inputs = {"compact": milnor.fiber_sample(symbol, 1),
              "dressed": milnor.fiber_sample(symbol, 1, dress=True),
              "haar": numlin.haar_sample(4, HAAR[klass], 1)}
    for tier, b in inputs.items():
        installed.reset()
        installed.enabled = True
        milnor.identify(b, klass)
        installed.enabled = False
        fired = set(installed.summary()["calls"])
        assert (GENERAL if klass == "general" else LAYERS[tier]) - fired == set(), tier
        # the Cartan engines peel their input two-sided, with no general engine
        assert "factor.factorize_decreasing" not in fired, tier
        assert klass == "general" or "factor.factorize_su" not in fired, tier
        counts = installed.counts["numlin.det_calls"], installed.counts["numlin.unitarity_checks"]
        assert counts == CHECKS[klass][tier], tier
