"""Layer tracing for the benchmark, installed from outside the package.

Public functions are wrapped at the module attributes through which the
pipeline looks them up at call time, so the package itself is unchanged
and an untraced run executes exactly the package's code.  A wrapped call
records a span (name, start, end, parent) or bumps a counter; nothing is
recorded while ``enabled`` is false.  Spans are kept in memory and reduced
to self times when the run ends.
"""
from __future__ import annotations

import importlib
import time
from collections import defaultdict

# (module, attribute, span name): calls that record a span.  A function
# imported by name into another module is looked up through that module, so
# each lookup point the pipeline uses is listed.
SPANS = (
    ("schubert.milnor", "undress_symmetric", "milnor.undress"),
    ("schubert.milnor", "undress_skew", "milnor.undress"),
    ("schubert.milnor", "diagonalize_quadratic_form", "numlin.congruence"),
    ("schubert.milnor", "normalize_skew_form", "numlin.congruence"),
    ("schubert.milnor", "iwasawa_split", "numlin.iwasawa"),
    ("schubert.milnor", "factorize_su", "factor.factorize_su"),
    # factorize_decreasing reaches factorize_su through the factor module
    ("schubert.factor", "factorize_su", "factor.factorize_su"),
    ("schubert.factor", "factorize_decreasing", "factor.factorize_decreasing"),
    ("schubert.milnor", "factorize_symmetric", "factor.peel"),
    ("schubert.milnor", "factorize_skew", "factor.peel"),
    ("schubert.numlin", "eig_unitary", "numlin.eig_unitary"),
    ("schubert.milnor", "fiber_sample", "milnor.fiber_sample"),
    ("schubert.cli", "fiber_sample", "milnor.fiber_sample"),
    ("schubert.numlin", "haar_sample", "numlin.haar_sample"),
    ("schubert.cli", "report_payload", "serialize.report"),
    ("schubert.cli", "dump_canonical", "serialize.report"),
    ("schubert.cohom", "enumerate_symbols", "cohom.enumerate"),
    ("schubert.cohom", "betti_table", "cohom.betti"),
)

# (module, attribute, counter name): calls that are only counted.  Every
# check_unitary and in_cartan_model call runs exactly one is_unitary, so
# counting is_unitary at its three lookup points counts each unitarity
# check once.  _ordered_rewrite imports whitehead_interchange from rotor at
# call time.
COUNTERS = (
    ("numpy.linalg", "det", "numlin.det_calls"),
    ("schubert.numlin", "is_unitary", "numlin.unitarity_checks"),
    ("schubert.milnor", "is_unitary", "numlin.unitarity_checks"),
    ("schubert.rotor", "is_unitary", "numlin.unitarity_checks"),
    ("schubert.rotor", "whitehead_interchange", "rotor.interchanges"),
    ("schubert.rotor", "apply", "rotor.apply_calls"),
    ("schubert.factor", "apply", "rotor.apply_calls"),
)


class Tracer:
    """Spans and counters recorded by wrappers around package functions."""

    def __init__(self) -> None:
        self.enabled = False
        self.spans: list = []
        self.counts: dict[str, int] = defaultdict(int)
        self._open: list[tuple[int, str]] = []
        self._patches: list = []

    def reset(self) -> None:
        self.spans = []
        self.counts = defaultdict(int)
        self._open = []

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span named ``name``; with no span open it is
        a root span."""
        if not self.enabled:
            return fn(*args, **kwargs)
        idx = len(self.spans)
        parent = self._open[-1][0] if self._open else -1
        self.spans.append(None)
        self._open.append((idx, name))
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._open.pop()
            self.spans[idx] = (name, start, end, parent)

    def _span_wrapper(self, name: str, fn):
        def wrapped(*args, **kwargs):
            out = self.call(name, fn, *args, **kwargs)
            if self.enabled and name == "milnor.undress":
                self.counts["milnor.undress_calls"] += 1
                self.counts["milnor.undress_hits"] += out is not None
            elif self.enabled and name == "cohom.enumerate":
                self.counts["cohom.symbols_enumerated"] += len(out)
            return out

        return wrapped

    def _count_wrapper(self, name: str, fn):
        def wrapped(*args, **kwargs):
            if self.enabled:
                self.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapped

    def _eigh_wrapper(self, fn):
        # eig_unitary solves one Hermitian problem per draw of its surrogate
        # parameter, so solves made directly inside it minus its calls are
        # the redraws.
        def wrapped(*args, **kwargs):
            if self.enabled and self._open and self._open[-1][1] == "numlin.eig_unitary":
                self.counts["numlin.eig_solves"] += 1
            return fn(*args, **kwargs)

        return wrapped

    def _patch(self, owner, attr: str, wrapped) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapped)

    def install(self) -> None:
        """Wrap every traced lookup point; ``uninstall`` restores them."""
        for mod, attr, name in SPANS:
            owner = importlib.import_module(mod)
            self._patch(owner, attr, self._span_wrapper(name, getattr(owner, attr)))
        for mod, attr, name in COUNTERS:
            owner = importlib.import_module(mod)
            self._patch(owner, attr, self._count_wrapper(name, getattr(owner, attr)))
        linalg = importlib.import_module("numpy.linalg")
        self._patch(linalg, "eigh", self._eigh_wrapper(linalg.eigh))
        milnor = importlib.import_module("schubert.milnor")
        post_init = milnor.FiberElement.__post_init__
        self._patch(
            milnor.FiberElement,
            "__post_init__",
            lambda elem: self.call("milnor.validate", post_init, elem),
        )
        document = importlib.import_module("schubert.serialize").MatrixDocument
        from_json = document.__dict__["from_json"].__func__
        self._patch(
            document,
            "from_json",
            classmethod(lambda cls, text: self.call("serialize.parse", from_json, cls, text)),
        )

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def summary(self) -> dict:
        """Self time in seconds and call count per span name, and the
        counters.  A span's self time is its duration minus the time its
        direct children cover (children of one span never overlap here,
        since every call is synchronous)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for i, (name, start, end, _) in enumerate(self.spans):
            self_s[name] += (end - start) - child[i]
            calls[name] += 1
        return {"self_s": dict(self_s), "calls": dict(calls), "counts": dict(self.counts)}
