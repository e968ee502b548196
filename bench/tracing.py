"""Span tracing by patching tiltcert's module attributes where they are called.

`Tracer.installed()` replaces each attribute named in `PATCHES` with a
wrapper that records one span per call, and puts the original back on
exit, even when the traced code raises.  Spans live in flat in-memory
lists (name, start, end, parent, run id) and are written out only at the
end.  A layer's self time is its span time minus the time of its direct
child spans; the per-layer figures are derived from the spans afterwards.
"""

import importlib
import json
import time
from array import array
from contextlib import contextmanager

# (span name, module, attribute).  A name patched in several modules is the
# same layer seen from each of its call sites.
PATCHES = (
    ("kernel.bernstein", "tiltcert.certify", "bernstein_coefficients"),
    ("kernel.interval_eval", "tiltcert.certify", "poly_interval_eval"),
    ("kernel.poly_eval", "tiltcert.certify", "poly_eval"),
    ("kernel.poly_eval", "tiltcert.suite", "poly_eval"),
    ("kernel.poly_eval", "tiltcert.svg", "poly_eval"),
    ("kernel.poly_eval", "tiltcert.tilt", "poly_eval"),
    ("certify.sign", "tiltcert.certify", "certify_sign"),
    ("certify.sign", "tiltcert.suite", "certify_sign"),
    ("certify.box", "tiltcert.certify", "_certify_box"),
    ("certify.witness", "tiltcert.certify", "_witness_search"),
    ("suite.verify_all", "tiltcert.suite", "verify_all"),
    ("suite.structural", "tiltcert.suite", "_structural_items"),
    ("suite.lemma", "tiltcert.suite", "verify_lemma_computation"),
    ("suite.half_plane", "tiltcert.suite", "verify_half_plane"),
    ("suite.skyscraper", "tiltcert.suite", "verify_skyscraper_condition"),
    ("suite.mu", "tiltcert.suite", "_mu_sign_items"),
    ("suite.bg", "tiltcert.suite", "_bg_equality_item"),
    ("tilt.z_polynomials", "tiltcert.suite", "z_polynomials"),
    ("tilt.z_polynomials", "tiltcert.tilt", "z_polynomials"),
    ("tilt.cross_polynomial", "tiltcert.suite", "cross_polynomial"),
    ("tilt.bg_margin", "tiltcert.suite", "bg_margin"),
    ("chern.twist", "tiltcert.chern", "twist"),
    ("chern.twist", "tiltcert.tilt", "twist"),
    ("chern.twist", "tiltcert.cli", "twist"),
    ("heart.candidates", "tiltcert.suite", "skyscraper_candidates"),
    ("heart.candidates", "tiltcert.suite", "reduce_candidates"),
    ("svg.contour", "tiltcert.svg", "wall_contour_segments"),
    ("svg.emit", "tiltcert.cli", "emit_wall_svg"),
    ("svg.emit", "tiltcert.cli", "emit_zvectors_svg"),
    ("cli.main", "tiltcert.cli", "main"),
)
# BivariatePoly products go through the class's number slots, so the
# multiply layer is patched on the class itself.
CLASS_PATCHES = (
    ("kernel.poly_mul", "tiltcert.kernel", "BivariatePoly", ("__mul__", "__rmul__")),
)


def current(owner, attr):
    """The attribute as stored: a class's own function, not a bound method."""
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def targets():
    """Every (span name, owner object, attribute) the tracer patches."""
    out = []
    for name, module, attr in PATCHES:
        out.append((name, importlib.import_module(module), attr))
    for name, module, cls, attrs in CLASS_PATCHES:
        owner = getattr(importlib.import_module(module), cls)
        out.extend((name, owner, attr) for attr in attrs)
    return out


# Counts read off a layer's return value at its boundary.
RESULT_FIELDS = {
    "certify.sign": lambda cert: (cert.status, cert.boxes, cert.depth),
    "suite.verify_all": lambda report: len(report.items),
    "svg.contour": len,
}


class Tracer:
    def __init__(self):
        self.names = []
        self._name_ids = {}
        # One entry per span, in call order; arrays keep a span at 36 bytes.
        self.name_of = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.run = array("q")
        self.results = {name: [] for name in RESULT_FIELDS}
        self.run_id = 0
        self._stack = [-1]

    def _wrap(self, name, fn):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        name_id = self._name_ids[name]
        extract = RESULT_FIELDS.get(name)
        results = self.results.get(name)
        stack = self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            index = len(self.start)
            self.name_of.append(name_id)
            self.parent.append(stack[-1])
            self.run.append(self.run_id)
            self.end.append(0)
            stack.append(index)
            self.start.append(clock())
            try:
                value = fn(*args, **kwargs)
            finally:
                self.end[index] = clock()
                stack.pop()
            if extract is not None:
                results.append(extract(value))
            return value

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self):
        saved = []
        try:
            for name, owner, attr in targets():
                original = current(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def span_count(self):
        return len(self.start)

    def summary(self):
        """Per span name: calls, self ns, outermost inclusive ns.

        Also counts, per (child name, parent name), the direct children, so a
        caller can ask how many points a layer evaluated.
        """
        count = len(self.start)
        child_ns = [0] * count
        for i in range(count):
            p = self.parent[i]
            if p >= 0:
                child_ns[p] += self.end[i] - self.start[i]
        by_name = {n: {"calls": 0, "self_ns": 0, "total_ns": 0} for n in self.names}
        children = {}
        for i in range(count):
            name = self.names[self.name_of[i]]
            dur = self.end[i] - self.start[i]
            row = by_name[name]
            row["calls"] += 1
            row["self_ns"] += dur - child_ns[i]
            p = self.parent[i]
            if not self._has_ancestor(i, self.name_of[i]):
                row["total_ns"] += dur
            if p >= 0:
                key = (name, self.names[self.name_of[p]])
                children[key] = children.get(key, 0) + 1
        return by_name, children

    def _has_ancestor(self, i, name_id):
        p = self.parent[i]
        while p >= 0:
            if self.name_of[p] == name_id:
                return True
            p = self.parent[p]
        return False

    def write(self, path):
        """One JSON line per span: name, start_ns, end_ns, parent, run."""
        with open(path, "w", encoding="utf-8") as handle:
            for i in range(len(self.start)):
                handle.write(
                    json.dumps(
                        [
                            self.names[self.name_of[i]],
                            self.start[i],
                            self.end[i],
                            self.parent[i],
                            self.run[i],
                        ]
                    )
                )
                handle.write("\n")
