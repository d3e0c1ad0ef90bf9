"""Outside-in span tracer for the lmhs benchmark.

The tracer wraps public functions and methods of the ``lmhs`` modules from
the benchmark's own code; the library itself is not modified.  Every lmhs
module imports its helpers by name (``from .exactlin import rref, ...``), so
a wrapped function is rebound in every loaded lmhs module that holds the
original object.  Methods are rebound once, on their class.

Each call of a wrapped function records a span ``[name, start, end, parent,
child_time]``.  Spans stay in memory and are written out when the run ends.
A span's self time is its duration minus the time its direct child spans
cover.  Scalar operations are deliberately not wrapped: their call volume
would dominate the trace, and their cost shows in the self time of the
``exactlin`` functions that call them.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
from time import perf_counter

# (span name, module, attribute, class or None).  Several targets may share
# one span name; check_situation_a and check_situation_b form "mhs.situation".
TARGETS = [
    ("exactlin.rref", "lmhs.exactlin", "rref", None),
    ("exactlin.kernel", "lmhs.exactlin", "kernel", None),
    ("exactlin.solve", "lmhs.exactlin", "solve", None),
    ("exactlin.matmul", "lmhs.exactlin", "__matmul__", "ExactMatrix"),
    ("exactlin.intersect", "lmhs.exactlin", "intersect", "Subspace"),
    ("exactlin.poly_det", "lmhs.exactlin", "poly_det", None),
    ("exactlin.leading_minors", "lmhs.exactlin", "leading_principal_minors", None),
    ("exactlin.hermitian_signature", "lmhs.exactlin", "hermitian_signature", None),
    ("filtration.conj", "lmhs.filtration", "conj", "DecreasingFiltration"),
    ("filtration.weight_filtration", "lmhs.filtration", "weight_filtration", None),
    ("mhs.check_mhs", "lmhs.mhs", "check_mhs", None),
    ("mhs.deligne_splitting", "lmhs.mhs", "deligne_splitting", None),
    ("mhs.signature_table", "lmhs.mhs", "signature_table", None),
    ("mhs.situation", "lmhs.mhs", "check_situation_a", None),
    ("mhs.situation", "lmhs.mhs", "check_situation_b", None),
    ("mhs.random_polarized_mhs", "lmhs.mhs", "random_polarized_mhs", None),
    ("orbit.orbit_filtration", "lmhs.orbit", "__init__", "OrbitFiltration"),
    ("orbit.hermitian_matrix", "lmhs.orbit", "hermitian_matrix", "OrbitFiltration"),
    ("orbit.opposedness_polynomial", "lmhs.orbit", "opposedness_polynomial", None),
    ("orbit.signature", "lmhs.orbit", "orbit_signature", None),
    ("orbit.refined_filtration_check", "lmhs.orbit", "refined_filtration_check", None),
    ("orbit.verify_main_theorem", "lmhs.orbit", "verify_main_theorem", None),
    ("steenbrink.validate", "lmhs.steenbrink", "validate_degeneration_data", None),
    ("steenbrink.e2_page", "lmhs.steenbrink", "e2_page", None),
    ("steenbrink.weight_criterion", "lmhs.steenbrink", "weight_criterion", None),
    ("steenbrink.e2_signature_table", "lmhs.steenbrink", "e2_signature_table", None),
    ("steenbrink.nearby_hodge_index", "lmhs.steenbrink", "nearby_hodge_index", None),
    ("geomodels.odp_semistable_model", "lmhs.geomodels", "odp_semistable_model", None),
    ("cli.orbit", "lmhs.cli", "cmd_orbit", None),
    ("cli.check", "lmhs.cli", "cmd_check", None),
    ("cli.verify_identities", "lmhs.cli", "cmd_verify_identities", None),
    ("cli.json_codec", "lmhs.cli", "_load_json", None),
    ("cli.json_codec", "lmhs.cli", "_emit", None),
]

BITS_EVERY = 16


def _fraction_bits(x) -> int:
    return max(x.numerator.bit_length(), x.denominator.bit_length())


def _scalar_bits(g) -> int:
    if hasattr(g, "coeffs"):  # PolyScalar
        return max((_scalar_bits(c) for c in g.coeffs), default=0)
    return max(_fraction_bits(g.re), _fraction_bits(g.im))


def _orbit_signature_name(args, kwargs):
    method = kwargs.get("method", args[2] if len(args) > 2 else "evaluate")
    return f"orbit.signature_{method}"


class Tracer:
    """Spans, counters and the patch sites of one traced process."""

    def __init__(self):
        self.spans: list[list] = []
        self.max_rows = 0
        self.max_bits = 0
        self.probes = 0
        self.e2_keys: set = set()
        self.e2_distinct_loaded = 0
        self._local = threading.local()
        self._sites: list[tuple] = []

    # -- probes run before a span opens, so their cost is trace overhead --

    def _probe_matrix(self, args, kwargs):
        M = args[0]
        self.max_rows = max(self.max_rows, M.rows)
        # scanning every entry of every matrix would dominate the trace
        # overhead, so coefficient sizes are read on one call in BITS_EVERY
        self.probes += 1
        if self.probes % BITS_EVERY != 1:
            return
        bits = max((_scalar_bits(e) for row in M.entries for e in row), default=0)
        self.max_bits = max(self.max_bits, bits)

    def _probe_e2(self, args, kwargs):
        data = args[0] if args else kwargs["data"]
        d = args[1] if len(args) > 1 else kwargs["d"]
        self.e2_keys.add((id(data), d))

    def wrap(self, name, fn, probe=None):
        local = self._local
        spans = self.spans
        namer = name if callable(name) else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if probe is not None:
                probe(args, kwargs)
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            parent = stack[-1] if stack else None
            span = [namer(args, kwargs) if namer else name, 0.0, 0.0, parent, 0.0]
            spans.append(span)
            stack.append(span)
            span[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                span[2] = end
                stack.pop()
                if parent is not None:
                    parent[4] += end - span[1]

        return traced

    def prepare(self):
        """Import every target module, build a wrapper per target and find
        every site to rebind."""
        for _, modname, _, _ in TARGETS:
            importlib.import_module(modname)
        lmhs_modules = [
            mod for key, mod in sorted(sys.modules.items())
            if mod is not None and (key == "lmhs" or key.startswith("lmhs."))
        ]
        probes = {
            "rref": self._probe_matrix,
            "poly_det": self._probe_matrix,
            "e2_page": self._probe_e2,
        }
        sites = []
        for name, modname, attr, clsname in TARGETS:
            module = sys.modules[modname]
            if clsname is not None:
                owner = getattr(module, clsname)
                original = owner.__dict__[attr]
                sites.append((owner, attr, original, self.wrap(name, original)))
                continue
            original = getattr(module, attr)
            span_name = _orbit_signature_name if attr == "orbit_signature" else name
            wrapper = self.wrap(span_name, original, probes.get(attr))
            for mod in lmhs_modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        sites.append((mod, key, original, wrapper))
        self._sites = sites

    def install(self):
        if not self._sites:
            self.prepare()
        for owner, attr, _, wrapper in self._sites:
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original, _ in reversed(self._sites):
            setattr(owner, attr, original)

    # -- results --

    def aggregate(self) -> dict:
        """name -> {"calls", "self_s", "total_s"} over all recorded spans."""
        out: dict = {}
        for name, start, end, _, child in self.spans:
            row = out.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child
        return out

    def e2_distinct(self) -> int:
        """Distinct (input, degree) pairs passed to e2_page."""
        return len(self.e2_keys) + self.e2_distinct_loaded

    def child_counts(self, parent_name: str, child_name: str) -> int:
        """Spans named child_name whose direct parent is named parent_name."""
        return sum(
            1 for s in self.spans
            if s[0] == child_name and s[3] is not None and s[3][0] == parent_name
        )

    def dump(self, path: str, extra: dict | None = None):
        """Write every span as [name, start, end, parent index] plus the
        counters, as one JSON document."""
        index = {id(s): i for i, s in enumerate(self.spans)}
        blob = {
            "spans": [
                [s[0], s[1], s[2], index[id(s[3])] if s[3] is not None else -1]
                for s in self.spans
            ],
            "max_rows": self.max_rows,
            "max_bits": self.max_bits,
            "e2_distinct": self.e2_distinct(),
        }
        if extra:
            blob.update(extra)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(blob, fh)

    def load(self, path: str):
        """Merge the spans and counters dumped by another process."""
        with open(path, "r", encoding="utf-8") as fh:
            blob = json.load(fh)
        spans = []
        for name, start, end, parent in blob["spans"]:
            parent_span = spans[parent] if parent >= 0 else None
            span = [name, start, end, parent_span, 0.0]
            if parent_span is not None:
                parent_span[4] += end - start
            spans.append(span)
        self.spans.extend(spans)
        self.max_rows = max(self.max_rows, blob["max_rows"])
        self.max_bits = max(self.max_bits, blob["max_bits"])
        self.e2_distinct_loaded += blob["e2_distinct"]
