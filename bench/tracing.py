"""Per-layer spans recorded from outside the facering package.

Each layer's public functions are wrapped where their callers look them
up: a module-level function is replaced in every ``facering`` module that
binds it (``facering.cm_basis.label_selected``, ``facering.cli.compute_basis``
and so on), a method on its class.  A span records its name, job, parent
span, start and end; self time is the duration minus the time covered by
child spans.  Spans are kept in memory and folded into per-round totals
when a round ends.

``coeff`` and ``partitions`` are not wrapped: they are called per scalar
and per shape, so a wrapper would cost more than the call.  Their time
lands in the self time of the ``linalg`` and ``face_ring`` spans around
them.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from time import perf_counter


def _faces(tracer, stats, args, result):
    stats["faces"] += len(args[0].ids)


def _insert(tracer, stats, args, result):
    stats["independent" if result is None else "dependent"] += 1


def _selected(tracer, stats, args, result):
    key = (id(args[0]), frozenset(args[1]))
    if key not in tracer.selected_keys:
        tracer.selected_keys.add(key)
        stats["distinct"] += 1


def _mul(tracer, stats, args, result):
    # a scalar factor counts as one term
    stats["term_pairs"] += len(args[0].terms) * len(getattr(args[1], "terms", "1"))
    stats["out_terms"] += len(result.terms)


def _add(tracer, stats, args, result):
    stats["terms_in"] += len(args[0].terms) + len(args[1].terms)


def _monomials(tracer, stats, args, result):
    stats["monomials"] += len(result)


def _passes(tracer, stats, args, result):
    stats["passes"] += len(result.remainders)


# (span name, module, attribute, class or None, extra counters, counter hook,
#  whether the call count is reported)
LAYERS = [
    ("complexes.build", "facering.complexes", "__init__", "BooleanComplex",
     ("faces",), _faces, True),
    ("complexes.label_selected", "facering.complexes", "label_selected", None,
     (), None, True),
    ("complexes.subdivision", "facering.complexes", "barycentric_subdivision",
     None, (), None, True),
    ("linalg.insert", "facering.linalg", "insert", "RowSpan",
     ("independent", "dependent"), _insert, True),
    ("linalg.represent", "facering.linalg", "represent", "RowSpan",
     (), None, True),
    ("cm_basis.compute_basis", "facering.cm_basis", "compute_basis", None,
     (), None, True),
    ("cm_basis.verify_basis", "facering.cm_basis", "verify_basis", None,
     (), None, True),
    ("cm_basis.facet_vector", "facering.cm_basis", "facet_vector", None,
     (), None, True),
    ("cm_basis.selected", "facering.cm_basis", "selected", "CellBasis",
     ("distinct",), _selected, True),
    ("cm_basis.represent", "facering.cm_basis", "represent_on_cell_basis", None,
     (), None, True),
    ("face_ring.straighten", "facering.face_ring", "straighten", None,
     (), None, True),
    ("face_ring.mul", "facering.face_ring", "__mul__", "RingElement",
     ("term_pairs", "out_terms"), _mul, True),
    ("face_ring.add", "facering.face_ring", "__add__", "RingElement",
     ("terms_in",), _add, True),
    ("face_ring.parameter_monomial", "facering.face_ring", "parameter_monomial",
     None, (), None, True),
    ("face_ring.evaluate", "facering.face_ring", "evaluate",
     "ParameterPolynomial", (), None, True),
    ("face_ring.graded_monomials", "facering.face_ring", "graded_monomials",
     None, ("monomials",), _monomials, True),
    ("transfer.express", "facering.transfer", "express_on_transferred_basis",
     None, ("passes",), _passes, True),
    ("transfer.to_cell_form", "facering.transfer", "to_cell_form",
     "TransferContext", (), None, True),
    ("equivariant.average", "facering.equivariant", "average", None,
     (), None, True),
    ("equivariant.apply", "facering.equivariant", "apply", "Morphism",
     (), None, True),
    ("equivariant.verify_morphism", "facering.equivariant", "verify_morphism",
     None, (), None, True),
    ("equivariant.act", "facering.equivariant", "act", None, (), None, True),
    ("equivariant.close_group", "facering.equivariant", "close_group", None,
     (), None, True),
    ("equivariant.cross_term", "facering.equivariant", "odd_cross_term_witness",
     None, (), None, True),
    ("documents.load", "facering.documents", "load_json", None, (), None, False),
    ("expressions.parse", "facering.expressions", "parse_element", None,
     (), None, False),
    ("expressions.format", "facering.expressions", "format_element", None,
     (), None, False),
    ("cli.run", "facering.cli", "run", None, (), None, False),
]


def layer_metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric with its unit, in report order."""
    out = []
    for name, _, _, _, extra, _, with_calls in LAYERS:
        if with_calls:
            out.append((f"{name}.calls", "count"))
        out.append((f"{name}.self_s", "s"))
        out.extend((f"{name}.{c}", "count") for c in extra)
        if name == "linalg.insert":
            out.append((f"{name}.independent_ratio", "ratio"))
    return out


class Tracer:
    """Span stack, spans of the current round, and per-name totals."""

    def __init__(self):
        self.stack: list[list] = []   # [child time, span id] per open span
        self.spans: list[tuple] = []  # (name, job, span id, parent id, start, end)
        self.stats: dict[str, dict] = {}
        self.job = -1
        self._next_id = 0
        self.selected_keys: set = set()  # (basis, label set) pairs seen in this job

    def _new_stats(self) -> dict[str, dict]:
        stats = {}
        for name, _, _, _, extra, _, _ in LAYERS:
            stats[name] = {"calls": 0, "self_s": 0.0, **{c: 0 for c in extra}}
        return stats

    def start_round(self) -> None:
        self.stats = self._new_stats()
        self.spans = []

    def start_job(self, job: int) -> None:
        self.job = job
        self.selected_keys = set()

    def wrap(self, name: str, fn, hook):
        stack = self.stack
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer._next_id += 1
            span_id = tracer._next_id
            parent = stack[-1][1] if stack else 0
            frame = [0.0, span_id]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                if stack:
                    stack[-1][0] += t1 - t0
                stats = tracer.stats[name]
                stats["calls"] += 1
                stats["self_s"] += (t1 - t0) - frame[0]
                tracer.spans.append((name, tracer.job, span_id, parent, t0, t1))
            if hook is not None:
                hook(tracer, stats, args, result)
            return result

        return wrapper

    def install(self) -> None:
        """Replace every binding of each layer function with its wrapper."""
        self.start_round()
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "facering" or n.startswith("facering."))]
        for name, modname, attr, clsname, _, hook, _ in LAYERS:
            module = importlib.import_module(modname)
            if clsname is not None:
                cls = getattr(module, clsname)
                setattr(cls, attr, self.wrap(name, cls.__dict__[attr], hook))
                continue
            original = getattr(module, attr)
            wrapper = self.wrap(name, original, hook)
            for mod in modules:
                for binding, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, binding, wrapper)

    def write_spans(self, path: str) -> str:
        """Write the current round's spans as JSON lines
        ``[name, job, span id, parent id, start s, end s]``, times from the
        round's first span."""
        base = min((span[4] for span in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as fh:
            for name, job, span_id, parent, t0, t1 in self.spans:
                fh.write(json.dumps([name, job, span_id, parent,
                                     round(t0 - base, 9), round(t1 - base, 9)]))
                fh.write("\n")
        return path

    def round_metrics(self) -> dict[str, float]:
        out = {}
        for name, _, _, _, extra, _, with_calls in LAYERS:
            s = self.stats[name]
            if with_calls:
                out[f"{name}.calls"] = s["calls"]
            out[f"{name}.self_s"] = s["self_s"]
            for c in extra:
                out[f"{name}.{c}"] = s[c]
            if name == "linalg.insert":
                out[f"{name}.independent_ratio"] = (
                    s["independent"] / s["calls"] if s["calls"] else 0.0)
        return out
