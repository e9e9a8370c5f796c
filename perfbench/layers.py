"""Per-layer spans recorded from outside the program.

`install()` wraps each layer's public functions and rebinds the wrapper in
every `endocert` module that holds the function, so calls through
`from ... import` names are traced too.  The program's code is not
changed; the wrappers pass arguments, results and exceptions through.

A span is `[name, start, end, parent, attrs]`: perf_counter seconds, the
index of the enclosing span (or None) and a few work counts read after
the call returns.  Spans inside the program (ROADMAP item 1) are to
reuse these names.

`figures()` turns one process's spans into the per-layer counts and
times that `run.py` reports.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict


def _first(args, kwargs, name):
    return args[0] if args else kwargs[name]


def _class_elements(args, kwargs, result):
    group = _first(args, kwargs, "group")
    return {"elements": group.order() if result is not None else 0}


def _sylvester_rows(args, kwargs, result):
    mats = _first(args, kwargs, "mats")
    return {"rows": len(mats) * mats[0].nrows ** 2 if mats else 0}


# span name, module, attribute (Class.method for a classmethod), counts
LAYER_FUNCTIONS = [
    ("chain.build", "endocert.permgroup.chain", "StabilizerChain.build", None),
    ("structure.is_simple", "endocert.permgroup.structure", "is_simple", None),
    ("structure.conjugacy_classes", "endocert.permgroup.structure",
     "conjugacy_class_representatives", _class_elements),
    ("subsearch.index", "endocert.permgroup.subsearch", "has_proper_subgroup_of_index",
     lambda args, kwargs, result: {"method": result[2]}),
    ("repmod.heart_centralizer", "endocert.repmod", "heart_centralizer", None),
    ("fflin.centralizer_basis", "endocert.fflin", "centralizer_basis", _sylvester_rows),
    ("polygal.ddf", "endocert.polygal", "degree_pattern_mod_p", None),
    ("polygal.census", "endocert.polygal", "census", None),
    ("polygal.joint_census", "endocert.polygal", "joint_census", None),
    ("polygal.distribution", "endocert.polygal", "cycle_type_distribution",
     lambda args, kwargs, result: {"elements": _first(args, kwargs, "group").order()}),
    ("polygal.identify", "endocert.polygal", "identify", None),
    ("verdict.case_from_polynomial", "endocert.verdict.engine", "case_from_polynomial", None),
    ("verdict.analyze_jacobian", "endocert.verdict.engine", "analyze_jacobian", None),
    ("verdict.hom_pair_analysis", "endocert.verdict.engine", "hom_pair_analysis", None),
    ("cli.main", "endocert.cli", "main", None),
]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    def wrap(self, name, fn, counts):
        spans, open_ = self.spans, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, open_[-1] if open_ else None, {}]
            open_.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                open_.pop()
            if counts is not None:
                span[4] = counts(args, kwargs, result)
            return result

        return traced


def _rebind(old, new) -> None:
    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("endocert"):
            for attr, value in list(vars(module).items()):
                if value is old:
                    setattr(module, attr, new)


def install() -> Tracer:
    tracer = Tracer()
    for name, module_name, attr, counts in LAYER_FUNCTIONS:
        module = importlib.import_module(module_name)
        if "." in attr:
            cls_name, method = attr.split(".")
            cls = getattr(module, cls_name)
            func = vars(cls)[method].__func__
            setattr(cls, method, classmethod(tracer.wrap(name, func, counts)))
        else:
            func = getattr(module, attr)
            _rebind(func, tracer.wrap(name, func, counts))
    return tracer


# figure name -> span names whose outermost spans it sums
INCLUSIVE_TIMES = {
    "chain.build_s": {"chain.build"},
    "structure.simple_s": {"structure.is_simple"},
    "structure.class_s": {"structure.conjugacy_classes"},
    "subsearch.index_s": {"subsearch.index"},
    "repmod.centralizer_s": {"repmod.heart_centralizer"},
    "polygal.ddf_s": {"polygal.ddf"},
    "polygal.census_s": {"polygal.census", "polygal.joint_census"},
    "polygal.identify_s": {"polygal.identify"},
}
# figure name -> span names whose self time (minus direct children) it sums
SELF_TIMES = {
    "verdict.self_s": {"verdict.case_from_polynomial", "verdict.analyze_jacobian",
                       "verdict.hom_pair_analysis"},
    "cli.self_s": {"cli.main"},
}
SUBSEARCH_METHODS = ("lagrange-shortcut", "action-backtrack", "exhaustive", "unknown")
COUNTS = (
    "chain.builds", "structure.simple_calls", "structure.class_elements",
    *(f"subsearch.{m}" for m in SUBSEARCH_METHODS),
    "repmod.centralizer_calls", "fflin.sylvester_rows",
    "polygal.ddf_runs", "polygal.distributions", "polygal.distribution_elements",
)
TIMES = (*INCLUSIVE_TIMES, *SELF_TIMES)


def figures(spans: list[list]) -> tuple[dict[str, int], dict[str, float]]:
    """Per-layer work counts and seconds of one traced process."""
    counts = dict.fromkeys(COUNTS, 0)
    times = dict.fromkeys(TIMES, 0.0)
    children = defaultdict(float)
    for name, start, end, parent, attrs in spans:
        if parent is not None:
            children[parent] += end - start
        if name == "chain.build":
            counts["chain.builds"] += 1
        elif name == "structure.is_simple":
            counts["structure.simple_calls"] += 1
        elif name == "structure.conjugacy_classes":
            counts["structure.class_elements"] += attrs["elements"]
        elif name == "subsearch.index":
            counts[f"subsearch.{attrs['method']}"] += 1
        elif name == "repmod.heart_centralizer":
            counts["repmod.centralizer_calls"] += 1
        elif name == "fflin.centralizer_basis":
            counts["fflin.sylvester_rows"] += attrs["rows"]
        elif name == "polygal.ddf":
            counts["polygal.ddf_runs"] += 1
        elif name == "polygal.distribution":
            counts["polygal.distributions"] += 1
            counts["polygal.distribution_elements"] += attrs["elements"]

    def has_ancestor_in(i, names):
        parent = spans[i][3]
        while parent is not None:
            if spans[parent][0] in names:
                return True
            parent = spans[parent][3]
        return False

    for i, (name, start, end, _parent, _attrs) in enumerate(spans):
        for figure, names in INCLUSIVE_TIMES.items():
            if name in names and not has_ancestor_in(i, names):
                times[figure] += end - start
        for figure, names in SELF_TIMES.items():
            if name in names:
                times[figure] += end - start - children[i]
    return counts, times
