"""Span recording for the traced benchmark run.

The recorder wraps public functions of jointmeas from outside: it rebinds
every module attribute through which one layer calls another (for example
``partitioning.decide``, ``feasibility.decide_pair_qubit_numeric``,
``order.refute_greatest`` and the criterion names bound in ``feasibility``)
to a wrapper that records a span.  Nothing under ``src/`` changes.

A span is ``[name, start, end, parent, op, note]``: start and end from
``perf_counter``, the index of the enclosing span (-1 at top level), the
benchmark operation it belongs to, and a small annotation taken from the
return value.  Spans stay in memory until the run ends.
"""
from __future__ import annotations

import json
import sys
from time import perf_counter

# (owner module, attribute, span name).  "Class.method" patches the class.
TARGETS = (
    ("jointmeas.bloch", "busch_criterion", "bloch.criterion"),
    ("jointmeas.bloch", "molnar_criterion", "bloch.criterion"),
    ("jointmeas.bloch", "liu_criterion", "bloch.criterion"),
    ("jointmeas.bloch", "three_orthogonal_criterion", "bloch.criterion"),
    ("jointmeas.bloch", "boundary_joint", "bloch.boundary_joint"),
    ("jointmeas.operators", "HermitianOperator.__post_init__", "operators.hermitian"),
    ("jointmeas.operators", "loewner_leq", "operators.loewner_leq"),
    ("jointmeas.observables", "marginal", "observables.marginal"),
    ("jointmeas.feasibility", "decide", "feasibility.decide"),
    ("jointmeas.feasibility", "decide_pair_qubit_numeric", "feasibility.pair_search"),
    ("jointmeas.order", "refute_greatest", "order.refute_greatest"),
    ("jointmeas.order", "maximality_probe", "order.maximality_probe"),
    ("jointmeas.partitioning", "partition_compatibility_matrix", "partitioning.matrix"),
    ("jointmeas.scenarios", "run_scenario", "scenarios.run"),
    # the CLI's emission point: report to_json, then _emit's rounding and dump
    ("jointmeas.scenarios", "ScenarioReport.to_json", "cli.emit"),
    ("jointmeas.cli", "_emit", "cli.emit"),
)


def _note(name: str, args, result):
    if name in ("feasibility.decide", "feasibility.pair_search"):
        return [result.verdict.value, int(result.iterations)]
    if name == "order.refute_greatest":
        return result is not None
    if name == "order.maximality_probe":
        return result.verdict
    if name == "partitioning.matrix":
        return len(result.cells)
    if name == "scenarios.run":
        return args[0]
    return None


class SpanRecorder:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = -1
        self._restore = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            rec[5] = _note(name, args, result)
            return result

        return wrapper

    def install(self):
        """Rebind every traced function wherever a jointmeas module binds it."""
        modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == "jointmeas" or n.startswith("jointmeas."))
        ]
        for owner_name, attr, span in TARGETS:
            owner = sys.modules.get(owner_name)
            if owner is None:
                continue
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                setattr(cls, meth, self._wrap(span, original))
                self._restore.append((cls, meth, original))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(span, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._restore.append((mod, key, original))

    def uninstall(self):
        for target, key, original in reversed(self._restore):
            setattr(target, key, original)
        self._restore.clear()

    def dump(self, path: str):
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


# Spans of the shared building blocks every layer uses.  Their time stays
# in the self time of the layer that called them.
LEAVES = ("operators.hermitian", "operators.loewner_leq", "observables.marginal")

LAYERS = (
    "bloch.criterion", "bloch.boundary_joint", "operators.loewner_leq",
    "observables.marginal", "feasibility.decide", "feasibility.pair_search",
    "order.refute_greatest", "order.maximality_probe", "partitioning.matrix",
    "scenarios.run", "cli.emit",
)


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(spans, scenario_names, emit_bytes: int, rounds: int) -> dict:
    """The per-layer metrics named in BENCHMARK.json, from the spans of a
    traced run of ``rounds`` rounds.  Counts and seconds are per round, so
    runs of different lengths compare; ratios are over the whole run.  Self
    time is a span's time minus the time of the layer calls nested in it,
    not counting the shared building blocks (LEAVES): the matrix's self time
    is its time minus the decide calls inside it."""
    dur = [s[2] - s[1] for s in spans]
    own = list(dur)
    kids = [[] for _ in spans]  # nested layer calls, through any leaves
    by_name = {}
    for i, (name, _t0, _t1, parent, _op, _note) in enumerate(spans):
        by_name.setdefault(name, []).append(i)
        while parent >= 0 and spans[parent][0] in LEAVES:
            parent = spans[parent][3]
        if parent >= 0 and name not in LEAVES:
            own[parent] -= dur[i]
            kids[parent].append(i)

    def ids(name):
        return by_name.get(name, [])

    def note(i):
        return spans[i][5]

    m = {}
    for layer in LAYERS:
        m[f"{layer}.calls"] = len(ids(layer))
        m[f"{layer}.s"] = sum(dur[i] for i in ids(layer))
        m[f"{layer}.self_s"] = sum(own[i] for i in ids(layer))
    m["operators.hermitian.constructions"] = len(ids("operators.hermitian"))
    m["operators.hermitian.s"] = sum(dur[i] for i in ids("operators.hermitian"))

    decides = ids("feasibility.decide")
    m["feasibility.criterion.share"] = _ratio(
        sum(1 for i in decides if note(i)[1] == 0 and note(i)[0] != "UNDETERMINED"), len(decides)
    )
    m["feasibility.undetermined.s"] = sum(dur[i] for i in decides if note(i)[0] == "UNDETERMINED")
    searches = ids("feasibility.pair_search")
    m["feasibility.pair_search.iterations"] = sum(note(i)[1] for i in searches)
    m["feasibility.pair_search.decided_ratio"] = _ratio(
        sum(1 for i in searches if note(i)[0] != "UNDETERMINED"), len(searches)
    )
    # decisions with iterations but no pair search inside ran the projection
    # engine, which is decide's own untraced code: their self time is its time
    projection = [
        i for i in decides
        if note(i)[1] > 0 and not any(spans[c][0] == "feasibility.pair_search" for c in kids[i])
    ]
    m["feasibility.projection.calls"] = len(projection)
    m["feasibility.projection.s"] = sum(own[i] for i in projection)
    m["feasibility.projection.iterations"] = sum(note(i)[1] for i in projection)
    m["feasibility.projection.decided_ratio"] = _ratio(
        sum(1 for i in projection if note(i)[0] != "UNDETERMINED"), len(projection)
    )
    refutes = ids("order.refute_greatest")
    m["order.refute_greatest.hit_ratio"] = _ratio(sum(1 for i in refutes if note(i)), len(refutes))
    probes = ids("order.maximality_probe")
    m["order.maximality_probe.not_maximal_ratio"] = _ratio(
        sum(1 for i in probes if note(i) == "NOT_MAXIMAL"), len(probes)
    )
    m["partitioning.matrix.cells"] = sum(note(i) for i in ids("partitioning.matrix"))
    for name in scenario_names:
        m[f"scenarios.run.{name}.s"] = sum(dur[i] for i in ids("scenarios.run") if note(i) == name)
    m["cli.emit.bytes"] = emit_bytes
    return {k: v if k.endswith(("_ratio", ".share")) else v / rounds for k, v in m.items()}
