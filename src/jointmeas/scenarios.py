"""Named reproduction scenarios with built-in expectations.

Each scenario builds a concrete instance (orthogonal unbiased triples, the
boundary pair, the gamma family, the partition paradox, commuting sharp
products), runs it through the library, and compares the outcome against
expectations derived from the analytic criteria.  The registry is what the
CLI ``run`` command executes; a correct build passes every scenario with
default parameters.  Each parameter declares a closed range, and a value
outside it is refused before the scenario runs.
"""
from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .bloch import (
    CRITERION_TOL,
    BlochEffect,
    SimpleQubitObservable,
    bloch_matrix,
    boundary_joint,
    busch_criterion,
    gamma_family_member,
    gamma_interval,
    three_orthogonal_criterion,
)
from .feasibility import (
    FeasibilityOptions,
    FeasibilityProblem,
    Verdict,
    decide,
    pairwise_vs_global,
)
from .observables import commute, max_cell_deviation, max_marginal_deviation, validate
from .operators import MAX_DIM, HermitianOperator, loewner_leq
from .order import EPS, in_lb, joint_observable_order_audit, maximality_probe, refute_greatest
from .partitioning import enumerate_partitionings, forward_partition_joint, partition_paradox_audit
from .sampling import random_commuting_sharp_pair

EX = np.array([1.0, 0.0, 0.0])
EY = np.array([0.0, 1.0, 0.0])
EZ = np.array([0.0, 0.0, 1.0])
AXES = (EX, EY, EZ)


@dataclass(frozen=True, eq=False)
class Expectation:
    name: str
    kind: str  # "equals" | "close" | "at_most" | "at_least" | "is_true"
    expected: object
    observed: object
    tol: float = 0.0
    citation: str = ""

    @property
    def passed(self) -> bool:
        if self.kind == "equals":
            return self.observed == self.expected
        if self.kind == "is_true":
            return bool(self.observed)
        if self.observed is None:
            return False
        if self.kind == "close":
            return abs(self.observed - self.expected) <= self.tol
        if self.kind == "at_most":
            return self.observed <= self.expected
        if self.kind == "at_least":
            return self.observed >= self.expected
        raise ValueError(f"unknown expectation kind {self.kind}")

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "kind": self.kind,
            "expected": self.expected,
            "observed": self.observed,
            "tol": self.tol,
            "passed": self.passed,
            "citation": self.citation,
        }


@dataclass(frozen=True, eq=False)
class ScenarioReport:
    scenario: str
    parameters: dict
    expectations: list
    payload: dict

    @property
    def passed(self) -> bool:
        return all(e.passed for e in self.expectations)

    def to_json(self) -> dict:
        return {
            "scenario": self.scenario,
            "parameters": self.parameters,
            "passed": self.passed,
            "expectations": [e.to_json() for e in self.expectations],
            "report": self.payload,
        }


def _unbiased(vec) -> "Observable":
    return SimpleQubitObservable(BlochEffect(1.0, np.asarray(vec, dtype=float))).as_observable()


_CITE_PAIR = "unbiased qubit pair criterion: |a+b| + |a-b| <= 2"
_CITE_TRIPLE = "orthogonal unbiased triple criterion: |a|^2 + |b|^2 + |c|^2 <= 1"
_CITE_BOUNDARY = "closed-form joint observable on the pair-criterion boundary"
_CITE_LB = "lower-bound set membership in the Loewner order"
_CITE_INFIMUM = (
    "exact greatestness test: lb(A, B) has a greatest element iff the shorts "
    "[B]A and [A]B are comparable (Ando 1999)"
)
_CITE_GAMMA = "one-parameter family exhausting the joints of an unbiased/rank-one pair"
_CITE_MAXIMAL = "exact maximality test: C is maximal in lb(A, B) iff ran(A - C) and ran(B - C) meet in 0"
_CITE_PRODUCT = "symmetrized product joint observable for commuting families"
_CITE_PARTITION = "pairwise compatibility of all two-outcome coarse-grainings"
_CITE_DUAL = (
    "re-checked dual certificate of the white-noise robustness SDP "
    "(Wolf, Perez-Garcia & Fernandez 2009)"
)


def _decided(prefix, report, parents, want, reason=None, margin=None, bound=None, cite=""):
    """The expectations on one decided family, named ``prefix`` + "verdict",
    and so on: its verdict is ``want``, its reason ``reason`` and its margin
    within 1e-9 of ``margin`` (each skipped when None), and, when ``bound`` is
    given and the report holds a witness, the witness validates and its
    marginals lie within ``bound`` of ``parents``."""
    exps = [Expectation(prefix + "verdict", "equals", want.value, report.verdict.value, citation=cite)]
    if reason is not None:
        exps.append(Expectation(prefix + "reason", "equals", reason, report.reason, citation=cite))
    if margin is not None:
        exps.append(Expectation(prefix + "margin", "close", margin, report.margin, tol=1e-9, citation=cite))
    if bound is not None and report.witness is not None:
        residual = max_marginal_deviation(report.witness, parents)
        exps += [
            Expectation(prefix + "witness-validates", "is_true", True, validate(report.witness).passed),
            Expectation(prefix + "witness-marginal-residual", "at_most", bound, residual, citation=cite),
        ]
    return exps


def _run_busch_boundary(params: dict, opts: FeasibilityOptions):
    l = params["l"]
    a, b = l * EX, l * EY
    obs_a, obs_b = _unbiased(a), _unbiased(b)
    crit = busch_criterion(a, b)
    report = decide(FeasibilityProblem((obs_a, obs_b), opts))
    want = Verdict.FEASIBLE if crit.jm else Verdict.INFEASIBLE
    # route 1 takes a pair that commutes within STRUCTURE_TOL (|l| up to about
    # 4.5e-5) before eq3, and reports no margin
    reason, margin = ("commuting", None) if commute(obs_a, obs_b) else ("eq3", crit.margin)
    exps = _decided("", report, (obs_a, obs_b), want, reason, margin, 1e-12, _CITE_PAIR)
    payload = {"report": report.to_json(), "criterion_value": crit.value}
    if abs(crit.value - 2.0) <= CRITERION_TOL:
        dev = None
        if report.witness is not None:
            dev = max_cell_deviation(report.witness, boundary_joint(a, b))
        exps.append(
            Expectation(
                "numeric-witness-matches-closed-form",
                "at_most",
                1e-6,
                dev,
                citation=_CITE_BOUNDARY + " (the boundary joint is unique)",
            )
        )
    return exps, payload


def _run_pairwise_not_triple(params: dict, opts: FeasibilityOptions):
    l = params["l"]
    parents = tuple(_unbiased(l * axis) for axis in AXES)
    pair_crit = busch_criterion(l * AXES[0], l * AXES[1])
    triple_crit = three_orthogonal_criterion(*(l * axis for axis in AXES))
    pg = pairwise_vs_global(parents, opts)
    want_pair = Verdict.FEASIBLE if pair_crit.jm else Verdict.INFEASIBLE
    exps = []
    for (i, j), rep in sorted(pg.pairwise.items()):
        exps += _decided(f"pair-{i}{j}-", rep, (parents[i], parents[j]), want_pair, cite=_CITE_PAIR)
    if triple_crit.jm:  # then the triple's witness is checked
        want = (Verdict.FEASIBLE, None, None, 1e-12)
    else:
        want = (Verdict.INFEASIBLE, "eq6", triple_crit.margin, None)
    exps += _decided("global-", pg.global_report, parents, *want, cite=_CITE_TRIPLE)
    return exps, {"report": pg.to_json(), "triple_criterion_value": triple_crit.value}


def _run_unique_not_greatest(params: dict, opts: FeasibilityOptions):
    l, t, gamma = params["l"], params["t"], params["gamma"]
    a, b = l * EX, l * EY
    obs_a, obs_b = _unbiased(a), _unbiased(b)
    g = boundary_joint(a, b)
    g11 = g.effects[("1", "1")]
    c = HermitianOperator(bloch_matrix(gamma, t * (a + b)))
    ea1, eb1 = obs_a.effects["1"], obs_b.effects["1"]
    member = in_lb(c, ea1, eb1)
    below = loewner_leq(c, g11)
    top = float(np.linalg.eigvalsh(c.matrix - g11.matrix)[-1])
    report = decide(FeasibilityProblem((obs_a, obs_b), opts))
    dev = max_cell_deviation(report.witness, g) if report.witness is not None else None
    search = refute_greatest(g11, ea1, eb1)
    exps = [
        Expectation("candidate-in-lb", "is_true", True, member, citation=_CITE_LB),
        Expectation("candidate-not-below-joint-cell", "is_true", True, not below, citation=_CITE_LB),
        Expectation(
            "violation",
            "at_least",
            1e-3,
            top,
            citation="strict violation of the would-be greatest element",
        ),
        Expectation(
            "numeric-witness-matches-closed-form",
            "at_most",
            1e-6,
            dev,
            citation=_CITE_BOUNDARY + " (the boundary joint is unique)",
        ),
        Expectation(
            "search-refutes-greatest",
            "is_true",
            True,
            search is not None,
            citation=_CITE_INFIMUM,
        ),
    ]
    return exps, {"violation": top, "search_violation": None if search is None else search.violation}


def _run_no_maximal_family(params: dict, opts: FeasibilityOptions):
    anorm, beta = params["anorm"], params["beta"]
    a = anorm * EX
    b_hat = EY
    interval = gamma_interval(a, beta)
    lo_want = beta - 0.5 * (1.0 - anorm**2)
    hi_want = 0.5 * (1.0 - anorm**2)
    exps = [
        Expectation("interval-lo", "close", lo_want, interval.lo, tol=1e-12, citation=_CITE_GAMMA),
        Expectation("interval-hi", "close", hi_want, interval.hi, tol=1e-12, citation=_CITE_GAMMA),
    ]
    grid = np.linspace(interval.lo, interval.hi, 5)  # its first and last entries are lo and hi exactly
    members = [gamma_family_member(a, beta, b_hat, float(g)) for g in grid]
    endpoints_ok = validate(members[0]).passed and validate(members[-1]).passed
    exps.append(Expectation("endpoint-joints-valid", "is_true", True, endpoints_ok))

    bad_gamma = params["bad_gamma"]
    rejected = False
    rejection = ""
    try:
        gamma_family_member(a, beta, b_hat, bad_gamma)
    except ValueError as err:
        rejected = True
        rejection = str(err)
    exps.append(
        Expectation(
            "out-of-interval-gamma-rejected",
            "is_true",
            True,
            rejected,
            citation=_CITE_GAMMA,
        )
    )

    opposite = True
    min_gap = np.inf
    for g1, g2 in itertools.combinations(members, 2):
        up = g2.effects[("1", "1")] - g1.effects[("1", "1")]
        down = g1.effects[("0", "1")] - g2.effects[("0", "1")]
        ok = (
            loewner_leq(g1.effects[("1", "1")], g2.effects[("1", "1")])
            and loewner_leq(g2.effects[("0", "1")], g1.effects[("0", "1")])
        )
        opposite = opposite and ok
        min_gap = min(min_gap, up.trace(), down.trace())
    exps.append(
        Expectation(
            "opposite-cell-ordering",
            "is_true",
            True,
            opposite and min_gap > 1e-9,
            citation=_CITE_GAMMA + "; opposite cell ordering forbids a maximal joint",
        )
    )
    # the (1,1) cell of member gamma gains exactly gamma_hi - gamma in
    # lb(A(1), B(1)); the probe reports a gain above EPS as NOT_MAXIMAL
    fa, fb = HermitianOperator(bloch_matrix(1.0, a)), HermitianOperator(bloch_matrix(beta, beta * b_hat))
    rows = []
    for k, (g, member) in enumerate(zip(grid, members)):
        probe = maximality_probe(member.effects[("1", "1")], fa, fb)
        gain = interval.hi - float(g)
        want = "NOT_MAXIMAL" if gain > EPS else "MAXIMAL_WITHIN"
        exps += [
            Expectation(f"corner-gain-{k}", "close", gain, probe.trace_gain, 1e-9, _CITE_MAXIMAL),
            Expectation(f"corner-verdict-{k}", "equals", want, probe.verdict, citation=_CITE_MAXIMAL),
        ]
        traces = {f"{x},{y}": e.trace() for (x, y), e in member.effects.items()}
        rows.append({"gamma": float(g), "traces": traces, "corner_gain": probe.trace_gain})
    payload = {
        "interval": [interval.lo, interval.hi],
        "min_trace_gap": float(min_gap),
        "rejection": rejection,
        "members": rows,
    }
    return exps, payload


def _run_partition_paradox(params: dict, opts: FeasibilityOptions):
    l = params["l"]
    va, vb, vc = (l * axis for axis in AXES)
    g = boundary_joint(va, vb)
    f = boundary_joint(vb, vc)
    audit = partition_paradox_audit(g, f, opts=opts)
    triple = three_orthogonal_criterion(va, vb, vc)
    exps = [
        Expectation(
            "matrix-all-feasible",
            "is_true",
            True,
            audit.matrix.all_feasible,
            citation=_CITE_PARTITION,
        ),
        Expectation(
            "matrix-undetermined-cells", "equals", 0, audit.matrix.undetermined_count
        ),
        *_decided(
            "global-", audit.global_report, (g, f), Verdict.INFEASIBLE, "dual-certificate", cite=_CITE_DUAL
        ),
        Expectation(
            "context-triple-incompatible",
            "is_true",
            True,
            not triple.jm,
            citation=_CITE_TRIPLE + "; a joint of G and F would have all three as marginals",
        ),
        Expectation("paradox", "is_true", True, audit.paradox, citation=_CITE_PARTITION),
    ]
    return exps, {"audit": audit.to_json()}


def _run_commuting_sharp_product(params: dict, opts: FeasibilityOptions):
    dim = params["dim"]
    rng = np.random.default_rng([params["seed"], dim])
    obs_a, obs_b = random_commuting_sharp_pair(dim, rng)
    report = decide(FeasibilityProblem((obs_a, obs_b), opts))
    exps = _decided(
        "", report, (obs_a, obs_b), Verdict.FEASIBLE, "commuting", bound=1e-10, cite=_CITE_PRODUCT
    )
    payload = {"report": report.to_json()}
    witness = report.witness
    if witness is not None:
        audit = joint_observable_order_audit(witness, obs_a, obs_b)
        payload["audit"] = audit.to_json()
        greatest = f"{_CITE_PRODUCT}; its cells are greatest lower bounds by the {_CITE_INFIMUM}"
        exps += [
            Expectation(name, "is_true", True, held, citation=cite)
            for name, held, cite in (
                ("greatest-not-refuted", audit.all_greatest, greatest),
                ("all-maximal", audit.all_maximal, _CITE_MAXIMAL),
                ("uniqueness-not-refuted", not audit.uniqueness_refuted, _CITE_PRODUCT),
            )
        ]
        sides = [[p for p in enumerate_partitionings(obs) if not p.is_trivial] for obs in (obs_a, obs_b)]
        partition_ok = True
        for pa, pb in itertools.product(*sides):
            fwd = forward_partition_joint(witness, pa.subset, pb.subset)
            ok = (
                validate(fwd).passed
                and max_marginal_deviation(fwd, (pa.observable, pb.observable)) <= 1e-10
            )
            partition_ok = partition_ok and ok
        exps.append(
            Expectation(
                "partition-joints-valid",
                "is_true",
                True,
                partition_ok,
                citation=_CITE_PARTITION,
            )
        )
    return exps, payload


@dataclass(frozen=True, eq=False)
class Scenario:
    name: str
    summary: str
    citation: str
    parameters: dict  # name -> (default, lo, hi), the closed range a value may take
    runner: object

    def run(self, overrides: dict | None, opts: FeasibilityOptions) -> ScenarioReport:
        """Run with ``overrides`` in place of the defaults.  A value outside
        its parameter's range (NaN included), or a non-integer for an integer
        parameter, raises ``ValueError`` before the runner starts; a None
        value, or a name the scenario does not declare, is ignored."""
        params = {key: default for key, (default, _, _) in self.parameters.items()}
        for key, value in (overrides or {}).items():
            if value is None or key not in params:
                continue
            default, lo, hi = self.parameters[key]
            if isinstance(default, int):
                try:
                    value = operator.index(value)
                except TypeError:
                    raise ValueError(f"{key} must be an integer, got {value!r}") from None
            if not lo <= value <= hi:
                raise ValueError(f"{key} must lie in [{lo:g}, {hi:g}], got {value!r}")
            params[key] = value
        exps, payload = self.runner(params, opts)
        return ScenarioReport(self.name, params, exps, payload)


# each range is the set on which the scenario's objects are defined: an unbiased
# Bloch vector has length at most 1, an effect's alpha lies in [0, 2]; bad_gamma
# is unbounded, because the scenario expects gamma_family_member to refuse it.
# Its default 0.75 lies outside every gamma interval, which sits inside (0, 1/2)
REGISTRY = {
    s.name: s
    for s in (
        Scenario(
            "busch-boundary",
            "orthogonal unbiased qubit pair on the compatibility boundary",
            _CITE_PAIR,
            {"l": (1.0 / math.sqrt(2.0), -1.0, 1.0)},
            _run_busch_boundary,
        ),
        Scenario(
            "pairwise-not-triple",
            "orthogonal unbiased triple: pairwise compatible, globally not",
            _CITE_TRIPLE,
            {"l": (0.6, -1.0, 1.0)},
            _run_pairwise_not_triple,
        ),
        Scenario(
            "unique-not-greatest",
            "unique boundary joint whose cells are not greatest lower bounds",
            _CITE_LB,
            {"l": (1.0 / math.sqrt(2.0), -1.0, 1.0), "t": (0.3, -2.0, 2.0), "gamma": (0.4, 0.0, 2.0)},
            _run_unique_not_greatest,
        ),
        Scenario(
            "no-maximal-family",
            "gamma family of joints with opposite cell ordering (no maximal joint)",
            _CITE_GAMMA,
            {"anorm": (0.6, 0.0, 1.0), "beta": (0.4, 0.0, 1.0), "bad_gamma": (0.75, -math.inf, math.inf)},
            _run_no_maximal_family,
        ),
        Scenario(
            "partition-paradox",
            "all partitionings pairwise compatible while the joints are not",
            _CITE_PARTITION,
            {"l": (1.0 / math.sqrt(2.0), -1.0, 1.0)},
            _run_partition_paradox,
        ),
        Scenario(
            "commuting-sharp-product",
            "randomized commuting sharp pair and its product joint",
            _CITE_PRODUCT,
            {"dim": (4, 2, MAX_DIM), "seed": (0, 0, math.inf)},
            _run_commuting_sharp_product,
        ),
    )
}


def run_scenario(
    name: str, overrides: dict | None = None, opts: FeasibilityOptions | None = None
) -> ScenarioReport:
    if name not in REGISTRY:
        known = ", ".join(sorted(REGISTRY))
        raise KeyError(f"unknown scenario {name!r}; registered: {known}")
    return REGISTRY[name].run(overrides, opts or FeasibilityOptions())
