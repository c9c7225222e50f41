"""Named reproduction scenarios with built-in expectations.

Each scenario builds a concrete instance (orthogonal unbiased triples, the
boundary pair, the gamma family, the partition paradox, commuting sharp
products), runs it through the library, and compares the outcome against
expectations derived from the analytic criteria.  The registry is what the
CLI ``run`` command executes; a correct build passes every scenario with
default parameters.
"""
from __future__ import annotations

import itertools
import math
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
from .observables import max_cell_deviation, max_marginal_deviation, validate
from .operators import HermitianOperator, loewner_leq
from .order import in_lb, refute_greatest
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
_CITE_PRODUCT = "symmetrized product joint observable for commuting families"
_CITE_PARTITION = "pairwise compatibility of all two-outcome coarse-grainings"
_CITE_DUAL = (
    "re-checked dual certificate of the white-noise robustness SDP "
    "(Wolf, Perez-Garcia & Fernandez 2009)"
)


def _run_busch_boundary(params: dict, opts: FeasibilityOptions):
    l = params["l"]
    a, b = l * EX, l * EY
    obs_a, obs_b = _unbiased(a), _unbiased(b)
    crit = busch_criterion(a, b)  # first: it refuses non-effects
    report = decide(FeasibilityProblem((obs_a, obs_b), opts))
    want = Verdict.FEASIBLE if crit.jm else Verdict.INFEASIBLE
    exps = [
        Expectation("verdict", "equals", want.value, report.verdict.value, citation=_CITE_PAIR),
        Expectation("reason", "equals", "eq3", report.reason, citation=_CITE_PAIR),
        Expectation(
            "margin", "close", crit.margin, report.margin, tol=1e-9, citation=_CITE_PAIR
        ),
    ]
    payload = {"report": report.to_json(), "criterion_value": crit.value}
    if report.verdict is Verdict.FEASIBLE and report.witness is not None:
        val = validate(report.witness)
        exps.append(Expectation("witness-validates", "is_true", True, val.passed))
        exps.append(
            Expectation(
                "witness-marginal-residual",
                "at_most",
                1e-12,
                max_marginal_deviation(report.witness, (obs_a, obs_b)),
                citation=_CITE_BOUNDARY,
            )
        )
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
    pair_crit = busch_criterion(l * AXES[0], l * AXES[1])  # first: they refuse non-effects
    triple_crit = three_orthogonal_criterion(*(l * axis for axis in AXES))
    pg = pairwise_vs_global(parents, opts)
    want_pair = Verdict.FEASIBLE if pair_crit.jm else Verdict.INFEASIBLE
    want_global = Verdict.FEASIBLE if triple_crit.jm else Verdict.INFEASIBLE
    exps = []
    for (i, j), rep in sorted(pg.pairwise.items()):
        exps.append(
            Expectation(
                f"pair-{i}{j}-verdict",
                "equals",
                want_pair.value,
                rep.verdict.value,
                citation=_CITE_PAIR,
            )
        )
    exps.append(
        Expectation(
            "global-verdict",
            "equals",
            want_global.value,
            pg.global_report.verdict.value,
            citation=_CITE_TRIPLE,
        )
    )
    if not triple_crit.jm:
        exps.append(
            Expectation(
                "global-margin",
                "close",
                triple_crit.margin,
                pg.global_report.margin,
                tol=1e-9,
                citation=_CITE_TRIPLE,
            )
        )
        exps.append(
            Expectation("global-reason", "equals", "eq6", pg.global_report.reason)
        )
    elif pg.global_report.witness is not None:
        exps.append(
            Expectation(
                "global-witness-validates",
                "is_true",
                True,
                validate(pg.global_report.witness).passed,
            )
        )
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
    payload = {
        "interval": [interval.lo, interval.hi],
        "min_trace_gap": float(min_gap),
        "rejection": rejection,
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
        Expectation(
            "global-verdict",
            "equals",
            Verdict.INFEASIBLE.value,
            audit.global_report.verdict.value,
            citation=_CITE_TRIPLE,
        ),
        Expectation(
            "global-reason",
            "equals",
            "dual-certificate",
            audit.global_report.reason,
            citation=_CITE_DUAL,
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
    dim = int(params["dim"])
    rng = np.random.default_rng([params["seed"], dim])
    obs_a, obs_b = random_commuting_sharp_pair(dim, rng)
    report = decide(FeasibilityProblem((obs_a, obs_b), opts))
    exps = [
        Expectation(
            "verdict",
            "equals",
            Verdict.FEASIBLE.value,
            report.verdict.value,
            citation=_CITE_PRODUCT,
        ),
        Expectation("reason", "equals", "commuting", report.reason),
    ]
    payload = {"report": report.to_json()}
    witness = report.witness
    if witness is not None:
        exps.append(
            Expectation("witness-validates", "is_true", True, validate(witness).passed)
        )
        exps.append(
            Expectation(
                "witness-marginal-residual",
                "at_most",
                1e-10,
                max_marginal_deviation(witness, (obs_a, obs_b)),
                citation=_CITE_PRODUCT,
            )
        )
        refuted = False
        for x in obs_a.outcomes:
            for y in obs_b.outcomes:
                hit = refute_greatest(
                    witness.effects[(x, y)], obs_a.effects[x], obs_b.effects[y]
                )
                refuted = refuted or hit is not None
        exps.append(
            Expectation(
                "greatest-not-refuted",
                "is_true",
                True,
                not refuted,
                citation=f"{_CITE_PRODUCT}; its cells are greatest lower bounds by the "
                f"{_CITE_INFIMUM}",
            )
        )
        partition_ok = True
        nontrivial = [
            p for p in enumerate_partitionings(obs_a) if not p.is_trivial
        ]
        nontrivial_b = [
            p for p in enumerate_partitionings(obs_b) if not p.is_trivial
        ]
        for pa in nontrivial:
            for pb in nontrivial_b:
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
    defaults: dict
    runner: object

    def run(self, overrides: dict | None, opts: FeasibilityOptions) -> ScenarioReport:
        params = dict(self.defaults)
        for key, value in (overrides or {}).items():
            if value is not None and key in params:
                params[key] = value
        exps, payload = self.runner(params, opts)
        return ScenarioReport(self.name, params, exps, payload)


REGISTRY = {
    s.name: s
    for s in (
        Scenario(
            "busch-boundary",
            "orthogonal unbiased qubit pair on the compatibility boundary",
            _CITE_PAIR,
            {"l": 1.0 / math.sqrt(2.0)},
            _run_busch_boundary,
        ),
        Scenario(
            "pairwise-not-triple",
            "orthogonal unbiased triple: pairwise compatible, globally not",
            _CITE_TRIPLE,
            {"l": 0.6},
            _run_pairwise_not_triple,
        ),
        Scenario(
            "unique-not-greatest",
            "unique boundary joint whose cells are not greatest lower bounds",
            _CITE_LB,
            {"l": 1.0 / math.sqrt(2.0), "t": 0.3, "gamma": 0.4},
            _run_unique_not_greatest,
        ),
        Scenario(
            "no-maximal-family",
            "gamma family of joints with opposite cell ordering (no maximal joint)",
            _CITE_GAMMA,
            {"anorm": 0.6, "beta": 0.4, "bad_gamma": 0.33},
            _run_no_maximal_family,
        ),
        Scenario(
            "partition-paradox",
            "all partitionings pairwise compatible while the joints are not",
            _CITE_PARTITION,
            {"l": 1.0 / math.sqrt(2.0)},
            _run_partition_paradox,
        ),
        Scenario(
            "commuting-sharp-product",
            "randomized commuting sharp pair and its product joint",
            _CITE_PRODUCT,
            {"dim": 4, "seed": 0},
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
