"""The certified LP solve and the weighted-cover relaxation."""

import collections
import dataclasses
import hashlib
import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

from qlab import cli, lpbound
from qlab.boolfn import TruthTable, fmaj, table_to_text
from qlab.gadget import iterated_table
from qlab.lpbound import (
    CertificateError,
    LPSolution,
    RationalLP,
    build_prt_lp,
    prt_report,
    solve_exact,
)
from qlab.subcube import canonical_fmaj_partition, search_min_weight

F = Fraction


def lp(objective, rows, senses, rhs, names=None):
    names = names or tuple(f"x{k}" for k in range(len(objective)))
    return RationalLP(
        tuple(F(c) for c in objective),
        tuple(tuple(F(a) for a in row) for row in rows),
        tuple(senses),
        tuple(F(b) for b in rhs),
        tuple(names),
    )


def test_simplex_single_variable():
    sol = solve_exact(lp([1], [[1]], [">="], [3]))
    assert sol.status == "optimal"
    assert sol.value == 3
    assert sol.assignment == (F(3),)
    assert sol.dual == (F(1),)
    # with no rows the variable still has its column, and rests at 0
    sol = solve_exact(lp([1], [], [], []))
    assert (sol.status, sol.value, sol.assignment, sol.dual) == ("optimal", 0, (F(0),), ())


def test_simplex_small_mix():
    # min x + 2y with x + y >= 4, x <= 3: best is x = 3, y = 1
    sol = solve_exact(lp([1, 2], [[1, 1], [1, 0]], [">=", "<="], [4, 3]))
    assert sol.status == "optimal"
    assert sol.value == 5
    assert sol.assignment == (F(3), F(1))
    # the <= row carries a nonpositive multiplier
    assert sol.dual == (F(2), F(-1))
    assert sol.violation(lp([1, 2], [[1, 1], [1, 0]], [">=", "<="], [4, 3])) is None


def test_simplex_equality_row():
    # min 3x + y with x + y == 2, x >= 1/2
    problem = lp([3, 1], [[1, 1], [1, 0]], ["==", ">="], [2, F(1, 2)])
    sol = solve_exact(problem)
    assert sol.status == "optimal"
    assert sol.value == F(3, 2) + F(3, 2)  # x = 1/2, y = 3/2
    assert sol.assignment == (F(1, 2), F(3, 2))


def test_simplex_exact_fractions():
    # exactness shows in the optimum being a clean rational
    problem = lp([F(1, 3), F(1, 7)], [[2, 5]], [">="], [1])
    sol = solve_exact(problem)
    assert sol.status == "optimal"
    assert sol.value == F(1, 35)
    assert sol.assignment == (F(0), F(1, 5))


def test_simplex_detects_infeasible():
    sol = solve_exact(lp([1], [[1], [1]], ["<=", ">="], [1, 2]))
    assert sol.status == "infeasible"
    assert sol.value is None
    assert sol.dual is None


def test_simplex_detects_unbounded():
    sol = solve_exact(lp([-1], [[1]], [">="], [0]))
    assert sol.status == "unbounded"
    assert solve_exact(lp([-1], [], [], [])).status == "unbounded"


def test_simplex_degenerate_cycle_guard():
    # classic degeneracy: several tight rows at the origin
    problem = lp(
        [-F(3, 4), 150, -F(1, 50), 6],
        [
            [F(1, 4), -60, -F(1, 25), 9],
            [F(1, 2), -90, -F(1, 50), 3],
            [0, 0, 1, 0],
        ],
        ["<=", "<=", "<="],
        [0, 0, 1],
    )
    sol = solve_exact(problem)
    assert sol.status == "optimal"
    assert sol.value == -F(1, 20)
    assert sol.violation(problem) is None


def test_solution_verify_rejects_bad_assignment():
    problem = lp([1], [[1]], [">="], [3])
    bad = LPSolution("optimal", F(2), (F(2),), (F(2, 3),), 0)
    assert bad.violation(problem) is not None
    assert "primal row 0" in bad.violation(problem)


def test_verify_checks_primal_feasibility():
    problem = lp([1, 1], [[1, 1]], [">="], [1])

    def certificate(x):
        value = sum(x, F(0))
        return LPSolution("optimal", value, tuple(x), (value,), 0)

    assert certificate([F(1), F(0)]).violation(problem) is None
    assert "primal row 0" in certificate([F(1, 4), F(1, 4)]).violation(problem)
    assert "< 0" in certificate([F(-1), F(3)]).violation(problem)


def fmaj_certificate(eps):
    problem = build_prt_lp(fmaj(), eps)
    sol = solve_exact(problem)
    assert sol.violation(problem) is None
    return problem, sol


def test_solve_returns_a_primal_dual_certificate():
    problem, sol = fmaj_certificate(F(1, 3))
    assert sol.value == 14
    assert sum((b * y for b, y in zip(problem.rhs, sol.dual)), F(0)) == 14
    assert len(sol.dual) == problem.num_constraints
    # every >= row (the cover rows) carries a nonnegative multiplier
    assert all(y >= 0 for y, s in zip(sol.dual, problem.senses) if s == ">=")
    assert sol.pivots > 0


# sha256 of the gadget's dual witness, its entries joined by spaces
DUAL_SHA256 = {
    F(0): "6731e236017300858268f91bcd70724be2afa9585af0164021c158c3d27393d7",
    F(1, 3): "c7a5faa9481e336619e7c9519e3829d667ac278bf7fe9a3e5d3c9abd18961edd",
}


@pytest.mark.parametrize("eps", list(DUAL_SHA256))
def test_gadget_dual_witness_is_pinned(eps):
    _, sol = fmaj_certificate(eps)
    assert hashlib.sha256(" ".join(map(str, sol.dual)).encode()).hexdigest() == DUAL_SHA256[eps]


def test_verify_rejects_a_perturbed_dual_entry():
    problem, sol = fmaj_certificate(F(0))
    for i, y in enumerate(sol.dual):
        dual = list(sol.dual)
        dual[i] = y + F(1, 1000)
        assert dataclasses.replace(sol, dual=tuple(dual)).violation(problem) is not None


def test_verify_rejects_a_dropped_primal_entry():
    problem, sol = fmaj_certificate(F(1, 3))
    for j, v in enumerate(sol.assignment):
        if v:
            x = list(sol.assignment)
            x[j] = F(0)
            assert dataclasses.replace(sol, assignment=tuple(x)).violation(problem) is not None


def test_verify_rejects_a_dual_that_breaks_one_reduced_cost():
    # min x + y with x >= 1, y >= 1: the dual (2, 0) keeps the signs and
    # the objective 2 but prices x above its cost
    problem = lp([1, 1], [[1, 0], [0, 1]], [">=", ">="], [1, 1])
    good = LPSolution("optimal", F(2), (F(1), F(1)), (F(1), F(1)), 0)
    assert good.violation(problem) is None
    bad = dataclasses.replace(good, dual=(F(2), F(0)))
    assert bad.violation(problem) == "reduced cost of x0 is -1 < 0"


def test_verify_rejects_a_dual_of_the_wrong_sign():
    problem = lp([1, 2], [[1, 1], [1, 0]], [">=", "<="], [4, 3])
    sol = solve_exact(problem)
    bad = dataclasses.replace(sol, dual=(F(2), F(1)))
    assert "wrong sign" in bad.violation(problem)


def test_verify_rejects_unequal_objectives():
    problem = lp([1], [[1]], [">="], [3])
    sol = solve_exact(problem)
    assert "objectives differ" in dataclasses.replace(sol, value=F(4)).violation(problem)
    # a feasible dual of lower value proves nothing about optimality
    weak = dataclasses.replace(sol, dual=(F(1, 2),))
    assert "objectives differ" in weak.violation(problem)


def test_feasible_basis_that_is_not_optimal_raises(monkeypatch):
    # with phase 2 skipped, the gadget's relaxation ends at phase 1's
    # final basis: feasible, but not optimal for the real objective
    minimize = lpbound._Basis.minimize

    def phase_1_only(basis, cost, allowed):
        return allowed < len(cost) or minimize(basis, cost, allowed)

    monkeypatch.setattr(lpbound._Basis, "minimize", phase_1_only)
    with pytest.raises(CertificateError, match="reduced cost"):
        solve_exact(build_prt_lp(fmaj(), F(1, 3)))


def carried_vectors_checked(problem, monkeypatch):
    """Solve problem, checking after every pivot that the carried x_B
    (inv's last column) and priced dual y_B (its last row) equal inv @ b
    and c_B @ inv recomputed in full; the number of pivots checked."""
    pivot, checked = lpbound._Basis.pivot, []
    b = lpbound._over_lcm(problem.rhs)[1]

    def checked_pivot(basis, r, j, g):
        pivot(basis, r, j, g)
        m = len(basis.basic)
        inv = [row[:m] for row in basis.inv[:m]]
        xb = [sum(a * v for a, v in zip(row, b)) for row in inv]
        assert [row[m] for row in basis.inv[:m]] == xb
        cost_b = [basis.priced[j] for j in basis.basic]
        yb = [sum(c * row[i] for c, row in zip(cost_b, inv)) for i in range(m)]
        assert basis.inv[m] == yb + [sum(c * v for c, v in zip(cost_b, xb))]
        checked.append(j)

    with monkeypatch.context() as patch:
        patch.setattr(lpbound._Basis, "pivot", checked_pivot)
        sol = solve_exact(problem)
    assert sol.violation(problem) is None and sol.pivots == len(checked)
    return len(checked)


@pytest.mark.parametrize("eps, pivots", [(F(0), 141), (F(1, 3), 164)])
def test_carried_vectors_match_a_full_recomputation_on_the_gadget(eps, pivots, monkeypatch):
    assert carried_vectors_checked(build_prt_lp(fmaj(), eps), monkeypatch) == pivots


def test_carried_vectors_match_a_full_recomputation_on_random_tables(monkeypatch):
    rng = random.Random(45)
    for _ in range(20):
        n = rng.randint(1, 3)
        table = TruthTable(n, rng.getrandbits(1 << n))
        eps = F(rng.randrange(50), 100)
        assert carried_vectors_checked(build_prt_lp(table, eps), monkeypatch) > 0


# programs whose reduced costs or gaps lie within 10**-9 of zero: a solver
# that reads entries that small as zero gets each of them wrong
TINY = F(1, 10**12)
NEAR_ZERO = [
    pytest.param(lp([-TINY], [[1]], ["<="], [1]), "optimal", -TINY, id="optimal"),
    pytest.param(lp([-TINY], [[1]], [">="], [0]), "unbounded", None, id="unbounded"),
    pytest.param(lp([1], [[1], [1]], ["<=", ">="], [1, 1 + TINY]), "infeasible", None, id="infeasible"),
    pytest.param(
        lp([1, -10 * TINY], [[1, -TINY], [0, 1]], [">=", "<="], [0, 1]),
        "optimal",
        -9 * TINY,
        id="reduced-cost",
    ),
]


@pytest.mark.parametrize("problem, status, value", NEAR_ZERO)
def test_programs_near_zero_are_solved_exactly(problem, status, value):
    sol = solve_exact(problem)
    assert (sol.status, sol.value) == (status, value)
    assert sol.violation(problem) is None


def test_repeated_column_program_is_certified():
    # x0 and x1 have the same column, so no basis holds both
    problem = lp([1, 1, 1], [[1, 1, 5], [2, 2, 7]], ["==", "=="], [1, 2])
    sol = solve_exact(problem)
    assert sol.violation(problem) is None
    assert (sol.assignment, sol.dual, sol.value) == ((F(1), F(0), F(0)), (F(-5, 3), F(4, 3)), 1)


def test_relaxation_shape():
    problem = build_prt_lp(fmaj(), F(0))
    assert problem.num_vars == 162
    assert len(problem.rows) == 32
    assert len(set(problem.var_names)) == 162
    # one cover row and one total row per input
    assert problem.senses.count(">=") == 16
    assert problem.senses.count("==") == 16


def reference_prt_lp(table, eps):
    """The relaxation by its definition: one variable per pattern over
    01* and label, and per input x a cover row over the correctly
    labeled patterns through x and a total row over all of them, with
    containment tested bitwise on each pattern's mask and fixed bits."""
    n = table.n
    patterns = ["".join(t) for t in itertools.product("01*", repeat=n)]
    names = [f"w[{p},{z}]" for p in patterns for z in (0, 1)]
    objective = [2 ** (n - p.count("*")) for p in patterns for z in (0, 1)]
    rows = []
    for x in range(1 << n):
        inside = [
            x & int(p.replace("0", "1").replace("*", "0"), 2) == int(p.replace("*", "0"), 2)
            for p in patterns
        ]
        rows.append([int(i and z == table.bit(x)) for i in inside for z in (0, 1)])
        rows.append([int(i) for i in inside for z in (0, 1)])
    return names, objective, rows, [1 - eps, 1] * (1 << n)


SMALL_TABLES = [
    TruthTable.from_values(n, list(values))
    for n in (1, 2)
    for values in itertools.product((0, 1), repeat=1 << n)
] + [fmaj()]


@pytest.mark.parametrize("eps", [F(0), F(1, 3)])
def test_relaxation_rows_match_their_definition(eps):
    for table in SMALL_TABLES:
        problem = build_prt_lp(table, eps)
        names, objective, rows, rhs = reference_prt_lp(table, eps)
        assert list(problem.var_names) == names
        assert list(problem.objective) == objective
        assert [list(row) for row in problem.rows] == rows
        assert list(problem.rhs) == rhs
        assert problem.senses == (">=", "==") * table.size
        # plain integers, not Fractions, in the objective and the rows
        assert {type(c) for c in problem.objective} == {int}
        assert {type(a) for row in problem.rows for a in row} == {int}


def test_relaxation_rejects_bad_inputs():
    with pytest.raises(ValueError):
        build_prt_lp(iterated_table(2), F(0))
    with pytest.raises(ValueError):
        build_prt_lp(fmaj(), F(1, 2))
    with pytest.raises(ValueError):
        build_prt_lp(fmaj(), F(-1, 10))


def test_canonical_partition_is_feasible_at_zero_error():
    problem, sol = fmaj_certificate(F(0))
    # unit weight on each labeled part of the canonical partition
    index = {name: k for k, name in enumerate(problem.var_names)}
    x = [F(0)] * problem.num_vars
    for pat, z in canonical_fmaj_partition().entries:
        x[index[f"w[{pat.text},{z}]"]] = F(1)
    value = sum((c * v for c, v in zip(problem.objective, x)), F(0))
    assert value == 64
    # with the solver's dual it is a full certificate: the partition is
    # feasible, and optimal among fractional covers
    assert dataclasses.replace(sol, assignment=tuple(x)).violation(problem) is None


def test_zero_error_relaxation_value():
    rep = prt_report(fmaj(), F(0))
    assert rep.num_vars == 162
    assert rep.num_constraints == 32
    # a feasible partition with weight 64 exists, so 64 is an upper bound;
    # the simplex optimum matching it pins the value
    assert rep.value == 64
    assert rep.dual_value == 64
    assert rep.half_log2 == 3.0


def test_relaxation_value_drops_with_error():
    rep0 = prt_report(fmaj(), F(0))
    rep3 = prt_report(fmaj(), F(1, 3))
    assert rep3.value <= rep0.value
    assert rep3.value == 14  # regression, certificate-checked by the solver
    assert rep3.dual_value == 14
    rep6 = prt_report(fmaj(), F(1, 6))
    assert rep3.value <= rep6.value <= rep0.value


def test_public_coin_report_matches_search():
    # at eps = 0 the public-coin value is the search's minimum weight
    weight = search_min_weight(fmaj()).weight
    assert weight == 64
    # relaxing to fractional weights cannot increase the optimum
    assert prt_report(fmaj(), F(0)).value <= weight


def test_relaxation_on_tiny_functions():
    # constant: the free pattern alone is feasible, value 1
    const = TruthTable(2, 0b1111)
    rep = prt_report(const, F(0))
    assert rep.value == 1
    # single-variable projection f(x1, x2) = x1 needs both halves
    proj = TruthTable.from_values(2, [0, 0, 1, 1])
    rep = prt_report(proj, F(0))
    assert rep.value == 4


# values of an exact Fraction tableau simplex, on the gadget and on a
# handful of random tables
PINNED = [
    (fmaj(), F(1, 6), F(39)),
    (TruthTable.from_values(1, [1, 0]), F(1, 3), F(2)),
    (TruthTable.from_values(2, [0, 0, 0, 1]), F(2, 7), F(4)),
    (TruthTable.from_values(2, [1, 0, 0, 1]), F(1, 999983), F(15999698, 999983)),
    (TruthTable.from_values(3, [1, 1, 0, 0, 0, 0, 1, 0]), F(2, 7), F(149, 14)),
    (TruthTable.from_values(3, [1, 1, 1, 1, 0, 1, 0, 1]), F(1, 5), F(29, 5)),
    (TruthTable.from_values(3, [0, 1, 0, 1, 1, 1, 1, 0]), F(2, 7), F(149, 14)),
    (TruthTable.from_values(3, [0, 1, 1, 1, 1, 1, 1, 0]), F(49, 100), F(29, 20)),
    (TruthTable.from_values(3, [1, 1, 1, 1, 1, 1, 0, 1]), F(1, 5), F(53, 5)),
]


@pytest.mark.parametrize("table, eps, value", PINNED)
def test_relaxation_values_are_pinned(table, eps, value):
    rep = prt_report(table, eps)
    assert rep.value == rep.dual_value == value


# HiGHS as a reference: the in-package simplex must agree with it on
# status and value.  Presolve is off because on some small feasible,
# unbounded programs HiGHS's presolve reports infeasible.
HIGHS_STATUS = {0: "optimal", 2: "infeasible", 3: "unbounded"}


def highs(problem):
    """HiGHS's status and value on problem."""
    from scipy.optimize import LinearConstraint, milp

    a = np.array(problem.rows, dtype=float).reshape(problem.num_constraints, problem.num_vars)
    b = np.array(problem.rhs, dtype=float)
    senses = np.array(problem.senses)
    rows = LinearConstraint(
        a, np.where(senses == "<=", -np.inf, b), np.where(senses == ">=", np.inf, b)
    )
    c = np.array(problem.objective, dtype=float)
    res = milp(c, constraints=rows, options={"presolve": False})
    return HIGHS_STATUS[res.status], res.fun


def assert_matches_highs(problem, rel=1e-9):
    status, value = highs(problem)
    sol = solve_exact(problem)
    assert sol.status == status
    if sol.status == "optimal":
        assert float(sol.value) == pytest.approx(value, rel=rel, abs=1e-9)
    return sol


# the pivots by Bland's rule summed over the 256 relaxations with n <= 3,
# which pins the simplex's path through every one of them
SMALL_FUNCTION_PIVOTS = {F(0): 12456, F(1, 3): 12303, F(1, 7): 11487}


@pytest.mark.parametrize("eps", list(SMALL_FUNCTION_PIVOTS))
def test_relaxation_matches_highs_on_every_small_function(eps):
    pivots = 0
    for n in (1, 2, 3):
        for values in itertools.product((0, 1), repeat=1 << n):
            table = TruthTable.from_values(n, list(values))
            sol = assert_matches_highs(build_prt_lp(table, eps))
            assert sol.status == "optimal"
            pivots += sol.pivots
    assert pivots == SMALL_FUNCTION_PIVOTS[eps]


# eps close to 0 or 1/2, where the optimum at that end is a vertex whose
# entries are off by about eps
NEAR_END_PIVOTS = {F(1, 10**9): 121, F(1, 10**12): 121, F(1, 10**30): 121, F(1, 2) - F(1, 10**10): 175}


@pytest.mark.parametrize("eps", list(NEAR_END_PIVOTS))
def test_gadget_certifies_near_the_ends_of_eps(eps, tmp_path, capsys):
    (tmp_path / "f.tt").write_text(table_to_text(fmaj()))
    code = cli.main(["bound", "prt", "--table", str(tmp_path / "f.tt"), "--eps", str(eps)])
    got = dict(line.split(": ", 1) for line in capsys.readouterr().out.splitlines())
    assert (code, got["certificate"]) == (0, "pass")
    assert int(got["pivots"]) == NEAR_END_PIVOTS[eps]
    assert got["value"] == got["dual-value"]
    status, value = highs(build_prt_lp(fmaj(), eps))
    assert status == "optimal" and float(F(got["value"])) == pytest.approx(value, rel=1e-6)


@pytest.mark.parametrize("eps", [F(1, 10**10), F(1, 2) - F(1, 10**10)])
def test_relaxation_matches_highs_near_the_ends_of_eps(eps):
    for bits in range(7, 256, 16):
        problem = build_prt_lp(TruthTable(3, bits), eps)
        assert assert_matches_highs(problem, rel=1e-6).status == "optimal"


def test_relaxation_matches_highs_on_sampled_four_variable_functions():
    rng = random.Random(14)
    for _ in range(20):
        table = TruthTable.from_values(4, [rng.randrange(2) for _ in range(16)])
        sol = assert_matches_highs(build_prt_lp(table, F(rng.randrange(50), 100)))
        assert sol.status == "optimal"


def fraction(rng):
    return F(rng.randint(-6, 6), rng.choice((1, 2, 3, 4, 6)))


# (objective entry, row and rhs entry): small integers, or fractions
# whose columns, rhs and objective the simplex scales to integers
RANDOM_DRAWS = {
    "integer": (lambda rng: rng.randint(-1, 3), lambda rng: rng.randint(-3, 3)),
    "fractional": (fraction, fraction),
}


@pytest.mark.parametrize("cost, entry", list(RANDOM_DRAWS.values()), ids=list(RANDOM_DRAWS))
def test_solver_matches_highs_on_random_programs(cost, entry):
    # 1 to 5 rows and columns with mixed senses, among them degenerate
    # vertices and redundant rows
    rng = random.Random(2007)
    seen = collections.Counter()
    for _ in range(300):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        problem = lp(
            [cost(rng) for _ in range(n)],
            [[entry(rng) for _ in range(n)] for _ in range(m)],
            [rng.choice(("<=", ">=", "==")) for _ in range(m)],
            [entry(rng) for _ in range(m)],
        )
        seen[assert_matches_highs(problem).status] += 1
    assert min(seen[s] for s in HIGHS_STATUS.values()) >= 30
