"""search workload: multi-start run_search calls.

Long calls, run once each before the timing: the solvable splits (3,9) with
6 restarts, (2,2) with 8 restarts at a seeded strict b in (1/16, 1/12) and
(4,16) with 4 restarts, all to the residual goal, and the stalled split
(3,8) with 2 restarts under a cap of 1000 iterations. They check the
results, give the iteration counts of the traced run and
search.default_tol_solved_frac, and their times are printed.

Timed calls: every split again, with several restarts each and an
iteration cap below the fewest iterations any restart needs, so every
restart runs to the cap. Three such calls per split, with seeded restart
seeds and b, take 20 to 65 ms each. Their time is the cost of the
iterations, the restarts and the gradient check of a call, which does not
depend on the seed. Work units are restarts.
"""

from __future__ import annotations

import semisic

from common import Context, Fail, Op, child_seed, rng_for
from oracle import strict_b

GOAL = 1e-12
GRADIENT_GATE = 1e-5
STALLED = (3, 8)

# (d, k, restarts) per solvable call, the stalled call's (restarts, cap) and
# (d, k, restarts, cap) per timed call
FULL = {"solvable": ((3, 9, 6), (2, 2, 8), (4, 16, 4)), "stalled": (2, 1000),
        "capped": ((3, 9, 4, 10), (3, 8, 4, 10), (2, 2, 4, 20), (4, 16, 2, 4))}
REDUCED = {"solvable": ((2, 2, 4),), "stalled": (1, 60),
           "capped": ((2, 2, 1, 5), (3, 8, 1, 5))}
CAPPED_GROUPS = 3  # timed calls per capped split

EXPECTED = {(3, 9): ("SIC", 9), (2, 2): ("StrictSemiSIC", 2), (4, 16): ("SIC", 16)}


def _monotone(report) -> bool:
    values = [f for _, f in report.objective_trace]
    return all(b <= a for a, b in zip(values, values[1:]))


def _common_checks(report) -> Fail | None:
    if not isinstance(report, semisic.SearchReport):
        return Fail(f"run_search raised {report!r}")
    if not _monotone(report):
        return Fail("objective trace is not monotone")
    if not report.gradient_check < GRADIENT_GATE:
        return Fail(f"gradient check {report.gradient_check:.3e} >= {GRADIENT_GATE}")
    if report.restarts_run != report.config.restarts:
        return Fail(f"ran {report.restarts_run} of {report.config.restarts} restarts")
    return None


def _check_solvable(report, tally) -> Fail | None:
    failure = _common_checks(report)
    if failure:
        return failure
    cfg = report.config
    if not report.best_residual < GOAL or report.best_povm is None:
        return Fail(f"({cfg.d},{cfg.k}) missed the residual goal: {report.best_residual:.3e}")
    got = (report.classification, report.observed_k)
    if got != EXPECTED[(cfg.d, cfg.k)]:
        return Fail(f"({cfg.d},{cfg.k}) hit classified as {got}")
    tally["search.solvable"] += 1
    strict = semisic.verify(report.best_povm)
    if strict.classification == EXPECTED[(cfg.d, cfg.k)][0]:
        tally["search.default_tol_solved"] += 1
    else:
        tally.cases.append(
            f"search ({cfg.d},{cfg.k}) seed {cfg.seed}: residual "
            f"{report.best_residual:.2e} fails verify at DEFAULT_TOL "
            f"({strict.classification}, violation {strict.max_violation:.2e})"
        )
    return None


def _capped_check(cap: int, stalled: bool):
    def check(report, tally) -> Fail | None:
        failure = _common_checks(report)
        if failure:
            return failure
        if stalled and (report.best_povm is not None or not report.best_residual >= GOAL):
            return Fail(f"stalled split reached the goal: {report.best_residual:.3e}")
        if any(it > cap for it in report.iterations_per_restart) or (
                stalled and any(it != cap for it in report.iterations_per_restart)):
            return Fail(f"restarts ran {report.iterations_per_restart} iterations, cap {cap}")
        return None
    return check


def _call(config):
    return lambda: semisic.run_search(config)


def make_long(ctx: Context) -> list[Op]:
    sizes = REDUCED if ctx.reduced else FULL
    rng = rng_for(ctx, 0)
    ops = []
    for i, (d, k, restarts) in enumerate(sizes["solvable"]):
        b = strict_b(rng) if d == 2 else None
        config = semisic.SearchConfig(d=d, k=k, b=b, restarts=restarts,
                                      seed=child_seed(ctx, 1, i), residual_goal=GOAL)
        ops.append(Op(f"search ({d},{k})", _call(config), _check_solvable, work=restarts))
    restarts, cap = sizes["stalled"]
    stalled = semisic.SearchConfig(d=STALLED[0], k=STALLED[1], restarts=restarts,
                                   max_iterations=cap, seed=child_seed(ctx, 2),
                                   residual_goal=GOAL)
    ops.append(Op("search (3,8) stalled", _call(stalled), _capped_check(cap, True),
                  work=restarts))
    return ops


def make_ops(ctx: Context) -> list[Op]:
    sizes = REDUCED if ctx.reduced else FULL
    rng = rng_for(ctx, 3)
    ops = []
    for g in range(CAPPED_GROUPS):
        for i, (d, k, restarts, cap) in enumerate(sizes["capped"]):
            config = semisic.SearchConfig(d=d, k=k, b=strict_b(rng) if d == 2 else None,
                                          restarts=restarts, max_iterations=cap,
                                          seed=child_seed(ctx, 4, g, i), residual_goal=GOAL)
            ops.append(Op(f"search ({d},{k}) capped at {cap}", _call(config),
                          _capped_check(cap, (d, k) == STALLED), work=restarts))
    order = rng.permutation(len(ops))
    return [ops[i] for i in order]
