#!/usr/bin/env python3
"""Public-finance application: a stochastic OLG economy with tax-regime risk.

This is a scaled-down version of the paper's economic application (Sec. II /
V-D): agents live ``A`` periods, face aggregate productivity shocks *and*
stochastic labor-tax regimes, pay capital taxes, and receive a pay-as-you-go
pension.  The example

1. solves the model globally by time iteration on per-state sparse grids,
2. reports Euler-equation accuracy and the per-state grid sizes,
3. simulates the economy and compares the low-tax and high-tax regimes
   (capital, wages, pensions and the welfare of newborns).

Run:  python examples/olg_public_finance.py           (about a second)
      python examples/olg_public_finance.py --fast    (smaller economy)
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from repro.core.time_iteration import TimeIterationConfig, TimeIterationSolver
from repro.olg.calibration import small_calibration
from repro.olg.model import OLGModel
from repro.olg.simulation import simulate_economy


def solve_economy(num_generations: int) -> tuple[OLGModel, object]:
    calibration = small_calibration(
        num_generations=num_generations,
        num_states=2,
        stochastic_taxes=True,   # doubles the state count: (low, high) labor tax
        beta=0.8,
        tau_labor=0.10,
        tau_capital=0.10,
    )
    model = OLGModel(calibration)
    print(
        f"model: A = {calibration.num_generations} generations, "
        f"Ns = {calibration.num_states} discrete states, "
        f"d = {model.state_dim} continuous dimensions, "
        f"{model.num_policies} policy coefficients per grid point"
    )
    config = TimeIterationConfig(
        grid_level=2,
        tolerance=1e-3,
        max_iterations=40,
        adaptive=True,
        refine_epsilon=8e-2,
        max_refine_level=3,
        max_points_per_state=200,
    )
    solver = TimeIterationSolver(model, config)
    t0 = time.perf_counter()
    result = solver.solve()
    elapsed = time.perf_counter() - t0
    print(
        f"time iteration: {result.iterations} iterations, converged = {result.converged}, "
        f"{elapsed:.1f} s, points per state = {result.policy.points_per_state}"
    )
    return model, result


def report_accuracy(model: OLGModel, result) -> None:
    lower, upper = model.domain.lower, model.domain.upper
    margin = 0.2 * (upper - lower)
    inner = model.domain.__class__(lower + margin, upper - margin)
    errors = model.equilibrium_errors(result.policy, inner.sample(40, rng=1))
    print(
        f"euler errors on an interior sample: "
        f"L2 = {errors['l2']:.3e}, Linf = {errors['linf']:.3e}, "
        f"mean log10 = {errors['mean_log10']:.2f}"
    )


def compare_tax_regimes(model: OLGModel, result) -> None:
    cal = model.calibration
    taus = cal.shocks.label("tau_labor")
    low_states = np.flatnonzero(taus == taus.min())
    high_states = np.flatnonzero(taus == taus.max())
    print(f"\nlabor tax regimes: low = {taus.min():.2f}, high = {taus.max():.2f}")

    sim = simulate_economy(model, result.policy, periods=2_000, rng=0, burn_in=200)
    in_low = np.isin(sim.shocks, low_states)
    in_high = np.isin(sim.shocks, high_states)
    pension_low = sim.pension[in_low].mean() if in_low.any() else float("nan")
    pension_high = sim.pension[in_high].mean() if in_high.any() else float("nan")
    print(f"{'':>28} {'low-tax regime':>15} {'high-tax regime':>16}")
    print(
        f"{'mean capital':>28} "
        f"{sim.capital[in_low].mean():>15.3f} {sim.capital[in_high].mean():>16.3f}"
    )
    print(f"{'mean wage':>28} {sim.wages[in_low].mean():>15.3f} {sim.wages[in_high].mean():>16.3f}")
    print(f"{'mean pension benefit':>28} {pension_low:>15.3f} {pension_high:>16.3f}")
    print(f"{'mean aggregate consumption':>28} "
          f"{sim.consumption[in_low].sum(axis=1).mean():>15.3f} "
          f"{sim.consumption[in_high].sum(axis=1).mean():>16.3f}")

    # welfare of a newborn at the mean simulated state, by regime
    x_bar = sim.states.mean(axis=0)
    welfare = []
    for states in (low_states, high_states):
        values = [
            np.asarray(result.policy.evaluate(int(z), x_bar)).reshape(-1)[model.num_savers]
            for z in states
        ]
        welfare.append(float(np.mean(values)))
    print(f"{'newborn value function':>28} {welfare[0]:>15.3f} {welfare[1]:>16.3f}")
    print(
        "\nhigher labor taxes fund larger pensions but depress newborn welfare and\n"
        "private savings — the trade-off the stochastic public-finance model captures."
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--fast", action="store_true", help="use a smaller economy")
    parser.add_argument("--generations", type=int, default=None, help="number of generations A")
    args = parser.parse_args()
    generations = args.generations or (4 if args.fast else 6)

    model, result = solve_economy(generations)
    report_accuracy(model, result)
    compare_tax_regimes(model, result)


if __name__ == "__main__":
    main()
