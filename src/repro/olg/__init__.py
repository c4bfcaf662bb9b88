"""Stochastic overlapping-generations (OLG) public finance model.

This is the economic application of the paper (Sec. II and V-D): agents live
``A`` periods, face stochastic aggregate shocks and stochastic tax regimes
(``Ns`` discrete states), pay labor and capital income taxes that fund a
pay-as-you-go pension, and trade a single capital asset.  The continuous
state is ``x = (k_2, ..., k_A)`` — the capital holdings of every generation
but the newborn, aggregate capital being their sum — so the problem
dimension is ``d = A - 1`` (59 for the paper's annual calibration with
``A = 60``), on a box with per-generation bounds around the steady-state
life-cycle profile.  :data:`STATE_CONVENTION` names these coordinates.

Module map
----------
* :mod:`repro.olg.calibration` — parameter containers and the paper /
  scaled-down calibrations.
* :mod:`repro.olg.markov` — discrete shock processes (Markov chains,
  Rouwenhorst discretisation, tensor products of shock components).
* :mod:`repro.olg.preferences` — CRRA utility with a smooth extension below
  the consumption floor (keeps Newton solvers well behaved).
* :mod:`repro.olg.production` — Cobb-Douglas technology and factor prices.
* :mod:`repro.olg.government` — taxes, pension benefits, lump-sum rebates.
* :mod:`repro.olg.euler` — the household problem in rows form: the one
  implementation of the period environment, the Euler residuals, the
  Bellman update and the point solve.
* :mod:`repro.olg.model` — the :class:`OLGModel` implementing the
  time-iteration model protocol as scalar/batch adapters over its Euler
  system, plus the Euler-equation accuracy metrics.
* :mod:`repro.olg.stacked` — several structurally equal models stacked
  row-wise into one Euler system (cross-scenario batching).
* :mod:`repro.olg.solver` — batched damped Newton for the per-grid-point
  nonlinear systems (the paper uses Ipopt).
* :mod:`repro.olg.simulation` — forward simulation of the solved economy.
"""

from repro.olg.calibration import OLGCalibration, small_calibration, paper_calibration
from repro.olg.markov import MarkovChain, rouwenhorst, tensor_chain, persistent_chain
from repro.olg.preferences import CRRAUtility
from repro.olg.production import CobbDouglasTechnology
from repro.olg.government import FiscalPolicy
from repro.olg.euler import STATE_CONVENTION
from repro.olg.model import OLGModel
from repro.olg.solver import NewtonSolver, PointSolveResult
from repro.olg.simulation import simulate_economy, SimulationResult
from repro.olg.steady_state import deterministic_steady_state, lifecycle_profile
from repro.olg.welfare import compare_states, consumption_equivalent, ergodic_welfare

__all__ = [
    "deterministic_steady_state",
    "lifecycle_profile",
    "compare_states",
    "consumption_equivalent",
    "ergodic_welfare",
    "OLGCalibration",
    "small_calibration",
    "paper_calibration",
    "MarkovChain",
    "rouwenhorst",
    "tensor_chain",
    "persistent_chain",
    "CRRAUtility",
    "CobbDouglasTechnology",
    "FiscalPolicy",
    "OLGModel",
    "STATE_CONVENTION",
    "NewtonSolver",
    "PointSolveResult",
    "simulate_economy",
    "SimulationResult",
]
