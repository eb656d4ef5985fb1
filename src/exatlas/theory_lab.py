"""Synthetic verification of the three-term composition error bound.

Worlds use a quadratic effect surface mu(m) = c + g.m + 0.5 m'Qm so the
smoothness constants are exact rather than estimated: the operator norm of Q
is the curvature constant by construction, and the Lipschitz constant is the
closed-form supremum of the gradient over the sampling ball. The bound check
can then fail only if the bound itself were wrong.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Mapping, Sequence

import numpy as np

SIMPLEX_TOL = 1e-6
BOUND_TOL = 1e-9


class TheoryLabError(Exception):
    pass


@dataclass(frozen=True)
class SyntheticWorld:
    """Latent points with a known quadratic effect surface and bounded noise.

    ``tau_i = mu(m_i) + noise_i`` with ``|noise_i| <= noise_bound`` and
    ``mu(m) = intercept + gradient.m + 0.5 m'Qm``.
    """

    latent_dim: int
    points: np.ndarray          # (n, d)
    intercept: float
    gradient: np.ndarray        # (d,)
    curvature: np.ndarray       # (d, d), symmetric, op norm == hessian_H
    lipschitz_L: float
    hessian_H: float
    noise_bound: float
    noises: np.ndarray          # (n,)
    region_radius: float
    seed: int

    def __post_init__(self) -> None:
        if self.points.shape[0] != self.noises.shape[0]:
            raise TheoryLabError("one noise per point required")
        if self.noise_bound < 0 or np.abs(self.noises).max(initial=0.0) > self.noise_bound + 1e-15:
            raise TheoryLabError("noises exceed the declared bound")
        op = float(np.linalg.norm(self.curvature, ord=2)) if self.curvature.size else 0.0
        if op > self.hessian_H * (1 + 1e-12) + 1e-15:
            raise TheoryLabError("curvature operator norm exceeds the declared bound")

    @property
    def n_points(self) -> int:
        return int(self.points.shape[0])

    def surface(self, m: np.ndarray) -> float:
        m = np.asarray(m, dtype=float)
        return float(self.intercept + self.gradient @ m + 0.5 * m @ self.curvature @ m)

    def effect(self, i: int) -> float:
        return self.surface(self.points[i]) + float(self.noises[i])


def sample_world(seed: int, n: int, d: int, curvature_bound: float,
                 noise_bound: float, region_radius: float = 1.0) -> SyntheticWorld:
    """Draw a world fully determined by the seed.

    Points are uniform in the ball of the given radius. The quadratic term is
    drawn symmetric and rescaled so its operator norm equals the curvature
    bound exactly (zero bound means an affine surface). The Lipschitz constant
    is the exact supremum of ||gradient + Q m|| over the ball:
    ||g|| + H * radius.
    """
    if n < 3:
        raise ValueError("need at least 3 points")
    if d < 1:
        raise ValueError("latent dimension must be >= 1")
    if curvature_bound < 0 or noise_bound < 0:
        raise ValueError("curvature and noise bounds must be >= 0")
    if region_radius <= 0:
        raise ValueError("region radius must be > 0")
    rng = np.random.default_rng(seed)
    directions = rng.standard_normal((n, d))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    radii = region_radius * rng.uniform(0.0, 1.0, size=n) ** (1.0 / d)
    points = directions * radii[:, None]
    intercept = float(rng.standard_normal())
    gradient = rng.standard_normal(d)
    raw = rng.standard_normal((d, d))
    sym = 0.5 * (raw + raw.T)
    if curvature_bound > 0:
        sym *= curvature_bound / float(np.linalg.norm(sym, ord=2))
    else:
        sym = np.zeros((d, d))
    lipschitz = float(np.linalg.norm(gradient)) + curvature_bound * region_radius
    noises = rng.uniform(-noise_bound, noise_bound, size=n)
    return SyntheticWorld(
        latent_dim=d,
        points=points,
        intercept=intercept,
        gradient=gradient,
        curvature=sym,
        lipschitz_L=lipschitz,
        hessian_H=float(curvature_bound),
        noise_bound=float(noise_bound),
        noises=noises,
        region_radius=float(region_radius),
        seed=int(seed),
    )


@dataclass(frozen=True)
class BoundReport:
    """Realized composition error against its three-term bound.

    holds <=> realized_error <= bound + 1e-9; slack = bound - realized_error.
    """

    realized_error: float
    term_extrapolation: float
    term_curvature: float
    term_residual: float
    bound: float
    holds: bool
    slack: float


def _validate_weights(world: SyntheticWorld, target_index: int,
                      weights: Mapping[int, float]) -> dict[int, float]:
    w = {int(k): float(v) for k, v in weights.items()}
    if target_index in w:
        raise TheoryLabError("weights must not include the target index")
    if any(k < 0 or k >= world.n_points for k in w):
        raise TheoryLabError("weight index out of range")
    if any(v < -SIMPLEX_TOL for v in w.values()):
        raise TheoryLabError("negative weight beyond tolerance")
    total = math.fsum(w.values())
    if abs(total - 1.0) > SIMPLEX_TOL:
        raise TheoryLabError(f"weights sum to {total}, not 1")
    return w


def check_bound(world: SyntheticWorld, target_index: int,
                weights: Mapping[int, float]) -> BoundReport:
    """Evaluate the three bound terms and the realized error from ground truth."""
    w = _validate_weights(world, target_index, weights)
    idx = sorted(w)
    alpha = np.asarray([w[i] for i in idx])
    sources = world.points[idx]
    m_t = world.points[target_index]
    m_bar = alpha @ sources
    eps_t = m_t - m_bar

    tau_t = world.effect(target_index)
    tau_comp = float(math.fsum(w[i] * world.effect(i) for i in idx))
    realized = abs(tau_t - tau_comp)

    term_extrapolation = world.lipschitz_L * float(np.linalg.norm(eps_t))
    sq_spread = np.sum((sources - m_bar) ** 2, axis=1)
    term_curvature = 0.5 * world.hessian_H * float(alpha @ sq_spread)
    noise_t = float(world.noises[target_index])
    term_residual = abs(noise_t - float(math.fsum(w[i] * world.noises[i] for i in idx)))
    bound = term_extrapolation + term_curvature + term_residual
    return BoundReport(
        realized_error=realized,
        term_extrapolation=term_extrapolation,
        term_curvature=term_curvature,
        term_residual=term_residual,
        bound=bound,
        holds=realized <= bound + BOUND_TOL,
        slack=bound - realized,
    )


DEFAULT_CURVATURES = (0.0, 0.1, 1.0, 10.0)
DEFAULT_NOISE_BOUNDS = (0.0, 0.01, 0.1)
DEFAULT_DIMS = (2, 8, 32)


@dataclass(frozen=True)
class SweepRow:
    seed: int
    curvature_bound: float
    noise_bound: float
    latent_dim: int
    report: BoundReport
    residual_ok: bool

    def to_csv_row(self) -> list[Any]:
        return [
            self.seed, self.curvature_bound, self.noise_bound, self.latent_dim,
            self.report.realized_error, self.report.bound, self.report.slack,
            int(self.report.holds), int(self.residual_ok),
        ]


CSV_HEADER = ["seed", "H", "delta", "d", "realized_error", "bound", "slack",
              "holds", "residual_ok"]


def bound_sweep(base_seed: int = 0,
                curvatures: Sequence[float] = DEFAULT_CURVATURES,
                noise_bounds: Sequence[float] = DEFAULT_NOISE_BOUNDS,
                dims: Sequence[int] = DEFAULT_DIMS,
                triples_per_cell: int = 28,
                n_points: int = 12) -> list[SweepRow]:
    """Random (world, target, weights) triples across the parameter sweep.

    Weights are Dirichlet draws over the non-target points, so they span
    spread-out and concentrated compositions.
    """
    rows: list[SweepRow] = []
    seed = base_seed
    for h in curvatures:
        for delta in noise_bounds:
            for d in dims:
                for _ in range(triples_per_cell):
                    seed += 1
                    world = sample_world(seed, n_points, d, h, delta)
                    rng = np.random.default_rng(seed + 10_000_019)
                    target = int(rng.integers(world.n_points))
                    others = [i for i in range(world.n_points) if i != target]
                    alpha = rng.dirichlet(np.full(len(others), 0.5))
                    weights = dict(zip(others, alpha))
                    report = check_bound(world, target, weights)
                    rows.append(SweepRow(
                        seed=seed,
                        curvature_bound=h,
                        noise_bound=delta,
                        latent_dim=d,
                        report=report,
                        residual_ok=report.term_residual <= 2 * delta + 1e-12,
                    ))
    return rows
