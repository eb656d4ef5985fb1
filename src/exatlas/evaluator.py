"""Leave-one-out evaluation, prediction metrics, and threshold calibration.

:func:`loo_run` gives one :class:`TargetResult` per target, by default every
archive member. The report, the calibration curve and the atlas
(:mod:`exatlas.atlas`) all read that list.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Mapping, Sequence

import numpy as np

from .archive import Archive
from .composer import ComposerConfig, Composition, FeatureStore, assess_rows


class EvaluatorError(Exception):
    pass


class InsufficientDataError(EvaluatorError):
    """Not enough composable results to compute the requested metric."""


def sign(x: float) -> int:
    """Three-valued sign; zero is its own direction."""
    return (x > 0) - (x < 0)


def sign_match(pred: float, obs: float) -> bool:
    """True iff the two effects point the same way; zero matches only zero."""
    if not (math.isfinite(pred) and math.isfinite(obs)):
        raise ValueError("sign_match requires finite effects")
    return sign(pred) == sign(obs)


@dataclass(frozen=True)
class TargetResult:
    """One held-out target: its composition from the rest of the archive and
    its observed effect. The prediction, rho, gate outcome and route are read
    off those two, never stored again. ``sign_matched`` is present exactly
    when the target is composable.
    """

    composition: Composition
    observed_effect: float

    @property
    def target_id(self) -> str:
        return self.composition.target_id

    @property
    def predicted_effect(self) -> float:
        return float(self.composition.composed_effect)

    @property
    def rho(self) -> float:
        return self.composition.normalized_residual

    @property
    def composable(self) -> bool:
        return self.composition.composable

    @property
    def sign_matched(self) -> bool | None:
        return sign_match(self.predicted_effect, self.observed_effect) if self.composable else None

    @property
    def status(self) -> str:
        """The target's route: ``"gap"`` unless composable, then ``"link"``
        when the predicted direction matches the observed one and
        ``"conflict"`` when it does not."""
        if not self.composable:
            return "gap"
        return "link" if self.sign_matched else "conflict"

    def to_record(self) -> dict[str, Any]:
        return {
            "target_id": self.target_id,
            "observed_effect": float(self.observed_effect),
            "predicted_effect": self.predicted_effect,
            "rho": float(self.rho),
            "composable": bool(self.composable),
            "sign_matched": self.sign_matched,
        }


def loo_run(archive: Archive, features: Mapping[str, np.ndarray],
            cfg: ComposerConfig, ids: Sequence[str] | None = None) -> list[TargetResult]:
    """Assess each experiment of ``ids`` (every member by default) against the
    rest of the archive; an id given more than once is assessed once.

    The targets are assessed over one shared :class:`FeatureStore` of
    ``features`` (:class:`~exatlas.composer.Features` or any mapping) in
    archive order, whose Gram matrix holds the targets' rows alone, with the
    same results as ``assess`` over a per-target pool, whichever other
    targets are assessed. Results come back sorted by target id.
    """
    if len(archive) < 2:
        raise EvaluatorError("leave-one-out needs at least 2 experiments")
    # archive.get rejects an id that is not a member.
    targets = archive.ids() if ids is None else tuple(
        dict.fromkeys(archive.get(i).id for i in ids))
    if not targets:
        return []
    row = {i: k for k, i in enumerate(archive.ids())}
    store = FeatureStore.from_features(features, archive.ids(), [row[i] for i in targets])
    effects = {exp.id: float(exp.effect_size) for exp in archive}
    results = []
    for i, comp in zip(targets, assess_rows(store, effects, cfg)):
        if comp.composed_effect is None:
            raise EvaluatorError(f"no effect prediction for target {i!r}")
        results.append(TargetResult(comp, effects[i]))
    return sorted(results, key=lambda r: r.target_id)


def sign_match_rate(results: Sequence[TargetResult]) -> float:
    if not results:
        raise InsufficientDataError("no composable results")
    return sum(1 for r in results if r.sign_matched) / len(results)


def _squared_errors(results: Sequence[TargetResult]) -> list[float]:
    """Each result's squared prediction error; they and their sum must be
    finite doubles."""
    try:
        out = [(r.predicted_effect - r.observed_effect) ** 2 for r in results]
        if math.isfinite(math.fsum(out)):
            return out
    except OverflowError:
        pass
    raise EvaluatorError("squared prediction errors overflow")


def mse(results: Sequence[TargetResult]) -> float:
    if not results:
        raise InsufficientDataError("no composable results")
    return math.fsum(_squared_errors(results)) / len(results)


def mae(results: Sequence[TargetResult]) -> float:
    if not results:
        raise InsufficientDataError("no composable results")
    return math.fsum(abs(r.predicted_effect - r.observed_effect)
                     for r in results) / len(results)


def average_ranks(values: Sequence[float]) -> list[float]:
    """1-based ranks; tied values share the average of their positions."""
    n = len(values)
    order = sorted(range(n), key=lambda i: values[i])
    ranks = [0.0] * n
    i = 0
    while i < n:
        j = i
        while j + 1 < n and values[order[j + 1]] == values[order[i]]:
            j += 1
        avg = (i + j) / 2.0 + 1.0
        for k in range(i, j + 1):
            ranks[order[k]] = avg
        i = j + 1
    return ranks


def spearman(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Rank correlation with average ranks for ties."""
    if len(xs) != len(ys):
        raise ValueError("length mismatch")
    if len(xs) < 2:
        raise InsufficientDataError("spearman needs at least 2 points")
    rx = np.asarray(average_ranks(xs))
    ry = np.asarray(average_ranks(ys))
    rx = rx - rx.mean()
    ry = ry - ry.mean()
    denom = math.sqrt(float(rx @ rx) * float(ry @ ry))
    if denom == 0.0:
        raise InsufficientDataError("zero rank variance")
    return float(rx @ ry) / denom


@dataclass(frozen=True)
class EvalReport:
    """Aggregate metrics over the composable subset of a leave-one-out run.

    Metric fields are None when undefined (no composable targets, or too few
    distinct values for a rank correlation).
    """

    n_total: int
    n_composable: int
    coverage: float
    sign_match_rate: float | None
    mse: float | None
    mae: float | None
    spearman: float | None
    lambda_used: float

    def format_table(self) -> str:
        def fmt(v, pct=False):
            if v is None:
                return "n/a"
            return f"{100 * v:.2f}%" if pct else f"{v:.4f}"

        header = f"{'Sign match':>12}  {'MSE':>8}  {'MAE':>8}  {'Spearman rho':>12}"
        row = (f"{fmt(self.sign_match_rate, pct=True):>12}  {fmt(self.mse):>8}  "
               f"{fmt(self.mae):>8}  {fmt(self.spearman):>12}")
        tail = (f"targets: {self.n_total}  composable: {self.n_composable}  "
                f"coverage: {100 * self.coverage:.2f}%  lambda: {self.lambda_used:g}")
        return "\n".join([header, row, tail])


def build_report(results: Sequence[TargetResult], lambda_used: float) -> EvalReport:
    composable = [r for r in results if r.composable]
    n_total = len(results)
    kw: dict[str, float | None] = {"sign_match_rate": None, "mse": None,
                                   "mae": None, "spearman": None}
    if composable:
        kw["sign_match_rate"] = sign_match_rate(composable)
        kw["mse"] = mse(composable)
        kw["mae"] = mae(composable)
        try:
            kw["spearman"] = spearman([r.predicted_effect for r in composable],
                                      [r.observed_effect for r in composable])
        except InsufficientDataError:
            kw["spearman"] = None
    return EvalReport(
        n_total=n_total,
        n_composable=len(composable),
        coverage=len(composable) / n_total if n_total else 0.0,
        lambda_used=lambda_used,
        **kw,
    )


@dataclass(frozen=True)
class CalibrationCurve:
    """Per-threshold coverage/error trade-off and the chosen threshold.

    ``mse_at``/``scaled_mse_at`` are None where no target passes the gate;
    the objective is 0 there. The chosen lambda is the argmax of the
    objective, with ties resolved toward the smallest lambda.
    """

    grid: tuple[float, ...]
    coverage_at: tuple[float, ...]
    mse_at: tuple[float | None, ...]
    scaled_mse_at: tuple[float | None, ...]
    objective_at: tuple[float, ...]
    chosen_lambda: float


DEFAULT_GRID = "0.05:1.50:0.005"  # calibrate's --grid LO:HI:STEP by default


def default_grid(*bounds: float) -> tuple[float, ...]:
    """The grid of LO, HI and STEP ``bounds``, by default DEFAULT_GRID's."""
    start, stop, step = bounds or map(float, DEFAULT_GRID.split(":"))
    return tuple(round(start + i * step, 10) for i in range(grid_points(start, stop, step)))


def grid_points(start: float, stop: float, step: float) -> int:
    """How many points LO + i * STEP are at most HI, within a few ulps of the
    bounds' rounding; over 2**63 where the count overflows a float."""
    span = (stop - start) / step
    span += 4 * (math.ulp(span) + (math.ulp(start) + math.ulp(stop)) / step)
    return math.floor(min(span, 2**63)) + 1


def check_grid(grid: Sequence[float]) -> list[float]:
    """``grid`` as a list of floats, if it is non-empty and strictly increasing."""
    grid = [float(g) for g in grid]
    if not grid:
        raise ValueError("grid must be non-empty")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("grid must be strictly increasing")
    return grid


def calibrate_lambda(results: Sequence[TargetResult],
                     grid: Sequence[float]) -> CalibrationCurve:
    """Pick the threshold maximizing (1 - scaled MSE) x coverage over the grid.

    Weights and rho values do not depend on the threshold, so the one
    leave-one-out run of ``results`` serves every grid point, whatever lambda
    it was gated at. Scaled MSE is the min-max scaling of the defined MSE
    values over the grid; a constant MSE column scales to all zeros.
    """
    grid = check_grid(grid)
    rho = np.asarray([r.rho for r in results])
    sq_err = np.asarray(_squared_errors(results))
    n = len(results)

    coverage_at: list[float] = []
    mse_at: list[float | None] = []
    with np.errstate(over="ignore"):
        for lam in grid:
            mask = rho <= lam
            coverage_at.append(float(mask.sum()) / n)
            mse_at.append(float(sq_err[mask].mean()) if mask.any() else None)
    if any(m == math.inf for m in mse_at):
        raise EvaluatorError("squared prediction errors overflow")

    defined = [m for m in mse_at if m is not None]
    lo = min(defined) if defined else 0.0
    hi = max(defined) if defined else 0.0
    scaled_at: list[float | None] = []
    for m in mse_at:
        if m is None:
            scaled_at.append(None)
        elif hi == lo:
            scaled_at.append(0.0)
        else:
            scaled_at.append((m - lo) / (hi - lo))

    objective_at = [0.0 if s is None else (1.0 - s) * c
                    for s, c in zip(scaled_at, coverage_at)]
    best = max(range(len(grid)), key=objective_at.__getitem__)  # the first of ties
    return CalibrationCurve(
        grid=tuple(grid),
        coverage_at=tuple(coverage_at),
        mse_at=tuple(mse_at),
        scaled_mse_at=tuple(scaled_at),
        objective_at=tuple(objective_at),
        chosen_lambda=grid[best],
    )
