"""Moving-average simulation truth and the Monte-Carlo IMSE benchmark.

Data generator: X_t = A0 eps_t + A1 eps_{t-1} with Brownian-motion innovations
represented through a truncated sine expansion, and random coefficient
operators whose rows shrink like 1/j. The spectral density of this model is
available in closed form, which provides the benchmark's ground truth.
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass

import numpy as np

from .core import (
    DimensionError,
    DomainError,
    FunctionalSeries,
    Grid,
    SpectralEstimate,
    _check_integer,
    _readonly,
    center,
    write_csv,
    write_json,
)
from .bandwidth import _bandwidth_from_q, _check_series_length, select_bandwidth
from .estimator import (
    METHOD_SMOOTHED,
    _estimate_specs,
    _frequencies,
    _lag_sum,
    estimate_smoothed,  # not called here; perfbench's traced runs wrap sim.estimate_smoothed
)
from .kernels import (
    _lag_count,
    check_bandwidth,
    effective_flat_top_radius,
    epanechnikov,
    flat_top_parzen,
    infinitely_differentiable,
    trapezoid,
)

__all__ = [
    "Fma1Model",
    "basis_matrix",
    "make_fma1_model",
    "generate_fma1",
    "true_spectrum",
    "ImseConfig",
    "ImseRow",
    "imse_experiment",
    "imse_from_estimate",
    "rows_to_csv",
    "rows_to_json",
]

DEFAULT_KERNELS = (epanechnikov(), trapezoid(), flat_top_parzen(),
                   infinitely_differentiable())

#: Sine basis functions and innovation coordinates of every FMA(1) model.
N_BASIS = 50
N_INNOV = 100

#: Coordinate variances eta_k = 1/((k - 1/2)^2 pi^2), k = 1..N_INNOV, of the
#: Brownian innovation expansion, strictly decreasing; read-only.
ETA = _readonly(1.0 / ((np.arange(1, N_INNOV + 1) - 0.5) ** 2 * np.pi**2))


#: Curves of a generate_fma1 innovation block, at the least; the last block
#: takes the remainder, so fewer than twice this many curves are one block.
#: OpenBLAS computes a product of up to 24 rows of innovations by another
#: kernel, with other bits than the same rows of a whole-series product.
_BLOCK_ROWS = 256

#: Curves of a generate_fma1 grid block, at the least, a multiple of
#: _BLOCK_ROWS; the last block takes the remainder. Blocks of 256 rows give
#: other bits than the whole coefficients-to-grid product at d = 2; blocks of
#: 1024 or more give its bits at every d <= 192 and every multiple of 8.
_GRID_ROWS = 1024


def basis_matrix(grid: Grid) -> np.ndarray:
    """d x N_BASIS matrix of the orthonormal sine system
    sqrt(2)*sin((m-1/2)*pi*tau) on the grid; exactly orthonormal under the
    midpoint 1/d quadrature."""
    m = np.arange(1, N_BASIS + 1)
    return np.sqrt(2.0) * np.sin(np.outer(grid.points, (m - 0.5) * np.pi))


@dataclass(frozen=True)
class Fma1Model:
    """First-order functional moving average: coefficient operators a0, a1
    (N_BASIS x N_INNOV, acting on innovations with coordinate variances ETA),
    simulation grid, and the seed the model was drawn from."""

    a0: np.ndarray
    a1: np.ndarray
    grid: Grid
    seed: int | None = None

    def __post_init__(self):
        if self.seed is not None:
            _check_seed(self.seed)
        for name in ("a0", "a1"):
            a = np.asarray(getattr(self, name), dtype=float)
            if a.shape != (N_BASIS, N_INNOV):
                raise DomainError(f"{name} must be a {N_BASIS} x {N_INNOV} matrix, "
                                  f"got shape {a.shape}")
            if not np.all(np.isfinite(a)):
                raise DomainError(f"{name} contains non-finite entries")
            object.__setattr__(self, name, _readonly(a))


def _draw_operators(rng: np.random.Generator):
    # row j entries ~ N(0, j^{-2})
    scale = 1.0 / np.arange(1, N_BASIS + 1)[:, None]
    a0 = rng.standard_normal((N_BASIS, N_INNOV)) * scale
    a1 = rng.standard_normal((N_BASIS, N_INNOV)) * scale
    return a0, a1


def make_fma1_model(seed: int, d: int = 100) -> Fma1Model:
    """Draw random coefficient operators from the seed and assemble a model;
    DomainError unless the seed is a nonnegative integer."""
    _check_seed(seed)
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
    a0, a1 = _draw_operators(rng)
    return Fma1Model(a0, a1, Grid(d), seed=seed)


def generate_fma1(model: Fma1Model, T: int,
                  rng: np.random.Generator | None = None) -> FunctionalSeries:
    """Simulate T curves from the model.

    Innovation coordinate vectors for t = -1..T-1 are independent centered
    Gaussians with variances ETA; curve t is (A0 eps_t + A1 eps_{t-1}) mapped
    through the sine basis. Reproducible: the default generator derives from
    the model seed.

    The innovations are drawn in blocks of 256 curves or more, each block's
    last row carried into the next, and mapped to their N_BASIS
    coefficients block by block; the coefficients go to the grid in row
    blocks of 1024 curves or more, written straight into the series, so
    neither a (T + 1) x N_INNOV nor a T x N_BASIS matrix is held. The
    random stream is the one of drawing all T + 1 rows at once, and so are
    the bits at every d <= 192 and every d a multiple of 8; at a larger odd
    d the grid rows can differ in their last bits from one whole product.
    """
    _check_length(T)
    if rng is None:
        if model.seed is None:
            raise DomainError("model has no seed; pass an explicit generator")
        rng = np.random.default_rng(np.random.SeedSequence(model.seed).spawn(2)[1])
    edges, grid_edges = _block_edges(T, _BLOCK_ROWS), _block_edges(T, _GRID_ROWS)
    n = T - edges[-2]   # the last innovation block is the largest, and so
    eps, lagged = np.empty((n + 1, N_INNOV)), np.empty((n, N_BASIS))
    coef = np.empty((T - grid_edges[-2], N_BASIS))   # is the last grid block
    psi_t = basis_matrix(model.grid).T
    values = np.empty((T, model.grid.d))
    sd = np.sqrt(ETA)
    rng.standard_normal(out=eps[0])
    eps[0] *= sd
    first = 0   # the first curve of the grid block coef holds
    for start, stop in zip(edges, edges[1:]):
        block, n = eps[: stop - start + 1], stop - start   # eps_(start-1)..eps_(stop-1)
        rng.standard_normal(out=block[1:])
        block[1:] *= sd
        rows = coef[start - first: stop - first]
        np.matmul(block[1:], model.a0.T, out=rows)
        np.matmul(block[:-1], model.a1.T, out=lagged[:n])
        rows += lagged[:n]
        eps[0] = block[-1]
        if stop in grid_edges:
            np.matmul(coef[: stop - first], psi_t, out=values[first:stop])
            first = stop
    return FunctionalSeries(model.grid, values)


def _block_edges(T: int, rows: int) -> list:
    """Edges of the blocks of `rows` curves that cover 0..T-1, the remainder
    joined to the last block."""
    return [*range(0, max(T // rows, 1) * rows, rows), T]


def _check_seed(seed) -> None:
    """DomainError unless the seed is a nonnegative integer (not a bool)."""
    if _check_integer("seed", seed) < 0:
        raise DomainError(f"seed must be nonnegative, got {seed}")


def _check_length(T: int) -> None:
    if _check_integer("T", T) < 2:
        raise DomainError(f"need T >= 2, got {T}")


def true_spectrum(model: Fma1Model, frequencies=None) -> SpectralEstimate:
    """Closed-form spectral density of the model on its grid,
    f_omega = (1/(2*pi)) * Psi (A0 + e^{-i w} A1) diag(ETA) (...)^H Psi^T,
    evaluated as the estimators' lag sum over its only nonzero
    autocovariance kernels
    C_0 = Psi (A0 diag(ETA) A0^T + A1 diag(ETA) A1^T) Psi^T and
    C_1 = Psi A1 diag(ETA) A0^T Psi^T (C_-1 = C_1^T). Returned as a
    SpectralEstimate with bandwidth 0.0 (no smoothing), kernel_id "truth"
    and method "closed-form", so it carries the checks of every estimate."""
    frequencies = _frequencies(frequencies)
    psi = basis_matrix(model.grid)
    b0, b1 = psi @ model.a0, psi @ model.a1
    c0 = (b0 * ETA) @ b0.T + (b1 * ETA) @ b1.T
    c1 = (b1 * ETA) @ b0.T
    block = _lag_sum(np.stack([c0, c1]), np.ones(2), frequencies)
    return SpectralEstimate(frequencies, block, 0.0, "truth", "closed-form")


# ---------------------------------------------------------------------------
# IMSE benchmark
# ---------------------------------------------------------------------------

def imse_frequency_weights(frequencies) -> np.ndarray:
    """Trapezoidal weights for 2 * int_0^pi ... d omega on the grid
    pi * j / n, j = 0..n-1, which covers [0, pi); DomainError on any other
    grid (relative tolerance 1e-9). One grid spacing per point, halved at
    omega = 0, doubled for the full circle, which the Hermitian symmetry
    f(-omega) = conj(f(omega)) makes twice the half circle. On the default
    grid this is (pi/10) per point."""
    f = np.asarray(frequencies, dtype=float)
    grid = np.pi * np.arange(f.size) / f.size
    # every comparison with a NaN is false, so a NaN frequency is refused too
    if not (f.ndim == 1 and f.size and np.all(np.abs(f - grid) <= 1e-9 * grid)):
        raise DomainError("IMSE frequencies must be the grid pi * j / n, "
                          f"j = 0..n-1, which covers [0, pi), got {f.tolist()}")
    h = float(f[1] - f[0]) if f.size > 1 else np.pi
    w = np.full(f.size, h)
    w[0] *= 0.5  # the grid starts at omega = 0
    return 2.0 * w


def imse_from_estimate(estimate: SpectralEstimate, truth: SpectralEstimate) -> float:
    """Weighted squared Hilbert-Schmidt distance between an estimate and the
    truth over the frequency grid, sum_j w_j * ||f_j - truth_j||_HS^2, the
    squared HS norm of a d x d matrix being its squared Frobenius norm over
    d^2; DimensionError unless both are on the same frequencies with
    matrices of one size."""
    if not np.array_equal(estimate.frequencies, truth.frequencies):
        raise DimensionError(
            f"estimate and truth are on different frequencies: "
            f"{estimate.frequencies.tolist()} vs {truth.frequencies.tolist()}")
    weights = imse_frequency_weights(estimate.frequencies)
    if estimate.matrices.shape != truth.matrices.shape:
        raise DimensionError(f"kernel shapes differ: {estimate.matrices.shape[1:]} vs "
                             f"{truth.matrices.shape[1:]}")
    n, d = estimate.matrices.shape[:2]
    diff = (estimate.matrices - truth.matrices).view(float).reshape(n, 2 * d * d)
    return float(weights @ np.einsum("jk,jk->j", diff, diff)) / d**2


@dataclass(frozen=True)
class ImseConfig:
    """Benchmark configuration; the defaults are the desk-scale run. Every
    replication scores the estimates on the paper grid
    estimator.DEFAULT_FREQUENCIES. A config that constructs runs: what a
    replication would refuse is refused here. T_list is kept as ints."""

    T_list: tuple = (64, 128, 256, 512, 1024)
    n_runs: int = 50
    kernel_specs: tuple = DEFAULT_KERNELS
    bandwidth_mode: object = "rate"     # see parse_bandwidth_mode
    seed: int = 0
    d: int = 50
    redraw_operators: bool = True
    n_jobs: int = 1

    def __post_init__(self):
        for name in ("n_runs", "n_jobs"):
            _check_integer(name, getattr(self, name))
        _check_seed(self.seed)
        if self.n_runs < 2:
            raise DomainError(f"need at least two runs, got {self.n_runs}")
        if self.n_jobs < 1:
            raise DomainError(f"n_jobs must be at least 1, got {self.n_jobs}")
        # one row per (spec, T) and one trace per spec, labelled by its identifier
        if not self.T_list or not self.kernel_specs:
            raise DomainError("need at least one T and one kernel spec")
        for i, T in enumerate(self.T_list):
            if T in self.T_list[:i]:
                raise DomainError(f"T = {T} is given twice")
        identifiers = [spec.identifier for spec in self.kernel_specs]
        for i, identifier in enumerate(identifiers):
            if identifier in identifiers[:i]:
                raise DomainError(f"two kernel specs share the identifier {identifier}")
        object.__setattr__(self, "bandwidth_mode",
                           parse_bandwidth_mode(self.bandwidth_mode))
        # what a replication would refuse, in its order
        Grid(self.d)
        for T in self.T_list:
            _check_length(T)
            if self.bandwidth_mode == "auto":
                for spec in self.kernel_specs:
                    effective_flat_top_radius(spec)
                _check_series_length(T)
            else:
                bandwidth = _rate_bandwidth(self.bandwidth_mode, T)
                for spec in self.kernel_specs:
                    if spec.is_flat_top:
                        _lag_count(spec, bandwidth)
        object.__setattr__(self, "T_list", tuple(map(int, self.T_list)))


@dataclass(frozen=True)
class ImseRow:
    kernel: str
    T: int
    bandwidth_mode: str
    n_runs: int
    mean_imse: float
    mean_log2_imse: float
    stderr: float


def parse_bandwidth_mode(mode):
    """A bandwidth mode: 'auto', 'rate' or '2rate' as given, or an explicit
    bandwidth in (0, 1], given as a number (not a bool) or as text, as a
    float. DomainError on anything else."""
    if mode in ("auto", "rate", "2rate"):
        return mode
    try:
        if isinstance(mode, bool):
            raise TypeError("a bool is not a bandwidth")
        value = float(mode)
    except (TypeError, ValueError) as exc:
        raise DomainError(
            f"bandwidth must be 'auto', 'rate', '2rate' or a number, got {mode!r}"
        ) from exc
    return check_bandwidth(value)


def resolve_bandwidths(mode, series: FunctionalSeries, specs) -> list:
    """Map a parsed bandwidth mode to one bandwidth per spec, in spec order,
    for a series of T curves: the T^(-1/5) rate, twice the rate, the
    explicit number, or the empirical rule. Under 'auto' one select_bandwidth
    search serves every spec, since only the effective flat-top radius c_ef
    depends on the spec; every c_ef is found before the search, so a spec
    without one (the Epanechnikov baseline) is refused first."""
    if mode == "auto":
        if not specs:
            return []
        c_efs = [effective_flat_top_radius(spec) for spec in specs[1:]]
        report = select_bandwidth(series, specs[0])
        return [report.B_T] + [_bandwidth_from_q(report.q_hat, c_ef) for c_ef in c_efs]
    return [_rate_bandwidth(mode, series.n_curves)] * len(specs)


def _rate_bandwidth(mode, T: int) -> float:
    """The bandwidth of a parsed mode other than 'auto' for T curves."""
    if mode == "rate":
        return T ** (-0.2)
    if mode == "2rate":
        return check_bandwidth(2.0 * T ** (-0.2))
    return float(mode)


def _estimates(specs, mode, series: FunctionalSeries, frequencies=None):
    """An iterator over the smoothed estimates of the series by the kernel
    specs, in spec order, at the bandwidths the parsed mode gives them, one
    at a time; each equal to estimate_smoothed's, bit for bit. Every
    bandwidth is resolved before any estimate is made, so a refused
    bandwidth fails first; the series is then centered once, and the
    estimates share one lag stack."""
    frequencies = _frequencies(frequencies)
    bandwidths = resolve_bandwidths(mode, series, specs)
    values = center(series).values
    del series  # the shared work needs only the centered values
    return _estimate_specs(values, specs, bandwidths, frequencies, METHOD_SMOOTHED)


def _run_replication(config: ImseConfig, task) -> list:
    """One (T, replication) cell: simulate from the task's generator stream,
    estimate with every kernel spec of the config, and return the IMSE of
    each against the replication's truth, in spec order: its own model's,
    or with the task's fixed-operator stream the experiment's shared one.
    The series is let go once the estimates' shared work is done, and each
    estimate once it is scored, so one estimate is alive at a time."""
    T, seed_ss, operators_ss = task
    rng = np.random.default_rng(seed_ss)
    if operators_ss is None:
        model = Fma1Model(*_draw_operators(rng), Grid(config.d))
        truth = true_spectrum(model)
    else:
        model, truth = _fixed_model(operators_ss.entropy, operators_ss.spawn_key, config.d)
    estimates = _estimates(config.kernel_specs, config.bandwidth_mode,
                           generate_fma1(model, T, rng=rng))
    score = functools.partial(imse_from_estimate, truth=truth)
    return list(map(score, estimates))


@functools.lru_cache(maxsize=1)
def _fixed_model(entropy, spawn_key: tuple, d: int):
    """The model whose operators are drawn from the seed sequence
    (entropy, spawn_key), on Grid(d), and its truth: made once per process
    for the replications of an experiment under fixed operators. Both are
    immutable, so the replications share them."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy, spawn_key=spawn_key))
    model = Fma1Model(*_draw_operators(rng), Grid(d))
    return model, true_spectrum(model)


def imse_experiment(config: ImseConfig) -> list:
    """Run the Monte-Carlo IMSE benchmark and return one :class:`ImseRow` per
    (kernel, T) cell.

    Replications map over per-task generator streams split from the master
    seed, so serial and parallel executions produce identical numbers and the
    whole table is reproducible bitwise from the config, which ImseConfig
    has checked to run.
    """
    ss = np.random.SeedSequence(config.seed)
    n_tasks = len(config.T_list) * config.n_runs
    children = ss.spawn(n_tasks + 1)
    # under fixed operators a task carries the seed sequence they are drawn
    # from, and each process makes their model and truth once
    operators_ss = None if config.redraw_operators else children[n_tasks]
    tasks = [(T, children[ti * config.n_runs + r], operators_ss)
             for ti, T in enumerate(config.T_list) for r in range(config.n_runs)]

    run = functools.partial(_run_replication, config)
    if config.n_jobs > 1:
        # imported here: concurrent.futures pulls in logging, ~5 ms on every
        # CLI call that never starts a pool
        import concurrent.futures

        with concurrent.futures.ProcessPoolExecutor(max_workers=config.n_jobs) as pool:
            results = list(pool.map(run, tasks, chunksize=4))
    else:
        results = [run(t) for t in tasks]

    rows = []
    mode_label = (config.bandwidth_mode if isinstance(config.bandwidth_mode, str)
                  else repr(config.bandwidth_mode))
    for ti, T in enumerate(config.T_list):
        cell = results[ti * config.n_runs:(ti + 1) * config.n_runs]
        for k, spec in enumerate(config.kernel_specs):
            imses = np.array([c[k] for c in cell])
            mean = float(imses.mean())
            se_mean = float(imses.std(ddof=1) / math.sqrt(imses.size))
            rows.append(ImseRow(
                kernel=spec.identifier,
                T=T,
                bandwidth_mode=mode_label,
                n_runs=int(imses.size),
                mean_imse=mean,
                mean_log2_imse=float(np.log2(mean)) if mean > 0.0 else float("-inf"),
                # delta-method standard error of log2(mean)
                stderr=se_mean / (mean * math.log(2.0)) if mean > 0.0 else 0.0,
            ))
    return rows


def rows_to_csv(rows, path) -> None:
    write_csv(path, [["kernel", "T", "bandwidth_mode", "mean_log2_imse", "stderr"]]
              + [[r.kernel, r.T, r.bandwidth_mode, r.mean_log2_imse, r.stderr] for r in rows])


def rows_to_json(rows, path) -> None:
    write_json(path, [asdict(r) for r in rows])
