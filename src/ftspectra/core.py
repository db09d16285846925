"""Shared substrate: midpoint grids on [0, 1], discretized curve collections,
Hermitian frequency kernels, and quadrature-based Hilbert-Schmidt norms."""

from __future__ import annotations

import csv
import json
import os
import warnings
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * np.pi

#: Relative tolerance enforced on the Hermitian symmetry of frequency kernels.
HERMITIAN_RTOL = 1e-10


class DimensionError(ValueError):
    """Operands have mismatched shapes or live on incompatible grids."""


class DomainError(ValueError):
    """A parameter lies outside its admissible range."""


class DegenerateDataError(ValueError):
    """The sample carries no usable variation (e.g. zero variance at a point)."""


class NumericError(RuntimeError):
    """A numerical routine failed or produced non-finite output."""


class ParseError(ValueError):
    """An input file could not be parsed into the expected structure."""


def _is_integer(value) -> bool:
    """Whether the value is a Python or numpy integer; a bool is not one."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _check_integer(name: str, value) -> int:
    """The value as an int; DomainError, naming it, unless _is_integer."""
    if not _is_integer(value):
        raise DomainError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _check_positive(name: str, value) -> float:
    """The value as a float; DomainError, naming it, unless finite and > 0."""
    value = float(value)
    if not 0.0 < value < np.inf:
        raise DomainError(f"{name} must be finite and positive, got {value}")
    return value


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


#: Rows of a matrix whose finiteness is tested at a time.
_FINITE_ROWS = 1024


def _all_finite(values: np.ndarray) -> bool:
    """Whether every entry of the 2-D float array is finite, tested
    _FINITE_ROWS rows at a time, so no T x d boolean array is made."""
    return all(np.isfinite(values[start: start + _FINITE_ROWS]).all()
               for start in range(0, values.shape[0], _FINITE_ROWS))


@dataclass(frozen=True)
class Grid:
    """Uniform midpoint grid tau_i = (i + 1/2) / d on [0, 1], weight 1/d per point.

    The midpoint placement keeps every node strictly inside (0, 1) and makes
    plain Riemann sums with weight 1/d exact for the trigonometric bases used
    elsewhere in the package.
    """

    d: int

    def __post_init__(self):
        if not _is_integer(self.d) or self.d < 2:
            raise DomainError(f"grid needs an integer d >= 2, got {self.d!r}")

    @property
    def points(self) -> np.ndarray:
        return (np.arange(self.d) + 0.5) / self.d


@dataclass(frozen=True)
class FunctionalSeries:
    """T curves observed on a shared grid; row t of ``values`` is curve t.

    Instances are immutable; every operation returns a new object.
    """

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 2:
            raise DimensionError(f"values must be a T x d matrix, got shape {v.shape}")
        if v.shape[0] < 2:
            raise DomainError(f"need at least two curves, got T = {v.shape[0]}")
        if v.shape[1] != self.grid.d:
            raise DimensionError(
                f"values have {v.shape[1]} columns but the grid has d = {self.grid.d}"
            )
        if not _all_finite(v):
            raise NumericError("series values contain non-finite entries")
        object.__setattr__(self, "values", _readonly(v))

    @property
    def n_curves(self) -> int:
        return self.values.shape[0]

    @property
    def d(self) -> int:
        return self.grid.d


def center(series: FunctionalSeries) -> FunctionalSeries:
    """Subtract the sample mean curve, in a new T x d array. Every function
    that needs centered data centers its own input, so callers pass the raw
    series: `fdft_all` and `autocovariance` call this. Both estimators' lag
    stacks subtract the mean a block of rows at a time, `select_bandwidth`
    hands the linear stack its raw probe columns, and `correlogram`
    subtracts this mean from its two columns alone, so none of them makes a
    centered copy of the series."""
    return FunctionalSeries(series.grid, series.values - series.values.mean(axis=0))


def check_frequencies(frequencies) -> np.ndarray:
    """The frequencies as a float array; DimensionError unless it is
    one-dimensional, DomainError unless it is finite, strictly increasing
    and within [0, 2*pi)."""
    f = np.asarray(frequencies, dtype=float)
    if f.ndim != 1:
        raise DimensionError("frequencies must be one-dimensional")
    if not np.isfinite(f).all():
        raise DomainError(f"frequencies must be finite, got {f.tolist()}")
    if f.size and (f[0] < 0.0 or f[-1] >= TWO_PI or (f[1:] <= f[:-1]).any()):
        raise DomainError("frequencies must be strictly increasing within [0, 2*pi)")
    return f


@dataclass(frozen=True)
class FrequencyKernel:
    """One d x d complex Hermitian matrix approximating f(tau_i, tau_j) at
    one frequency; the frequency is held by the estimate the kernel is in."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        _check_kernels(m[None])
        object.__setattr__(self, "matrix", _readonly(m))

    @property
    def d(self) -> int:
        return self.matrix.shape[0]


def _check_kernels(block: np.ndarray, n: int | None = None) -> np.ndarray:
    """The complex block of kernel matrices, unchanged. DimensionError unless
    it is a stack of square matrices and, when n is given, holds n of them,
    one per frequency; then NumericError unless every entry is finite; then
    DomainError, naming the first offending matrix's residual, unless every
    matrix is Hermitian within HERMITIAN_RTOL. The estimators build their
    matrices exactly Hermitian, so residuals are computed only for a block
    that is not equal to its conjugate transpose. Both tests read the block
    through real views; a contiguous block is not copied."""
    if block.ndim != 3 or block.shape[1] != block.shape[2]:
        raise DimensionError(f"kernel matrix must be square, got shape {block.shape[1:]}")
    if n is not None and block.shape[0] != n:
        raise DimensionError(f"{block.shape[0]} kernels for {n} frequencies")
    if not np.isfinite(np.ascontiguousarray(block).view(float)).all():
        raise NumericError("kernel matrix contains non-finite entries")
    if not _exactly_hermitian(block):
        residuals = hermitian_residual(block)
        bad = residuals[residuals > HERMITIAN_RTOL]
        if bad.size:
            raise DomainError(f"matrix is not Hermitian (relative residual {bad[0]:.3e})")
    return block


def _exactly_hermitian(block: np.ndarray) -> bool:
    """Whether the finite (n, d, d) complex block equals its conjugate
    transpose entry by entry: the real part symmetric and the imaginary part
    antisymmetric. For finite floats a + b == 0 exactly when a == -b, signed
    zeros included."""
    re, im = block.real, block.imag
    return bool(np.array_equal(re, re.swapaxes(1, 2))
                and not np.any(im + im.swapaxes(1, 2)))


def hermitian_residual(m: np.ndarray):
    """Relative departure from Hermitian symmetry, max |m - m^H| / max |m|,
    0 for the zero matrix: a float for one (d, d) matrix, and for a
    (..., d, d) stack an array of each matrix's residual."""
    scale = np.abs(m).max(axis=(-2, -1))
    spread = np.abs(m - m.conj().swapaxes(-1, -2)).max(axis=(-2, -1))
    residual = np.divide(spread, scale, out=np.zeros_like(scale), where=scale > 0.0)
    return float(residual) if residual.ndim == 0 else residual


def _hermitian_sum(re: np.ndarray, im: np.ndarray,
                   out: np.ndarray | None = None) -> np.ndarray:
    """A + A^H, A = re + i*im a (..., d, d) stack, as re + re^T + i(im - im^T),
    into out when given."""
    block = np.empty(re.shape, dtype=complex) if out is None else out
    np.add(re, re.swapaxes(-1, -2), out=block.real)
    np.subtract(im, im.swapaxes(-1, -2), out=block.imag)
    return block


def hs_norm(kernel: FrequencyKernel) -> float:
    """Hilbert-Schmidt norm of the kernel, i.e. the quadrature approximation
    sqrt((1/d^2) * sum |k_ij|^2) of its L2([0,1]^2) norm."""
    return float(np.linalg.norm(kernel.matrix) / kernel.d)


def hs_distance(a: FrequencyKernel, b: FrequencyKernel) -> float:
    """Hilbert-Schmidt norm of the entrywise difference of two kernels."""
    if a.matrix.shape != b.matrix.shape:
        raise DimensionError(
            f"kernel shapes differ: {a.matrix.shape} vs {b.matrix.shape}"
        )
    return float(np.linalg.norm(a.matrix - b.matrix) / a.d)


@dataclass(frozen=True)
class SpectralEstimate:
    """A spectral density estimate: one d x d Hermitian matrix per evaluation
    frequency, held as one read-only complex (n_frequencies, d, d) block,
    plus estimation metadata. ``matrices`` may be the block or a sequence of
    matrices; the constructor checks the frequencies, one square matrix per
    frequency, all of one size, and finite, Hermitian entries."""

    frequencies: np.ndarray
    matrices: np.ndarray
    bandwidth: float
    kernel_id: str
    method: str

    def __post_init__(self):
        f = check_frequencies(self.frequencies)
        block = self.matrices
        if not isinstance(block, np.ndarray) and np.iterable(block):
            block = list(block)
            shapes = sorted({np.shape(m) for m in block})
            if len(shapes) > 1:
                raise DimensionError(f"kernel shapes differ: {shapes}")
        block = np.asarray(block, dtype=complex)
        if block.shape == (0,):  # no matrices, so no matrix axes either
            block = block.reshape(0, 0, 0)
        elif block.ndim == 1:  # one vector, refused under its own shape
            block = block[None]
        object.__setattr__(self, "frequencies", _readonly(f))
        object.__setattr__(self, "matrices", _readonly(_check_kernels(block, f.size)))

    @property
    def kernels(self) -> tuple:
        """One FrequencyKernel per frequency, each a view of its row of
        ``matrices``."""
        return tuple(map(FrequencyKernel, self.matrices))


# ---------------------------------------------------------------------------
# serialization: every JSON and CSV file of the package goes through
# write_json, read_json, write_csv and read_csv
# ---------------------------------------------------------------------------

def write_json(path, obj) -> None:
    """Write obj as JSON with sorted keys, a 2-space indent and a trailing
    newline. Dicts, and lists that hold a list or dict, are laid out one
    entry per line; every other value, such as a matrix row, is one
    ``json.dumps`` (the C encoder) on one line. Keys must be strings.

    A numpy array is written as its ``tolist()``. A finite, non-empty square
    float64 array is written row by row from ``_float_reprs``, which reuses
    the text of a mirrored entry whose bits match up to the sign; the bytes
    are the same."""
    with open(path, "w") as fh:
        _write_json_value(fh, obj, "\n")
        fh.write("\n")


def _write_json_value(fh, obj, newline) -> None:
    # newline is "\n" plus the indent of the line that holds obj
    if isinstance(obj, np.ndarray):
        if _square_floats(obj) and obj.size and np.isfinite(obj).all():
            inner = newline + "  "
            rows = ("[" + ", ".join(row) + "]" for row in _float_reprs(obj))
            fh.write("[" + inner + ("," + inner).join(rows) + newline + "]")
            return
        obj = obj.tolist()
    if isinstance(obj, dict) and obj:
        if not all(isinstance(key, str) for key in obj):
            raise TypeError("JSON object keys must be strings")
        items = [(json.dumps(key) + ": ", obj[key]) for key in sorted(obj)]
        opening, closing = "{", "}"
    elif isinstance(obj, (list, tuple)) and any(isinstance(v, (dict, list, tuple))
                                                for v in obj):
        items = [("", v) for v in obj]
        opening, closing = "[", "]"
    else:
        fh.write(json.dumps(obj))
        return
    inner = newline + "  "
    fh.write(opening)
    for i, (prefix, value) in enumerate(items):
        fh.write(("," if i else "") + inner + prefix)
        _write_json_value(fh, value, inner)
    fh.write(newline + closing)


def read_json(path) -> dict:
    """The JSON object stored in a file; ParseError if the file cannot be
    read, is not JSON, or holds something other than an object."""
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ParseError(f"bad JSON in {path}: {exc}") from exc
    if not isinstance(obj, dict):
        raise ParseError(f"{path} must hold a JSON object")
    return obj


def write_csv(path, rows) -> None:
    """Write rows in the csv module's default dialect. Floats are written as
    repr(float(v)), which round-trips exactly; other cells as csv writes them.

    A row of float64 cells only (a 1-D float64 array, or Python floats and
    np.float64 scalars) is joined directly, one row at a time: csv writes
    such a cell as its repr and never quotes it, so the bytes are the same.
    A square float64 array is joined row by row from ``_float_reprs``, which
    reuses the text of a mirrored entry whose bits match up to the sign; the
    bytes are the same."""
    with open(path, "w", newline="") as fh:
        if _square_floats(rows):
            fh.writelines(",".join(row) + "\r\n" for row in _float_reprs(rows))
            return
        writer = csv.writer(fh)
        for row in rows:
            if isinstance(row, np.ndarray):
                # an array row formats faster as Python floats than as numpy scalars
                cells = row.tolist()
                floats = row.dtype == np.float64 and row.ndim == 1
            else:
                cells = list(row)
                floats = all(isinstance(v, float) for v in cells)
            if floats:
                fh.write(",".join(map(float.__repr__, cells)) + "\r\n")
            else:
                writer.writerow([repr(float(v)) if isinstance(v, (float, np.floating))
                                 else v for v in cells])


def _square_floats(a) -> bool:
    return (isinstance(a, np.ndarray) and a.dtype == np.float64 and a.ndim == 2
            and a.shape[0] == a.shape[1])


_SIGN_BIT = np.uint64(1 << 63)


def _float_reprs(m: np.ndarray) -> list:
    """float.__repr__ of every entry of the square float64 matrix m, one list
    of texts per row. Each entry on or above the diagonal is formatted. One
    below it takes its mirror's text when their bit patterns are equal, the
    mirror's text with the leading "-" toggled when they differ only in the
    sign bit and the entry is not NaN, and its own repr otherwise. So the
    texts are the repr's for any m, and a symmetric or antisymmetric m, such
    as either part of a Hermitian matrix, formats about half its entries."""
    d = len(m)
    values = m.ravel().tolist()
    bits = m.view(np.uint64)
    differ = bits ^ bits.T
    same = np.tril(differ == 0, -1)
    negated = np.tril((differ == _SIGN_BIT) & ~np.isnan(m), -1)
    n_same, n_negated = same.sum(axis=1).tolist(), negated.sum(axis=1).tolist()
    texts = [""] * (d * d)
    for i in range(d):
        r = i * d
        texts[r + i:r + d] = map(float.__repr__, values[r + i:r + d])
        mirrors = texts[i:r:d]   # entries (0, i), ..., (i - 1, i)
        if n_same[i] == i:
            texts[r:r + i] = mirrors
        elif n_negated[i] == i:
            texts[r:r + i] = [t[1:] if t[0] == "-" else "-" + t for t in mirrors]
        else:
            texts[r:r + i] = [t if s else (t[1:] if t[0] == "-" else "-" + t) if n
                              else float.__repr__(v) for t, s, n, v in
                              zip(mirrors, same[i].tolist(), negated[i].tolist(),
                                  values[r:r + i])]
    return [texts[i * d:(i + 1) * d] for i in range(d)]


def read_csv(path, header: bool):
    """Read a CSV of floats, skipping blank lines: the header row (None
    unless ``header``) and the data as a float matrix. Every row must have
    the width of the header, or of the first data row. ParseError, naming
    path:line for a bad row, on anything that does not read as such.

    The data rows are parsed by ``np.loadtxt``. Whenever it fails, or its
    result is empty, holds a non-finite value or has another width than the
    header, the file is read again with the csv module, whose row loop
    defines the values and the errors."""
    try:
        with open(path, newline="") as fh:
            head = next(csv.reader(fh), None) if header else None
            width = len(head) if head else None
            try:
                with warnings.catch_warnings():
                    # a file without data rows warns; the rescan handles it
                    warnings.simplefilter("ignore", UserWarning)
                    values = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2)
                if (values.size and width in (None, values.shape[1])
                        and _all_finite(values)):
                    return head, values
            except ValueError:
                pass
            fh.seek(0)
            return _read_csv_rows(path, csv.reader(fh), header)
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc


def _read_csv_rows(path, reader, header: bool):
    head = next(reader, None) if header else None
    width = len(head) if head else None
    rows = []
    for row in reader:
        if not row:
            continue
        width = width or len(row)
        if len(row) != width:
            raise ParseError(f"{path}:{reader.line_num}: expected {width} "
                             f"columns, got {len(row)}")
        try:
            rows.append([float(v) for v in row])
        except ValueError as exc:
            raise ParseError(f"{path}:{reader.line_num}: {exc}") from exc
    return head, np.array(rows, dtype=float)


def series_to_csv(series: FunctionalSeries, path) -> None:
    """Write a series as CSV: header tau_0..tau_{d-1}, one row per curve."""
    write_csv(path, [[f"tau_{i}" for i in range(series.d)], *series.values])


def series_from_csv(path) -> FunctionalSeries:
    """Read a series written by :func:`series_to_csv`. The grid is implied by
    the column count."""
    header, values = read_csv(path, header=True)
    if not header or not all(h.startswith("tau_") for h in header):
        raise ParseError(f"{path}: expected a tau_0..tau_{{d-1}} header row")
    if len(values) < 2:
        raise ParseError(f"{path}: need at least two data rows")
    return FunctionalSeries(Grid(len(header)), values)


def series_from_json_dict(obj: dict) -> FunctionalSeries:
    """Read {"d", "T", "values"}; d and T must be JSON integers (not bools),
    T is optional and other keys, such as the "centered" flag of older
    files, are ignored."""
    try:
        d = _check_integer("d", obj["d"])
        values = np.asarray(obj["values"], dtype=float)
        T = _check_integer("T", obj["T"]) if "T" in obj else None
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad series JSON: {exc}") from exc
    if T is not None and values.shape[:1] != (T,):
        raise ParseError("series JSON: T does not match the number of rows")
    return FunctionalSeries(Grid(d), values)


def matrix_from_json_dict(obj: dict) -> np.ndarray:
    try:
        return np.asarray(obj["re"], dtype=float) + 1j * np.asarray(obj["im"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad complex-matrix JSON: {exc}") from exc


def _estimate_fields(est: SpectralEstimate, part=lambda a: a) -> dict:
    """The fields of the estimate JSON, each matrix as {"re": part(real),
    "im": part(imaginary)}: float64 views of est.matrices, which write_json
    writes one matrix at a time, unless part converts them."""
    return {
        "frequencies": est.frequencies.tolist(),
        "kernels": [{"re": part(m.real), "im": part(m.imag)} for m in est.matrices],
        "bandwidth": float(est.bandwidth),
        "kernel_id": est.kernel_id,
        "method": est.method,
    }


def estimate_to_json_dict(est: SpectralEstimate) -> dict:
    return _estimate_fields(est, np.ndarray.tolist)


def estimate_from_json_dict(obj: dict) -> SpectralEstimate:
    """Read an estimate written by estimate_to_json_dict. The kernels are
    parsed one at a time into one preallocated block; kernels of different
    sizes are handed to SpectralEstimate as a list, which names the sizes."""
    try:
        kernels = obj["kernels"]
        matrices = []
        for i, kernel in enumerate(kernels):
            m = matrix_from_json_dict(kernel)
            if i == 0:
                matrices = np.empty((len(kernels),) + m.shape, dtype=complex)
            if m.shape != matrices.shape[1:]:
                matrices = [matrix_from_json_dict(k) for k in kernels]
                break
            matrices[i] = m
        return SpectralEstimate(obj["frequencies"], matrices, float(obj["bandwidth"]),
                                str(obj["kernel_id"]), str(obj["method"]))
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, (DomainError, DimensionError)):
            raise
        raise ParseError(f"bad estimate JSON: {exc}") from exc


def estimate_to_csv_dir(est: SpectralEstimate, path) -> None:
    """Write an estimate as a directory: meta.json (the estimate JSON without
    its kernels) plus one re/im CSV pair per frequency (freq_0000_re.csv,
    freq_0000_im.csv, ...)."""
    os.makedirs(path, exist_ok=True)
    meta = _estimate_fields(est)
    del meta["kernels"]
    write_json(os.path.join(path, "meta.json"), meta)
    for i, m in enumerate(est.matrices):
        write_csv(os.path.join(path, f"freq_{i:04d}_re.csv"), m.real)
        write_csv(os.path.join(path, f"freq_{i:04d}_im.csv"), m.imag)
