"""Domain types and radial quadrature for radially symmetric gas flow.

Fields are sampled on a radial grid and every functional of the flow is
an integral over R^n reduced to one dimension,

    int_{R^n} f(|x|) dx = omega_{n-1} * int_0^rmax f(r) r^(n-1) dr,

with omega_{n-1} the surface area of the unit sphere. The quadrature is
composite trapezoid on the given (possibly nonuniform) grid, accumulated
with pairwise summation so the result does not depend on any data-parallel
execution schedule.
"""

from __future__ import annotations

import functools
import math
import threading
import warnings
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ParameterError",
    "InvalidInputError",
    "SingularIntegrandError",
    "DegenerateDataError",
    "TailTruncationWarning",
    "GasParameters",
    "RadialGrid",
    "FlowSnapshot",
    "ConservedReport",
    "sphere_area",
    "trapezoid_weights",
    "integrate_radial",
    "conserved",
    "snapshot_text",
    "load_snapshot",
]

TAIL_FRACTION = 1e-12

# each thread's work row: grown to the largest grid it integrates, never freed
_work = threading.local()


class ParameterError(ValueError):
    """A physical or numerical parameter violates its contract."""


class InvalidInputError(ValueError):
    """Sampled data is malformed (wrong length, non-finite, negative where forbidden)."""


class SingularIntegrandError(ValueError):
    """An integrand is singular (or non-finite) on the active grid."""


class DegenerateDataError(ValueError):
    """Data is degenerate for the requested operation (e.g. zero normalization)."""


class TailTruncationWarning(UserWarning):
    """The integrand has not decayed below TAIL_FRACTION of its peak at r_max."""


def _work_row(size: int) -> np.ndarray:
    """This thread's work row, sliced to size; it is overwritten by the next quadrature.

    A long-lived heap array, it also keeps the allocator from trimming the
    heap below it: later calls reuse those pages instead of faulting in
    fresh ones, at the price of the resident memory kept.
    """
    row = getattr(_work, "row", None)
    if row is None or row.size < size:
        row = _work.row = np.empty(size)
    return row[:size]


def _all_finite(a: np.ndarray) -> bool:
    """Whether every sample is finite, without a boolean temporary: NaN fails both tests."""
    return bool(a.min() > -np.inf and a.max() < np.inf)


def _tail_excess(integrand: np.ndarray, end: int = -1) -> float:
    """|integrand[end]| / peak when that exceeds TAIL_FRACTION, else 0.

    The one decay rule: integrate_radial applies it at r_max, the profile
    builders at the end of their default grid.
    """
    # abs is exact, so the peak is the larger of max and -min, without an |integrand| temporary
    peak = max(float(integrand.max()), -float(integrand.min()))
    tail = abs(integrand[end])
    return float(tail / peak) if peak > 0.0 and tail > TAIL_FRACTION * peak else 0.0


@dataclass(frozen=True)
class GasParameters:
    """Equation-regime constants: dimension and heat ratio (units with gas constant R = 1)."""

    n: int
    gamma: float

    def __post_init__(self):
        if not isinstance(self.n, (int, np.integer)) or self.n < 1:
            raise ParameterError(f"space dimension must be an integer >= 1, got {self.n!r}")
        if not self.gamma > 1.0:
            raise ParameterError(f"gamma must exceed 1, got {self.gamma}")


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _as_readonly(a, copy=True) -> np.ndarray:
    # own copy so freezing never mutates caller state; copy=None is for arrays made for the freeze
    return _frozen(np.array(a, dtype=float, copy=copy))


def _freeze_samples(obj, names, grid, copy=True) -> None:
    """The one sampled-array rule: each named field of obj becomes a read-only finite float copy, grid-shaped."""
    for name in names:
        a = _as_readonly(getattr(obj, name), copy)
        if a.shape != grid.r.shape:
            raise InvalidInputError(f"{name} has shape {a.shape}, grid has {grid.r.shape}")
        if not np.all(np.isfinite(a)):
            raise InvalidInputError(f"{name} contains non-finite values")
        object.__setattr__(obj, name, a)


@dataclass(frozen=True)
class RadialGrid:
    """Strictly increasing radii r[0] >= 0; r_max is the truncation radius."""

    r: np.ndarray
    r_max: float = None  # defaults to r[-1]

    def __post_init__(self):
        r = _as_readonly(self.r)
        if r.ndim != 1 or r.size < 2:
            raise InvalidInputError("grid needs a 1-D radius array of length >= 2")
        if not np.all(np.isfinite(r)):
            raise InvalidInputError("grid radii must be finite")
        if r[0] < 0.0:
            raise InvalidInputError(f"grid must start at r >= 0, got {r[0]}")
        if np.any(np.diff(r) <= 0.0):
            raise InvalidInputError("grid radii must be strictly increasing")
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "_rpow", {})
        if self.r_max is None:
            object.__setattr__(self, "r_max", float(r[-1]))
        elif not math.isfinite(self.r_max):
            raise InvalidInputError(f"r_max must be finite, got {self.r_max}")
        elif self.r_max < r[-1]:
            raise InvalidInputError("r_max cannot be smaller than the last grid node")

    @classmethod
    def uniform(cls, r_max: float, num: int) -> "RadialGrid":
        return cls(np.linspace(0.0, r_max, num))

    def __len__(self) -> int:
        return self.r.size

    @functools.cached_property
    def weights(self) -> np.ndarray:
        """Composite trapezoid weights of the grid, built once and read-only."""
        return _frozen(trapezoid_weights(self.r))

    def quadrature_factors(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """Trapezoid weights and r^(n-1), built once per grid and dimension n.

        Both arrays are read-only; the grid is frozen, so they never go stale.
        """
        rpow = self._rpow.get(n)
        if rpow is None:
            rpow = self._rpow[n] = _frozen(self.r ** (n - 1))
        return self.weights, rpow


@dataclass(frozen=True)
class FlowSnapshot:
    """Radial samples of (rho, v, p) at one instant."""

    grid: RadialGrid
    rho: np.ndarray
    v: np.ndarray
    p: np.ndarray
    t: float = 0.0

    def __post_init__(self, copy=True):
        if not math.isfinite(self.t):
            raise InvalidInputError(f"snapshot time must be finite, got {self.t}")
        _freeze_samples(self, ("rho", "v", "p"), self.grid, copy)
        if np.any(self.rho < 0.0):
            raise InvalidInputError("density must be nonnegative")
        if np.any(self.p < 0.0):
            raise InvalidInputError("pressure must be nonnegative")
        # conserved's reports, by (n, gamma); the arrays are frozen, so they never go stale
        object.__setattr__(self, "_reports", {})

    @classmethod
    def _adopt(cls, grid, rho, v, p, t):
        """The snapshot of arrays just made for it, frozen where they are rather than copied."""
        snap = object.__new__(cls)
        for name, value in zip(("grid", "rho", "v", "p", "t"), (grid, rho, v, p, t)):
            object.__setattr__(snap, name, value)
        snap.__post_init__(copy=None)
        return snap

    def temperature(self) -> np.ndarray:
        """theta = p / rho (R = 1) where rho > 0, zero on vacuum nodes."""
        with np.errstate(divide="ignore", invalid="ignore"):
            th = self.p / self.rho
        return np.where(self.rho > 0.0, th, 0.0)


@dataclass(frozen=True)
class ConservedReport:
    mass: float
    e_kinetic: float
    e_internal: float
    e_total: float


def sphere_area(n: int) -> float:
    """Surface area omega_{n-1} = 2 pi^{n/2} / Gamma(n/2) of the unit sphere in R^n.

    Gamma at integer and half-integer arguments is exact (recurrence from
    Gamma(1/2) = sqrt(pi)) for n <= 12; beyond that the library Gamma
    approximation is accurate to machine precision anyway.
    """
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ParameterError(f"dimension must be an integer >= 1, got {n!r}")
    if n <= 12:
        if n % 2 == 0:
            g = float(math.factorial(n // 2 - 1))
        else:
            g = math.sqrt(math.pi)
            z = 0.5
            while z < n / 2.0:
                g *= z
                z += 1.0
        return 2.0 * math.pi ** (n / 2.0) / g
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


def trapezoid_weights(r: np.ndarray) -> np.ndarray:
    """Composite trapezoid weights for a strictly increasing node array."""
    dr = np.diff(r)
    w = np.empty_like(r)
    w[0] = 0.5 * dr[0]
    w[-1] = 0.5 * dr[-1]
    w[1:-1] = 0.5 * (dr[:-1] + dr[1:])
    return w


def integrate_radial(f, grid: RadialGrid, params: GasParameters) -> float:
    """Integrate a radial profile over R^n.

    Emits TailTruncationWarning when the integrand f*r^(n-1) at r_max still
    exceeds 1e-12 of its peak. A deliberate finite-ball integral, whose
    integrand ends at its edge value, filters that warning with the standard
    ``warnings`` tools. The integrand is formed in the calling thread's work
    row, so a call allocates no node-length array once the thread has
    integrated a grid this large; f itself is only read.

    Parameters
    ----------
    f : array_like
        Samples of the profile on ``grid``.
    grid : RadialGrid
    params : GasParameters
        Only the dimension ``n`` is used.

    Returns
    -------
    float
        omega_{n-1} * trapezoid of f(r) r^(n-1) on the grid.
    """
    fs = np.asarray(f, dtype=float)
    if fs.shape != grid.r.shape:
        raise InvalidInputError(f"sample shape {fs.shape} does not match grid {grid.r.shape}")
    if not _all_finite(fs):
        bad = int(np.flatnonzero(~np.isfinite(fs))[0])
        raise InvalidInputError(f"non-finite sample at node {bad} (r={grid.r[bad]})")
    return _quadrature(fs, grid, params.n)


def _quadrature(f: np.ndarray, grid: RadialGrid, n: int, out=None) -> float:
    """The one quadrature tail: omega * trapezoid of f r^(n-1), f finite and grid-shaped.

    The integrand f r^(n-1) is formed in out, which may be f itself when the
    caller owns f and is done with it, and else in the thread's work row.
    The decay rule's warning names the line that called the caller. It is
    raised once the sum is taken, so a warning hook that integrates again
    may overwrite the row, but never mid-sum.
    """
    w, rpow = grid.quadrature_factors(n)
    integrand = np.multiply(f, rpow, out=_work_row(f.size) if out is None else out)
    excess = _tail_excess(integrand)
    # np.sum is pairwise over contiguous float input: deterministic, schedule-free
    total = sphere_area(n) * float(np.sum(np.multiply(w, integrand, out=integrand)))
    if excess:
        warnings.warn(
            f"integrand at r_max={grid.r_max} is {excess:.2e} of its peak; increase r_max, "
            "or filter TailTruncationWarning for a deliberate ball integral",
            TailTruncationWarning,
            stacklevel=3,
        )
    return total


def conserved(snapshot: FlowSnapshot, params: GasParameters) -> ConservedReport:
    """Mass, kinetic and internal energy of a snapshot.

    E_total is the exact float sum e_kinetic + e_internal, bit-reproducible.
    The report is computed once per snapshot and (n, gamma), and kept on
    the snapshot: a second call returns the same report. Every integrand is
    formed in the thread's work row, so a call holds one node-length array
    of its own, 0.5 rho, and that only while it forms the kinetic density.
    """
    key = (params.n, params.gamma)
    rep = snapshot._reports.get(key)
    if rep is None:
        g = snapshot.grid
        mass = integrate_radial(snapshot.rho, g, params)
        # the work row holds each energy density in turn, and its integrand in place
        density = np.square(snapshot.v, out=_work_row(len(g)))
        e_k = integrate_radial(np.multiply(0.5 * snapshot.rho, density, out=density), g, params)
        e_i = integrate_radial(np.divide(snapshot.p, params.gamma - 1.0, out=density), g, params)
        rep = snapshot._reports[key] = ConservedReport(mass, e_k, e_i, e_k + e_i)
    return rep


# --- snapshot file format: a header line, `# t` and `# r_max` comments, CSV `r,rho,v,p` ---


def _fmt(x) -> str:
    """17 significant digits: every float reads back bit for bit."""
    return format(float(x), ".17g")


def _csv_rows(*columns) -> str:
    """Equal-length columns as the CSV rows of every artifact: `_fmt` floats, one `%` call."""
    flat = np.column_stack(columns).ravel().tolist()
    return (",".join(["%.17g"] * len(columns)) + "\n") * (len(flat) // len(columns)) % tuple(flat)


def snapshot_text(snapshot: FlowSnapshot, header: str) -> str:
    """The snapshot file: header line, `# t`, `# r_max`, then `r,rho,v,p` rows."""
    head = f"{header}\n# t {_fmt(snapshot.t)}\n# r_max {_fmt(snapshot.grid.r_max)}\nr,rho,v,p\n"
    return head + _csv_rows(snapshot.grid.r, snapshot.rho, snapshot.v, snapshot.p)


def _numeric(toks) -> bool:
    try:
        list(map(float, toks))
    except ValueError:
        return False
    return True


def _bad_row(path, rows, ncols: int, header) -> InvalidInputError | None:
    """The error for the first of rows, (line number, text), that is not ncols numbers; None if all are."""
    for i, (lineno, s) in enumerate(rows):
        toks = s.split(",")
        if not _numeric(toks):
            # a non-numeric line ahead of every data row is a misspelt header
            what = f"expected header {header}" if header and not i else f"malformed data row {s!r}"
            return InvalidInputError(f"{path}: line {lineno}: {what}")
        if len(toks) != ncols:
            return InvalidInputError(f"{path}: line {lineno}: expected {ncols} columns")


def _read_table(path, ncols: int, what: str, header: str | None = None, keys: dict | None = None):
    """The one CSV reader: rows of ncols finite numbers, every error an InvalidInputError `path: line N`.

    Blank lines and `#` comments are skipped; a `# key value` comment whose
    key is in `keys` sets that value. At most one header line leads the data:
    `header` itself when given, else any first line that is not all numbers.
    At least 2 data rows. The rows are converted in one pass; only a failed
    conversion looks for the offending line. Returns the (rows, ncols) array,
    a copy of `keys` with the values read, and the (line number, text) of
    each data row, so a caller's own check can name the line.
    """
    head, rows, tokens, first = dict(keys or {}), [], [], True
    with open(path) as f:
        for lineno, line in enumerate(f, start=1):
            s = line.strip()
            if not s:
                continue
            if s.startswith("#"):
                toks = s[1:].split()
                if len(toks) == 2 and toks[0] in head:
                    try:
                        head[toks[0]] = float(toks[1])
                    except ValueError:
                        # a bad row above this line is the first error
                        raise _bad_row(path, rows, ncols, header) or InvalidInputError(
                            f"{path}: line {lineno}: malformed header {s!r}") from None
                continue
            toks = s.split(",")
            if first:
                first = False
                if ([c.strip() for c in toks] == header.split(",")) if header else not _numeric(toks):
                    header = None  # taken: a later non-numeric line is a malformed row
                    continue
            rows.append((lineno, s))
            tokens += toks
            if len(toks) != ncols:
                raise _bad_row(path, rows, ncols, header)
    try:
        arr = np.array(list(map(float, tokens))).reshape(-1, ncols)
    except ValueError:
        raise _bad_row(path, rows, ncols, header) from None
    bad = ~np.isfinite(arr)
    if bad.any():
        lineno, s = rows[int(np.argmax(bad.any(axis=1)))]
        raise InvalidInputError(f"{path}: line {lineno}: non-finite value in row {s!r}")
    if len(rows) < 2:
        raise InvalidInputError(f"{path}: {what} needs at least 2 data rows")
    return arr, head, rows


def load_snapshot(path) -> FlowSnapshot:
    """Read a snapshot file; any malformed content raises InvalidInputError naming the path.

    Comment lines other than `# t <value>` and `# r_max <value>` are skipped;
    t defaults to 0 and r_max to the last node.
    """
    arr, head, _ = _read_table(path, 4, "snapshot", header="r,rho,v,p", keys={"t": 0.0, "r_max": None})
    try:
        grid = RadialGrid(arr[:, 0], r_max=head["r_max"])
        return FlowSnapshot(grid, arr[:, 1], arr[:, 2], arr[:, 3], t=head["t"])
    except InvalidInputError as exc:
        raise InvalidInputError(f"{path}: {exc}") from None
