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
    "GasmomentsError",
    "ParameterError",
    "InvalidInputError",
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


class GasmomentsError(Exception):
    """Base of every error the library raises; each also keeps its builtin base (ValueError or RuntimeError)."""


class ParameterError(GasmomentsError, ValueError):
    """A physical or numerical parameter violates its contract."""


class InvalidInputError(GasmomentsError, ValueError):
    """Data is malformed, singular or degenerate for the operation (non-finite, zero normalization, ...)."""

    def __init__(self, message: str, index: int | None = None):
        super().__init__(message)
        self.index = index  # the bad sample the message names, for a table reader to name its line


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


def _finite(x, what: str, error=InvalidInputError):
    """The one finite-number rule: x, a number or a sequence of numbers, is finite; else error names it."""
    if not (np.isfinite(x).all() if isinstance(x, (tuple, list, np.ndarray)) else -math.inf < x < math.inf):
        raise error(f"{what} must be finite, got {x}")
    return x


def _signed(x, what: str, zero: bool = False):
    """The one sign rule: x is finite and > 0, or >= 0 with zero; anything else, NaN too, raises ParameterError."""
    if not (x >= 0.0 if zero else x > 0.0):
        raise ParameterError(f"{what} must be {'nonnegative' if zero else 'positive'}, got {x}")
    return _finite(x, what, ParameterError)


def _count(x, what: str, minimum: int):
    """The one count rule: x is an int or numpy integer, not a bool, and >= minimum; else ParameterError."""
    if isinstance(x, bool) or not isinstance(x, (int, np.integer)) or x < minimum:
        raise ParameterError(f"{what} must be an integer >= {minimum}, got {x!r}")
    return x


# beyond it Gamma(n/2), and with it sphere_area, overflows a float
MAX_DIMENSION = 343
# the count rule's name for n in the weight r^(2-n) of momenta.Power and exact's excluding-pressure route,
# the fundamental solution's only for n >= 3
_POWER_DIMENSION = "the power weight's dimension n"


def _dimension(n):
    """The one dimension rule: the count rule with n >= 1, and n <= MAX_DIMENSION; else ParameterError."""
    _count(n, "space dimension", 1)
    if n > MAX_DIMENSION:
        raise ParameterError(f"space dimension must be at most {MAX_DIMENSION}, got {n!r}")
    return n


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
        _dimension(self.n)
        if not 1.0 < self.gamma < math.inf:
            raise ParameterError(f"gamma must exceed 1, got {self.gamma}")
        if (self.gamma - 1.0) * self.n == math.inf:
            raise ParameterError(f"gamma={self.gamma} is too large for dimension n={self.n}: (gamma - 1) n overflows")


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _as_readonly(a, copy=True) -> np.ndarray:
    # own copy so freezing never mutates caller state; copy=None is for arrays made for the freeze
    return _frozen(np.array(a, dtype=float, copy=copy))


def _first_bad(a: np.ndarray, sign: str = "") -> int | None:
    """The one finder of a failure path's first bad sample: the flat index of a's first value that is not finite
    or, with sign "nonnegative" or "positive", is below 0 or not above it; None when there is none."""
    ok = np.isfinite(a)
    if sign:
        ok &= a >= 0.0 if sign == "nonnegative" else a > 0.0
    return None if ok.all() else int(ok.argmin())


def _samples(a, name: str, shape: tuple, copy=True, nonnegative: bool = False) -> np.ndarray:
    """The one sampled-array rule: a read-only float copy of a, of its axis's shape, finite and, if asked, >= 0;
    judged by a's extremes, which NaN fails. A breach names the first bad value and its index, kept as .index."""
    a = _as_readonly(a, copy)
    if a.shape != shape:
        raise InvalidInputError(f"{name} has shape {a.shape}, grid has {shape}")
    lo, hi = a.min(), a.max()
    finite = -math.inf < lo and hi < math.inf  # NaN fails both
    if finite and not (nonnegative and lo < 0.0):
        return a
    i = _first_bad(a, "nonnegative" if finite else "")
    raise InvalidInputError(f"{name} must be {'nonnegative' if finite else 'finite'}, got {a[i]} at index {i}", i)


def _axis(a, what: str, minimum: int, nonnegative: bool = False) -> np.ndarray:
    """The one sample-axis rule: a read-only float copy of a, 1-D, of >= minimum strictly increasing values that
    pass the sampled-array rule; else InvalidInputError, which keeps a named value's index as .index."""
    x = _as_readonly(a)
    if x.ndim != 1 or x.size < minimum:
        raise InvalidInputError(f"{what} must be 1-D with at least {minimum} values, got shape {x.shape}")
    rising = np.diff(_samples(x, what, x.shape, copy=None, nonnegative=nonnegative)) > 0.0
    if not rising.all():
        i = int(np.argmin(rising)) + 1
        raise InvalidInputError(f"{what} must strictly increase, got {x[i]} after {x[i - 1]} at index {i}", i)
    return x


def _freeze_samples(obj, names, grid, copy=True, signed=()) -> None:
    """Each named field of obj becomes its sampled-array rule's read-only copy, grid-shaped, and >= 0 if signed."""
    for name in names:
        object.__setattr__(obj, name, _samples(getattr(obj, name), name, grid.r.shape, copy, name in signed))


def _adopt(cls, **fields):
    """A cls taking over the arrays just made for it: __post_init__(copy=None) checks and freezes them in place."""
    obj = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(obj, name, value)
    obj.__post_init__(copy=None)
    return obj


@dataclass(frozen=True)
class RadialGrid:
    """Strictly increasing radii r[0] >= 0; r_max is the truncation radius."""

    r: np.ndarray
    r_max: float = None  # defaults to r[-1]

    def __post_init__(self):
        r = _axis(self.r, "grid radii", 2, nonnegative=True)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "_rpow", {})
        if self.r_max is None:
            object.__setattr__(self, "r_max", float(r[-1]))
        elif _finite(self.r_max, "r_max") < r[-1]:
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
        _finite(self.t, "snapshot time")
        _freeze_samples(self, ("rho", "v", "p"), self.grid, copy, signed=("rho", "p"))
        # conserved's reports, by (n, gamma); the arrays are frozen, so they never go stale
        object.__setattr__(self, "_reports", {})

    def temperature(self) -> np.ndarray:
        """theta = p / rho (R = 1) where rho > 0, zero on vacuum nodes: one masked divide into zeros."""
        return np.divide(self.p, self.rho, out=np.zeros(self.p.shape), where=self.rho > 0.0)


@dataclass(frozen=True)
class ConservedReport:
    mass: float
    e_kinetic: float
    e_internal: float
    e_total: float


def sphere_area(n: int) -> float:
    """Surface area omega_{n-1} = 2 pi^{n/2} / Gamma(n/2) of the unit sphere in R^n.

    Gamma(n/2) comes from its recurrence: a factorial for even n, a product
    up from Gamma(1/2) = sqrt(pi) for odd n. That is exact for n <= 12, and
    within a few roundings up to n = MAX_DIMENSION; beyond that Gamma(n/2) overflows a float.
    """
    _dimension(n)
    if n % 2 == 0:
        g = float(math.factorial(n // 2 - 1))
    else:
        g = math.sqrt(math.pi)
        z = 0.5
        while z < n / 2.0:
            g *= z
            z += 1.0
    return 2.0 * math.pi ** (n / 2.0) / g


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
    integrated a grid this large; f itself is only read. An integrand that
    is not finite raises InvalidInputError naming its first such node, and
    a sum that overflows a float raises it too; no numpy warning escapes.

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
    return _quadrature(fs, grid, params.n)


def _quadrature(f: np.ndarray, grid: RadialGrid, n: int, out=None) -> float:
    """The one quadrature tail, and the one judge of its finiteness: omega * trapezoid of f r^(n-1), f grid-shaped.

    The integrand f r^(n-1) is formed in out, which may be f itself when the
    caller owns f and is done with it, and else in the thread's work row.
    The decay rule's warning names the line that called the caller. It is
    raised once the sum is taken, so a warning hook that integrates again
    may overwrite the row, but never mid-sum.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow, unwarned, leaves a total that is not finite
        w, rpow = grid.quadrature_factors(n)
        integrand = np.multiply(f, rpow, out=_work_row(f.size) if out is None else out)
        excess = _tail_excess(integrand)
        # np.sum is pairwise over contiguous float input: deterministic, schedule-free
        total = sphere_area(n) * float(np.sum(np.multiply(w, integrand, out=integrand)))
    if not math.isfinite(total):  # name the first term that is not finite, or else the sum
        i = _first_bad(integrand)
        raise InvalidInputError("radial integral overflows a float" if i is None else
                                f"radial integrand is not finite at node {i} (r={grid.r[i]})")
    if excess:
        warnings.warn(
            f"integrand at r_max={grid.r_max} is {excess:.2e} of its peak; increase r_max, "
            "or filter TailTruncationWarning for a deliberate ball integral",
            TailTruncationWarning,
            stacklevel=3,
        )
    return total


@np.errstate(over="ignore", invalid="ignore")  # an energy density that overflows is the quadrature's to name
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
        if not math.isfinite(e_k + e_i):
            raise InvalidInputError(f"total energy overflows a float: e_kinetic={e_k}, e_internal={e_i}")
        rep = snapshot._reports[key] = ConservedReport(mass, e_k, e_i, e_k + e_i)
    return rep


# --- snapshot file format: a header line, `# t` and `# r_max` comments, CSV `r,rho,v,p` ---


def _fmt(x) -> str:
    """17 significant digits: every float reads back bit for bit."""
    return format(float(x), ".17g")


# a table of this many values or more goes through the array kernel, which beats `%` from here on
# (measured: the break-even is near 340 values)
_KERNEL_MIN = 512
# values per kernel block: larger blocks' temporaries fault their pages in again once the allocator trims them
_BLOCK = 2048


def _csv_rows(*columns) -> str:
    """Equal-length columns as the CSV rows of every artifact, each value `_fmt`'s bytes.

    A table of fewer than _KERNEL_MIN values is one `%` call; a larger one
    is formatted by `_kernel_cells` in equal blocks of at most _BLOCK values.
    """
    flat = np.column_stack(columns).ravel()
    ncols = len(columns)
    if flat.size < _KERNEL_MIN:
        return (",".join(["%.17g"] * ncols) + "\n") * (flat.size // ncols) % tuple(flat.tolist())
    # each value's cell ends in its separator, in the last byte of its last word
    seps = np.full(flat.size, ord(",") << 56, dtype=np.uint64)
    seps[ncols - 1 :: ncols] = ord("\n") << 56
    x = flat.astype(np.float64, copy=False)
    size = -(-x.size // -(-x.size // _BLOCK))  # equal blocks of at most _BLOCK values
    blocks = (_kernel_cells(x[i : i + size], seps[i : i + size]) for i in range(0, x.size, size))
    # a cell is its text padded with zero bytes, which only the padding holds
    return b"".join(cells.tobytes().translate(None, b"\0") for cells in blocks).decode("ascii")


# x = m 2^e with m in [2^52, 2^53) (subnormals normalized); k is its decimal exponent,
# and q = 16 - k scales it to 17 digits
_E_MIN, _E_MAX, _K_MIN, _K_MAX = -1126, 971, -324, 308
_M32 = np.uint64(0xFFFFFFFF)
_HALF = np.uint64(1 << 63)
# the computed 64-bit fraction falls short of the exact one by less than _SLACK + 1, since m < 2^53 and s - 64 >= 27
_SLACK = np.uint64(1 << (53 - 27))


@functools.cache
def _kernel_tables() -> dict:
    """The kernel's tables, from exact Python int arithmetic on first use.

    Per binary exponent e: k0, the decimal exponent of 2^(e+52), and the
    least m with m 2^e >= 10^(k0+1). Per q: T = floor(10^q 2^-b) in
    [2^95, 2^96) as three 32-bit limbs, and the shift -b - 11 that turns
    frexp's exponent into s - 64. Per decimal exponent k, `%.17g`'s layout:
    the lead word (its sign byte free, then `0.` and zeros for -4 <= k < 0),
    the suffix word (`e+XX`), the digit index the point precedes (17: no
    point), and the integer digits a fixed layout keeps.
    """

    def at_least(E, k):  # 2^E >= 10^k
        return (1 << max(E, 0)) * 10 ** max(-k, 0) >= (1 << max(-E, 0)) * 10 ** max(k, 0)

    k0, thr = [], []
    for e in range(_E_MIN, _E_MAX + 1):
        k = ((e + 52) * 78913) >> 18  # floor((e + 52) log10 2), give or take one
        k += at_least(e + 52, k + 1) - (not at_least(e + 52, k))
        k0.append(k)
        thr.append(-(-(10 ** max(k + 1, 0) << max(-e, 0)) // (10 ** max(-k - 1, 0) << max(e, 0))))
    limbs, shift = [], []
    for q in range(16 - _K_MAX, 17 - _K_MIN):
        p = 10 ** abs(q)
        b = p.bit_length() - 96 if q >= 0 else -(p.bit_length() + 95)
        T = (p >> b if b >= 0 else p << -b) if q >= 0 else (1 << -b) // p
        limbs.append([T & 0xFFFFFFFF, (T >> 32) & 0xFFFFFFFF, T >> 64])
        shift.append(-b - 11)
    lead, suffix, point, whole = [], [], [], []
    for k in range(_K_MIN, _K_MAX + 1):
        fixed = -4 <= k <= 16
        lead.append(int.from_bytes(b"\0" + (b"0." + b"0" * (-k - 1) if fixed and k < 0 else b""), "little"))
        suffix.append(int.from_bytes(b"" if fixed else b"e%+03d" % k, "little"))
        point.append((k + 1 if k >= 0 else 17) if fixed else 1)
        whole.append(k + 1 if fixed and k >= 0 else 1)
    u64 = lambda a: np.array(a, dtype=np.uint64)
    quad = np.arange(10_000, dtype=np.uint64)
    tables = {
        # by x < 10^4: its four digits as byte values, the first in the lowest byte
        "quad": quad // 1000 | quad // 100 % 10 << 8 | quad // 10 % 10 << 16 | quad % 10 << 24,
        "k0": np.array(k0), "thr": u64(thr), "limbs": u64(limbs).T.copy(), "shift": np.array(shift),
        "lead": u64(lead), "suffix": u64(suffix), "point": np.array(point), "whole": np.array(whole),
    }
    return {name: _frozen(a) for name, a in tables.items()}  # shared by every caller


def _word_table(value) -> np.ndarray:
    """(3, 18) uint64: value(i, first, size) for each digit word and i = 0..17."""
    return _frozen(np.array([[value(i, first, size) for i in range(18)] for first, size in _WORDS], dtype=np.uint64))


# the three digit words: (first digit, digits held), one digit per byte, with a byte to spare for the point
_WORDS = ((0, 3), (3, 7), (10, 7))
# the first word's three digits come out of its four-digit group at bytes 4-6
_WORD_SHIFT = np.array([[32], [0], [0]], dtype=np.uint64)
_WORD_FIRST = np.array([[first] for first, _ in _WORDS])
# by significant digits nd: ASCII zeros to add to each word's digits through the nd-th
_ZEROS = _word_table(lambda nd, first, size: int.from_bytes(b"0" * min(max(nd - first, 0), size), "little"))
# by the index ip of the digit the point precedes (0: no point): each word's bytes below the point, and the point
_BELOW = _word_table(lambda ip, first, size: (1 << 8 * (ip - first if 0 < ip and 0 <= ip - first < size else 8)) - 1)
_POINT = _word_table(lambda ip, first, size: ord(".") << 8 * (ip - first) if 0 < ip and 0 <= ip - first < size else 0)


def _round_half(F: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(rounds up, undecided) for computed 64-bit fractions F, each short of the exact one by less than _SLACK + 1.

    F <= 2^63 - _SLACK - 1 leaves the exact fraction below one half, and
    F > 2^63 puts it above; the window 2^63 - _SLACK <= F <= 2^63, every
    exact tie among it, is undecided.
    """
    return F > _HALF, (F >= _HALF - _SLACK) & (F <= _HALF)


def _kernel_cells(x: np.ndarray, seps: np.ndarray) -> np.ndarray:
    """Each value's `%.17g` text and separator as five words, zero bytes padding it.

    x = m 2^e has decimal exponent k = floor(log10 |x|), and the digits
    D = m 2^e 10^q with q = 16 - k, rounded half-even, lie in [10^16, 10^17).
    The product is taken with T = floor(10^q 2^-b) for 10^q 2^-b, short by
    less than 1, so m T falls short of the exact product by less than
    2^53. Its bits from s - 64 up give D's truncation and a 64-bit
    fraction F, where s - 64 >= 27; F therefore falls short of the exact
    fraction by less than 2^(53-27) + 1 = _SLACK + 1. `_round_half` reads
    F; its undecided window goes to `_fmt`, as do NaN and inf. A carry
    needs no window: an exact fraction of 1 or more means D + 1 with a
    remainder below 2^-37, which rounds to the same D + 1 as F > 2^63.
    """
    t = _kernel_tables()
    u = np.uint64
    finite = np.isfinite(x)
    mant, ex = np.frexp(np.abs(x if finite.all() else np.where(finite, x, 0.0)))
    m = (mant * 2.0**53).astype(u)
    ie = ex - (53 + _E_MIN)
    k = t["k0"][ie] + (m >= t["thr"][ie])
    iq = _K_MAX - k  # q's index in the tables, which start at q = 16 - _K_MAX
    s = (t["shift"][iq] - ex).astype(u)  # s - 64, in [27, 31]
    t0, t1, t2 = np.take(t["limbs"], iq, axis=1)
    # m T = h 2^96 + r2 2^64 + r1 2^32 + r0, in 32-bit columns with carries
    m0, m1 = m & _M32, m >> u(32)
    p00, p01, p10, p02, p11 = m0 * t0, m0 * t1, m1 * t0, m0 * t2, m1 * t1
    c1 = (p00 >> u(32)) + (p01 & _M32) + (p10 & _M32)
    c2 = (c1 >> u(32)) + (p01 >> u(32)) + (p10 >> u(32)) + (p02 & _M32) + (p11 & _M32)
    h = (c2 >> u(32)) + (p02 >> u(32)) + (p11 >> u(32)) + m1 * t2
    r2 = c2 & _M32
    D = (h << (u(32) - s)) | (r2 >> s)
    F = ((p00 & _M32) >> s) | ((c1 & _M32) << (u(32) - s)) | (r2 << (u(64) - s))
    up, fallback = _round_half(F)
    fallback |= ~finite
    D += up
    carry = D == u(10**17)
    D[carry] = u(10**16)
    k += carry
    k[m == 0] = 0  # ±0 takes the fixed layout of k = 0, with no digit kept but its first
    ik = k - _K_MIN
    W = np.empty((3, x.size), dtype=u)
    W[0] = D // u(10**14)
    W[2] = D - W[0] * u(10**14)
    W[1] = W[2] // u(10**7)
    W[2] -= W[1] * u(10**7)
    # each word's digits from two four-digit groups: three digits in the first, seven in the others
    hi = W // u(10_000)
    W = ((np.take(t["quad"], hi) >> u(8)) | (np.take(t["quad"], W - hi * u(10_000)) << u(24))) >> _WORD_SHIFT
    # significant digits: through the last nonzero byte, and the integer part; a word's bytes are at most 9,
    # so its float rounding keeps its bit length
    used = (np.frexp(W.astype(np.float64))[1] + 7) >> 3
    nd = np.maximum(((used + _WORD_FIRST) * (used > 0)).max(axis=0), t["whole"][ik])
    W += np.take(_ZEROS, nd, axis=1)
    # the point goes in where a digit follows it: the bytes from it up move one byte
    ip = t["point"][ik]
    ip[nd <= ip] = 0
    below = np.take(_BELOW, ip, axis=1)
    W = (W & below) | np.take(_POINT, ip, axis=1) | ((W & ~below) << u(8))
    cells = np.empty((x.size, 5), dtype="<u8")  # the words' low bytes come first, whatever the host
    cells[:, 0] = t["lead"][ik] | np.signbit(x).astype(u) * u(ord("-"))
    cells[:, 1:4] = W.T
    cells[:, 4] = t["suffix"][ik] | seps
    text = cells.view(np.uint8).reshape(x.size, 40)
    for i in np.flatnonzero(fallback):
        text[i, :39] = 0
        b = _fmt(x[i]).encode()
        text[i, : len(b)] = np.frombuffer(b, np.uint8)
    return cells


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


def _read_text(path) -> str:
    """The file's text in the locale's encoding less one leading byte-order mark; a bad byte names its line."""
    try:
        with open(path) as f:
            return f.read().removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        # the error holds the whole file; count its lines as text mode ends them
        lineno = exc.object[: exc.start].replace(b"\r\n", b"\n").replace(b"\r", b"\n").count(b"\n") + 1
        raise InvalidInputError(
            f"{path}: line {lineno}: byte 0x{exc.object[exc.start]:02x} is not {exc.encoding} text") from None


def _clean_block(lines: list, ncols: int, text: str):
    """The data lines, from the first data row on, as one np.loadtxt array; None where the line walk must read them.

    loadtxt reads a block as float() reads each value only where every line is
    a row of numbers: it skips an empty line, shifting every line number after
    it, and strips the separators \\x1c-\\x1f around a value, which float()
    rejects, so a file whose text holds one is left to the walk. Any other
    line the walk skips or rejects, a comment, a blank line or a malformed
    row, makes it raise or miscount the rows or columns.
    """
    while not lines[-1].strip():
        lines.pop()  # trailing blank lines shift no line number
    if "" in lines or any(c in text for c in "\x1c\x1d\x1e\x1f"):
        return None
    try:
        arr = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)
    except ValueError:
        return None
    return arr if arr.shape == (len(lines), ncols) and np.isfinite(arr).all() else None


def _read_table(path, ncols: int, what: str, header: str | None = None, keys: dict | None = None):
    """The one CSV reader: rows of ncols finite numbers, every error an InvalidInputError `path: line N`.

    Blank lines and `#` comments are skipped; a `# key value` comment whose
    key is in `keys` sets that value. At most one header line leads the data:
    `header` itself when given, else any first line that is not all numbers.
    At least 2 data rows. A data block with no comment or blank line among its
    rows is converted by one np.loadtxt call; any other, and any that call
    rejects, is walked line by line and raises at the first bad line. Returns
    the (rows, ncols) array, a copy of `keys` with the values read, and each
    data row's line number, so a caller's own check can name the line.
    """
    text = _read_text(path)
    lines = text.split("\n")
    head, rows, values, first, arr = dict(keys or {}), [], [], True, None
    for lineno, line in enumerate(lines, start=1):
        s = line.strip()
        if not s:
            continue
        if s.startswith("#"):
            toks = s[1:].split()
            if len(toks) == 2 and toks[0] in head:
                try:
                    head[toks[0]] = float(toks[1])
                except ValueError:
                    raise InvalidInputError(f"{path}: line {lineno}: malformed header {s!r}") from None
            continue
        toks = s.split(",")
        if first:
            first = False
            if ([c.strip() for c in toks] == header.split(",")) if header else not _numeric(toks):
                header = None  # taken: a later non-numeric line is a malformed row
                continue
        if not rows:
            arr = _clean_block(lines[lineno - 1:], ncols, text)
            if arr is not None:
                rows = range(lineno, lineno + len(arr))
                break
        try:
            values += map(float, toks)
        except ValueError:
            # a non-numeric line ahead of every data row is a misspelt header
            problem = f"expected header {header}" if header and not rows else f"malformed data row {s!r}"
            raise InvalidInputError(f"{path}: line {lineno}: {problem}") from None
        if len(toks) != ncols:
            raise InvalidInputError(f"{path}: line {lineno}: expected {ncols} columns")
        rows.append(lineno)
    if arr is None:
        arr = np.array(values).reshape(-1, ncols)
        i = _first_bad(arr)
        if i is not None:
            lineno = rows[i // ncols]
            raise InvalidInputError(f"{path}: line {lineno}: non-finite value in row {lines[lineno - 1].strip()!r}")
    if len(rows) < 2:
        raise InvalidInputError(f"{path}: {what} needs at least 2 data rows")
    return arr, head, rows


def _load_table(path, ncols: int, what: str, build, **read):
    """build(*columns, **keys read) of a `_read_table` table; a rejection names the path, a bad sample its line."""
    arr, head, rows = _read_table(path, ncols, what, **read)
    try:
        return build(*arr.T, **head)
    except InvalidInputError as exc:
        index = exc.index  # set by the axis and sampled-array rules
        raise InvalidInputError(f"{path}: {exc}" if index is None else f"{path}: line {rows[index]}: {exc}") from None


def load_snapshot(path) -> FlowSnapshot:
    """Read a snapshot file; any malformed content raises InvalidInputError naming the path.

    Comment lines other than `# t <value>` and `# r_max <value>` are skipped;
    t defaults to 0 and r_max to the last node.
    """
    return _load_table(path, 4, "snapshot", lambda r, rho, v, p, t, r_max: FlowSnapshot(
        RadialGrid(r, r_max=r_max), rho, v, p, t=t), header="r,rho,v,p", keys={"t": 0.0, "r_max": None})
