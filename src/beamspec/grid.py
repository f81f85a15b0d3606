"""Uniform grids on [0, 1], sampled functions, and finite differences.

Everything downstream works with functions held as values on the nodes
t_i = i*h, i = 0..n+1, h = 1/(n+1).  Interior nodes are i = 1..n; the two
endpoint values are stored explicitly because the boundary conditions
u(0) = u(1) = u''(0) = u''(1) = 0 are the central constraint set.

All stencils are second order: centered in the interior, one-sided at the
endpoints, so every operation has a single O(h^2) convergence story.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import GridMismatch, TooCoarse, ValidationError

MIN_INTERIOR = 8


@dataclass(frozen=True, eq=False)
class Grid:
    """Uniform grid with n_interior interior nodes and spacing h = 1/(n+1)."""

    n_interior: int
    h: float
    nodes: np.ndarray

    @property
    def interior_nodes(self):
        return self.nodes[1:-1]

    def __len__(self):
        return self.n_interior + 2


def make_grid(n_interior):
    """Build the uniform grid on [0, 1] with the given interior node count."""
    if n_interior < MIN_INTERIOR:
        raise TooCoarse(f"need at least {MIN_INTERIOR} interior nodes, got {n_interior}")
    n_interior = int(n_interior)
    return Grid(n_interior=n_interior, h=1.0 / (n_interior + 1),
                nodes=np.linspace(0.0, 1.0, n_interior + 2))


def same_grid(a, b):
    return a.n_interior == b.n_interior and a.h == b.h


@dataclass(frozen=True, eq=False)
class SampledFn:
    """Function on [0, 1] held as values on a uniform grid (endpoints included)."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (len(self.grid),):
            raise GridMismatch(
                f"value vector has length {vals.shape}, grid wants {len(self.grid)}")
        if not np.all(np.isfinite(vals)):
            raise ValueError("sampled values must be finite")
        object.__setattr__(self, "values", vals)

    @property
    def interior(self):
        return self.values[1:-1]

    def __add__(self, other):
        _check_same_grid(self, other)
        return SampledFn(self.grid, self.values + other.values)

    def __sub__(self, other):
        _check_same_grid(self, other)
        return SampledFn(self.grid, self.values - other.values)

    def __mul__(self, c):
        return SampledFn(self.grid, self.values * float(c))

    __rmul__ = __mul__

    def __neg__(self):
        return SampledFn(self.grid, -self.values)


def _check_same_grid(a, b):
    if not same_grid(a.grid, b.grid):
        raise GridMismatch("operands live on different grids")


def sample(fn, grid):
    """Sample a callable t -> value on the grid nodes."""
    return SampledFn(grid, np.asarray(fn(grid.nodes), dtype=float))


def from_interior(grid, interior_values):
    """Wrap an interior-node vector with zero endpoint values."""
    vals = np.zeros(len(grid))
    vals[1:-1] = interior_values
    return SampledFn(grid, vals)


def derivative(u, order):
    """Finite-difference derivative of the given order (1, 2 or 3).

    Centered second-order stencils at interior nodes, one-sided
    second-order stencils at (and, for order 3, next to) the endpoints.
    Returned on the same grid.  The stencils are linear in u and exact on
    polynomials of degree <= order + 1.
    """
    if order not in (1, 2, 3):
        raise ValueError(f"order must be 1, 2 or 3, got {order}")
    v = u.values
    h = u.grid.h
    out = np.empty_like(v)
    if order == 1:
        out[1:-1] = (v[2:] - v[:-2]) / (2.0 * h)
        out[0] = (-3.0 * v[0] + 4.0 * v[1] - v[2]) / (2.0 * h)
        out[-1] = (3.0 * v[-1] - 4.0 * v[-2] + v[-3]) / (2.0 * h)
    elif order == 2:
        out[1:-1] = (v[2:] - 2.0 * v[1:-1] + v[:-2]) / h**2
        out[0] = (2.0 * v[0] - 5.0 * v[1] + 4.0 * v[2] - v[3]) / h**2
        out[-1] = (2.0 * v[-1] - 5.0 * v[-2] + 4.0 * v[-3] - v[-4]) / h**2
    else:
        out[2:-2] = (-v[:-4] + 2.0 * v[1:-3] - 2.0 * v[3:-1] + v[4:]) / (2.0 * h**3)
        for i in (0, 1):
            out[i] = (-2.5 * v[i] + 9.0 * v[i + 1] - 12.0 * v[i + 2]
                      + 7.0 * v[i + 3] - 1.5 * v[i + 4]) / h**3
        nlast = len(v) - 1
        for i in (nlast - 1, nlast):
            out[i] = (2.5 * v[i] - 9.0 * v[i - 1] + 12.0 * v[i - 2]
                      - 7.0 * v[i - 3] + 1.5 * v[i - 4]) / h**3
    return SampledFn(u.grid, out)


def derivative_fields(u):
    """The derivative fields (u', u'', u''') of u, each by derivative."""
    return tuple(derivative(u, order) for order in (1, 2, 3))


def e_norm_of_fields(u, fields):
    """E-norm of u from its derivative_fields, summed in one place so that
    e_norm and a nodal profile's norm are the same float."""
    return sum(float(np.max(np.abs(f.values))) for f in (u,) + fields)


def e_norm(u):
    """C^3-type norm: the sum of the sup norms of u and its first three derivatives."""
    return e_norm_of_fields(u, derivative_fields(u))


def interior_dot(u, v):
    """h-weighted inner product over interior nodes (discrete L2)."""
    _check_same_grid(u, v)
    return float(u.grid.h * np.dot(u.interior, v.interior))


def to_csv(u, path):
    """Write (t, value) rows with full 17-significant-digit decimals."""
    with open(path, "w") as fh:
        fh.write("t,value\n")
        for t, v in zip(u.grid.nodes, u.values):
            fh.write(f"{t:.17g},{v:.17g}\n")


def read_rows(path):
    """The rows below the header line of a CSV file, as a 2-D array."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # an empty body is refused below
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if len(data) == 0:
        raise ValidationError(f"{path}: no data rows below the header")
    return data


def from_csv(path):
    """Read a SampledFn written by to_csv; the grid is rebuilt from the t column."""
    data = read_rows(path)
    if len(data) < MIN_INTERIOR + 2:
        raise TooCoarse(f"{path}: need at least {MIN_INTERIOR + 2} data rows "
                        f"({MIN_INTERIOR} interior nodes and 2 endpoints), got {len(data)}")
    t, v = data[:, 0], data[:, 1]
    grid = make_grid(len(t) - 2)
    if not np.allclose(t, grid.nodes, atol=1e-12):
        raise GridMismatch(f"{path}: t column is not the uniform grid on [0, 1]")
    return SampledFn(grid, v)
