"""Convex optimization engines for graph domains.

* ``solve_p_harmonic``: Dirichlet energy minimizer with pinned values, by
  Newton iterations with exact line search under a geometric regularization
  schedule (p = 2 reduces to one exact sparse linear solve).  eps falls
  by factors of 1e-3 to 1e-12 of the data range, from the first level
  below the initial iterate's largest edge difference; every level but the
  last is only the next level's warm start and stops at a relative energy
  drop below sqrt(tol), and the last level stops at a drop below tol with
  a step of at most 1e-10 of the range.  The exact line search finds the
  root of the slope by ``brentq``, a port of Brent's method as scipy's C
  ``brentq`` runs it.  The Newton steps and the line search act only on
  the edges with a free end; the first Hessian of a solve is ordered by
  minimum degree on A^T + A, the later ones reuse that order and a planned
  CSC structure (_NewtonSystem), and SuperLU factors them in symmetric
  mode with one-column panels and no relaxed supernodes, once in all at
  p = 2; a solve that is not finite raises.  ``_minimize`` drives it:
  ``_setup`` checks and plans, ``_newton_level`` runs one eps level.
* ``capacity``: condenser capacity as the energy of the equilibrium
  potential (pins 1 on E, 0 on F, restricted to U).
* ``modulus``: p-modulus of the E-F path family by cutting-plane constraint
  generation.  The driver routes the first path into a dense path matrix
  (``_PathMatrix``: one row per generated path, one column per edge those
  paths use).  ``_seed`` adds a greedy path decomposition of the capacity
  flow (the optimal path multipliers through an edge sum to p times that
  flow), or is dropped with the flag ``seed-failed`` when that capacity
  solve fails.  ``_cutting_planes`` solves each restricted program through
  its smooth Lagrangian dual by projected Newton.  A round that only
  produces the next cut stops its dual at KKT 1e-3 times the violation of
  the last admitted path; the loop ends after a solve to KKT 1e-12 and one
  more route, whose dual value is returned as a lower bound.
* ``capacity_of_infinity``: shell condenser around the added point of a
  transformed space; the probe behind parabolicity classification.
* ``solve_dirichlet_unbounded``: transform, attach infinity, pin boundary
  data (optionally a value at infinity), solve, restrict back.

The regularized objective is sum_e m(e) (|du(e)|^2 + eps^2)^{p/2} / l(e)^p,
so regularization commutes exactly with the dampening transform: base and
transformed problems have identical objectives for every eps, not only in
the limit.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components
# spsolve is not called here; bench/spans.py wraps it by name
from scipy.sparse.linalg import splu, spsolve

from .dampening import Dampening
from .energy import edge_mass
from .graphspace import GraphSpace, shortest_route
from .transform import TransformedSpace, attach_infinity, transform


class SolverError(ValueError):
    pass


def __getattr__(name: str):
    # Nothing here calls minimize, but bench/spans.py wraps solver.minimize
    # by name, so scipy.optimize is imported only when that name is asked
    # for.  ROADMAP item 2 (a benchmark change) removes the name.
    if name == "minimize":
        from scipy.optimize import minimize

        return minimize
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# the default eps ladder's factor, and its floor (see SolveOptions)
EPS_FACTOR = 1e-3
EPS_FLOOR = 1e-10


@dataclass
class SolveOptions:
    """Newton continuation settings.

    ``tol`` is the stop test at the final eps level (relative energy drop
    per Newton step); every earlier level stops below ``sqrt(tol)``.  For
    p != 2 the final level also waits for a Newton step of at most
    ``EPS_FLOOR * range`` (1e-10 of the spread of the pinned values).  The
    default schedule is ``range * EPS_FACTOR**k`` for k = 0..4, down to
    the first power at or below EPS_FLOOR, so its last eps is 1e-12 * range;
    its leading levels whose eps is at least the initial iterate's largest
    edge difference are dropped (always eps = range).  A passed
    ``eps_schedule`` is used verbatim (nonempty, finite, and positive for
    p != 2).
    """

    tol: float = 1e-12
    max_iter: int = 500
    eps_schedule: list | None = None
    init: str = "harmonic"


@dataclass
class DirichletProblem:
    space: object
    p: float
    boundary_data: dict
    options: SolveOptions = field(default_factory=SolveOptions)


@dataclass
class SolveResult:
    u: np.ndarray
    energy: float
    iterations: int
    residual: float
    flags: list


@dataclass
class Condenser:
    E: list
    F: list
    U: list | None = None


@dataclass
class CapacityResult:
    value: float
    potential: np.ndarray
    solve: SolveResult


@dataclass
class ModulusResult:
    value: float
    lower: float
    rho: np.ndarray
    paths_used: int
    flags: list


@dataclass
class UnboundedSolveResult:
    u: np.ndarray
    at_infinity_value: float
    transformed: TransformedSpace
    solve: SolveResult


# ---------------------------------------------------------------------------
# regularized edge functionals


def _psi_sum(a, d, p, eps):
    if p == 2:
        return float(np.sum(a * (d * d + eps * eps)))
    return float(np.sum(a * (d * d + eps * eps) ** (p / 2)))


def _psi_prime(a, d, p, eps):
    if p == 2:
        return 2.0 * a * d
    return a * p * d * (d * d + eps * eps) ** ((p - 2) / 2)


def _psi_second(a, d, p, eps):
    if p == 2:
        return 2.0 * a
    s = d * d + eps * eps
    return a * p * s ** ((p - 4) / 2) * ((p - 1) * d * d + eps * eps)


def _slope_sum(g: np.ndarray) -> float:
    """Line-search slope from its per-edge terms g; 0 when the sum is within
    round-off of the terms, where its sign is noise and brentq would only
    bisect it down to xtol, so such a t counts as the root."""
    s = float(np.sum(g))
    return 0.0 if abs(s) <= 1e-14 * float(np.sum(np.abs(g))) else s


# brentq's relative tolerance and iteration budget (scipy's defaults)
_BRENT_RTOL = 4 * float(np.finfo(float).eps)
_BRENT_MAXITER = 100


def _negative(x: float) -> bool:
    """C's signbit, which the sign tests use: true for -0.0 too."""
    return math.copysign(1.0, x) < 0.0


def brentq(f, a: float, b: float, xtol: float) -> float:
    """Root of f in [a, b] by Brent's method (Brent 1973, ch. 4): a port
    of scipy's C ``brentq`` loop that does the same float operations in
    the same order, so it returns the same root after the same calls."""

    def value(x: float) -> float:
        fx = f(x)
        if math.isnan(fx):
            raise SolverError(f"line search: slope at t={x!r} is NaN")
        return fx

    xpre, xcur = a, b
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if _negative(fpre) == _negative(fcur):
        raise SolverError(f"line search: slope has one sign on [{a!r}, {b!r}]")
    for _ in range(_BRENT_MAXITER):
        if fpre != 0 and fcur != 0 and _negative(fpre) != _negative(fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + _BRENT_RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:  # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:  # C's inf or NaN fails the step test: bisect
                stry = math.inf
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):  # good short step
                spre, scur = scur, stry
            else:  # bisect
                spre = scur = sbis
        else:  # bisect
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = value(xcur)
    raise SolverError(f"line search: no convergence after {_BRENT_MAXITER} iterations")


# The first factorization of a solve orders the Hessian by minimum degree on
# A^T + A, which fills the factors far less than SuperLU's default COLAMD.
ORDERING = "MMD_AT_PLUS_A"
# SuperLU's panel width and relaxed-supernode size: the supernodes of these
# mesh Hessians are narrow, and one-column panels with no relaxed supernodes
# measured 7-50% less time per factorization from n = 20 to n = 19,356.
PANEL_SIZE = 1
RELAX = 1

# relative residual above which a sparse solve gets one refinement step
LINEAR_RESIDUAL = 1e-10


class _NewtonSystem:
    """Newton Hessians sum_e w(e) (1_su - 1_sv)(1_su - 1_sv)^T, su/sv the
    free slots of the moving edges' ends (-1 at a fixed end, fu/fv False).
    The first is factored in the order ORDERING finds, which is then baked
    into a CSC plan: each later one is one bincount, already permuted,
    factored in natural order, in one-column panels with no relaxed
    supernodes (PANEL_SIZE, RELAX).  A factor is freed after its solve (held
    through a line search, it fragments the heap) unless ``keep``: then
    the Hessian is constant and its one factor serves every solve.  A
    solve that is not finite after refinement is a SolverError.
    """

    def __init__(self, su, sv, fu, fv, n: int, keep: bool):
        ff, fx = self.ff, self.fx = fu & fv, fu ^ fv
        sfx = np.where(fu[fx], su[fx], sv[fx])
        self.rows = np.concatenate([su[ff], sv[ff], su[ff], sv[ff], sfx])
        self.cols = np.concatenate([su[ff], sv[ff], sv[ff], su[ff], sfx])
        self.n, self.keep, self.order, self.cell, self.lu = n, keep, None, None, None
        self.su, self.sv, self.fu, self.fv, self.gu, self.gv = su, sv, fu, fv, su[fu], sv[fv]

    def gradient(self, w: np.ndarray) -> np.ndarray:
        """Gradient over the free slots from the per-edge derivatives w."""
        up = np.bincount(self.gu, weights=w[self.fu], minlength=self.n)
        return up - np.bincount(self.gv, weights=w[self.fv], minlength=self.n)

    def _assemble(self, w: np.ndarray) -> sp.csc_matrix:
        n, o, wf = self.n, self.order, w[self.ff]
        data = np.concatenate([wf, wf, -wf, -wf, w[self.fx]])
        if o is None:
            return sp.csc_matrix((data, (self.rows, self.cols)), shape=(n, n))
        if self.cell is None:
            cells, self.cell = np.unique(o[self.cols] * n + o[self.rows], return_inverse=True)
            self.indices = (cells % n).astype(np.int32)
            self.indptr = np.searchsorted(cells, np.arange(n + 1) * n).astype(np.int32)
        vals = np.bincount(self.cell, weights=data, minlength=self.indices.size)
        return sp.csc_matrix((vals, self.indices, self.indptr), shape=(n, n))

    def solve(self, b: np.ndarray, flags: list, w: np.ndarray) -> np.ndarray:
        """Solve with the Hessian of weights w (a kept factor ignores w), refined once."""
        if self.lu is None:
            self.H = self._assemble(w)
            try:
                self.lu = splu(self.H, permc_spec="NATURAL" if self.cell is not None else ORDERING,
                               diag_pivot_thresh=0.0, relax=RELAX, panel_size=PANEL_SIZE,
                               options={"SymmetricMode": True})
            except RuntimeError as exc:  # SuperLU: "Factor is exactly singular"
                raise SolverError(f"Newton system: {exc}") from exc
            if self.order is None:  # int64 keys col * n + row; a view would pin the factor
                self.order = self.lu.perm_c.astype(np.int64)
        frame = self.order if self.cell is not None else slice(None)
        pb = np.empty(self.n)
        pb[frame] = b
        x = self.lu.solve(pb)
        # at a huge p or eps the norms overflow; the factor or the finite test below fails
        with np.errstate(over="ignore", invalid="ignore"):
            bn = float(np.linalg.norm(b))
            if bn > 0:
                res = float(np.linalg.norm(self.H @ x - pb)) / bn
                if res > LINEAR_RESIDUAL:
                    x = x + self.lu.solve(pb - self.H @ x)
                    res = float(np.linalg.norm(self.H @ x - pb)) / bn
                    if res > LINEAR_RESIDUAL:
                        flags.append(f"linear-residual {res:.2e}")
        if not self.keep:
            self.lu = self.H = None
        if not np.isfinite(x).all():
            raise SolverError("Newton system: the solve is not finite")
        return x[frame]


# A checked solve as _setup leaves it: the iterate u (pins set, the rest 0),
# the vertex mask, the pinned range [lo, hi], the eps ladder, conductances a,
# the free vertices, the moving edges (ends au/av, conductances aa, free slots
# in the system) and the fixed ones (conductances a_fixed, differences d_fixed).
_Plan = namedtuple("_Plan", "u mask lo hi schedule a free_idx au av aa a_fixed d_fixed system flags")


def _setup(graph, masses, p, pins_idx, pins_val, opts, vertex_mask, isolated) -> _Plan:
    """``_minimize``'s argument checks and plan.  Free components with no
    positive-conductance route to a pin raise under isolated="raise", or
    else leave the free set (flag ``isolated-free-component``) and stay 0."""
    if not (1 < p < np.inf):
        raise SolverError(f"p={p:g} must be finite and exceed 1 for the solver")
    if not opts.tol > 0:
        raise SolverError(f"tol={opts.tol:g} must be positive")
    if opts.max_iter < 1:
        raise SolverError(f"max_iter={opts.max_iter} must be at least 1")
    nv = graph.n_vertices
    mask = np.ones(nv, dtype=bool) if vertex_mask is None else vertex_mask
    if pins_idx.size == 0:
        raise SolverError("no pinned vertices")
    if not mask[pins_idx].all():
        raise SolverError("pinned vertex outside the active vertex set")
    if not np.isfinite(pins_val).all():
        raise SolverError("pinned values must be finite")
    lo, hi = float(pins_val.min()), float(pins_val.max())
    if opts.eps_schedule is not None:
        schedule = [float(e) for e in opts.eps_schedule]
        if not schedule:
            raise SolverError("eps schedule is empty")
        if not np.isfinite(schedule).all():
            raise SolverError("eps schedule entries must be finite")
        if p != 2 and min(schedule) <= 0:
            raise SolverError("eps schedule entries must be positive for p != 2")
    elif p == 2:
        schedule = [0.0]
    else:
        schedule = [(hi - lo) * EPS_FACTOR**k for k in range(5)]

    eu, ev, ln = graph.edge_u, graph.edge_v, graph.edge_length
    # at a huge p, l**p leaves the float range: name the first massive edge it takes out
    massive = mask[eu] & mask[ev] & (masses > 0)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        a = np.where(massive, masses / ln**p, 0.0)
    lost = massive & ~((a > 0) & (a < np.inf))
    if lost.any():
        k = int(np.argmax(lost))
        raise SolverError(
            f"at p={p:g} the conductance of edge {graph.ids[eu[k]]!r}-{graph.ids[ev[k]]!r} "
            f"is {a[k]:g}, not positive and finite"
        )
    pinned = np.zeros(nv, dtype=bool)
    pinned[pins_idx] = True

    # free components over positive-conductance edges, and their pin adjacency
    free_mask = mask & ~pinned
    pos = a > 0
    ffsel = pos & free_mask[eu] & free_mask[ev]
    ncomp, labels = connected_components(
        sp.csr_matrix((np.ones(int(ffsel.sum())), (eu[ffsel], ev[ffsel])), shape=(nv, nv)), directed=False
    )
    fpsel = pos & ((free_mask[eu] & pinned[ev]) | (pinned[eu] & free_mask[ev]))
    pin_adj = np.zeros(ncomp, dtype=bool)
    pin_adj[labels[np.where(free_mask[eu[fpsel]], eu[fpsel], ev[fpsel])]] = True
    orphan = free_mask & ~pin_adj[labels]
    if orphan.any() and isolated == "raise":
        vid = graph.ids[int(np.argmax(orphan))]
        raise SolverError(f"free vertex {vid!r} has no positive-conductance route to a pin")
    free_mask = free_mask & ~orphan
    free_idx = np.nonzero(free_mask)[0]
    slot = np.full(nv, -1, dtype=np.int64)
    slot[free_idx] = np.arange(free_idx.size)

    # Only the positive-conductance edges with a free end move; the other
    # positive ones keep their differences, and each eps level adds their
    # regularized energy as a constant.
    moving = pos & (free_mask[eu] | free_mask[ev])
    fixed = pos & ~moving
    au, av = eu[moving], ev[moving]
    su, sv = slot[au], slot[av]
    system = _NewtonSystem(su, sv, su >= 0, sv >= 0, free_idx.size, keep=p == 2)  # the p = 2 Hessian is 2a
    u = np.zeros(nv)
    u[pins_idx] = pins_val
    d_fixed = u[eu[fixed]] - u[ev[fixed]]
    flags = ["isolated-free-component"] if orphan.any() else []
    return _Plan(u, mask, lo, hi, schedule, a, free_idx, au, av, a[moving], a[fixed], d_fixed, system, flags)


def _newton_level(
    plan: _Plan, p: float, eps: float, stop_tol: float, step_tol: float, budget: int
) -> tuple[int, float | None, bool]:
    """Newton steps at one eps on ``plan.u``, in place, until a relative
    energy drop below stop_tol comes with a step t max|delta| of at most
    step_tol, the Newton decrement -slope(0) is at round-off level, or
    ``budget`` steps are spent.  Returns the steps, the last drop (0 at a
    round-off decrement, None if the budget ran out before a step) and
    whether the budget ran out."""
    u, au, av, aa, system = plan.u, plan.au, plan.av, plan.aa, plan.system
    F_fixed = _psi_sum(plan.a_fixed, plan.d_fixed, p, eps)
    d = u[au] - u[av]
    F_old = _psi_sum(aa, d, p, eps) + F_fixed
    residual = None
    for steps in range(budget):
        w1 = _psi_prime(aa, d, p, eps)
        delta = system.solve(-system.gradient(w1), plan.flags, _psi_second(aa, d, p, eps))
        dx = np.append(delta, 0.0)  # slot -1 reads the 0 step of a fixed end
        dd = dx[system.su] - dx[system.sv]

        def slope(t):
            return _slope_sum(_psi_prime(aa, d + t * dd, p, eps) * dd)

        if _slope_sum(w1 * dd) >= 0.0:  # w1 is psi' at t = 0
            return steps, 0.0, False
        t_hi = 2.0
        s_hi = slope(t_hi)
        while s_hi < 0.0 and t_hi < 1024.0:
            t_hi *= 2.0
            s_hi = slope(t_hi)
        t = t_hi if s_hi <= 0.0 else brentq(slope, 0.0, t_hi, xtol=1e-13)
        u[plan.free_idx] += t * delta
        # the next step's differences and F_old
        d = u[au] - u[av]
        F_new = _psi_sum(aa, d, p, eps) + F_fixed
        if F_new > F_old + 1e-9 * (abs(F_old) + 1.0):
            raise SolverError(f"energy increased during iteration ({F_old:g} -> {F_new:g})")
        if math.isnan(F_new):
            raise SolverError(f"energy became NaN during iteration ({F_old:g} -> nan)")
        residual = (F_old - F_new) / max(abs(F_old), 1e-300)
        if residual < stop_tol and t * float(np.abs(delta).max()) <= step_tol:
            return steps + 1, residual, False
        F_old = F_new
    return budget, residual, True


def _minimize(
    graph: GraphSpace,
    masses: np.ndarray,
    p: float,
    pins_idx: np.ndarray,
    pins_val: np.ndarray,
    opts: SolveOptions,
    vertex_mask: np.ndarray | None = None,
    isolated: str = "raise",
) -> SolveResult:
    """Minimize the regularized p-energy over the masked vertex set.

    ``pins_idx`` are distinct vertex indices and ``pins_val`` their values;
    both are checked (inside the mask, finite).  Vertices outside the mask
    (and their edges) do not exist for the problem; their result entries
    are NaN.  Free components with no positive-conductance route to a pin
    are an error under isolated="raise", or held at 0 (zero energy)
    otherwise.
    Gradient, Hessian and line search run over the positive-conductance
    edges with a free end; the energies F_old, F_new (and so the relative
    residual) and the returned energy still count every edge.

    ``_setup`` checks the arguments and plans the solve; this driver makes
    the initial guess, trims the eps ladder, runs ``_newton_level`` once per
    eps (no level without a free vertex or at a zero range) and checks the
    maximum principle.  The stop test is opts.tol at the last level and
    sqrt(opts.tol) before it, since an intermediate iterate only warm-starts
    the next level; the returned residual is the last level's drop.  The
    last level of a p != 2 solve also needs a step of at most
    EPS_FLOOR * range: a drop below tol alone leaves u off on the edges
    whose difference is about 0, which the energy barely sees.  The exact
    line search takes a slope within round-off of its terms as the root.
    All linear solves share one _NewtonSystem, refactored per Newton step
    for p != 2 and once at p = 2.
    """
    plan = _setup(graph, masses, p, pins_idx, pins_val, opts, vertex_mask, isolated)
    u, mask, lo, hi, schedule, a, free_idx, au, av, aa, _, _, system, flags = plan
    rng = hi - lo
    iterations, residual = 0, 0.0
    if rng == 0:
        u[free_idx] = lo
    elif free_idx.size:
        if opts.init == "flat" or p == 2:
            u[free_idx] = float(pins_val.mean())
        elif opts.init == "harmonic":
            # pins enter through the gradient since free entries start at zero
            w0 = 2.0 * aa
            u[free_idx] = system.solve(-system.gradient(w0 * (u[au] - u[av])), flags, w0)
        else:
            raise SolverError(f"unknown init {opts.init!r}")
        if opts.eps_schedule is None and p != 2:
            # a level whose eps is at least every edge difference of the initial iterate
            # makes the energy there nearly the quadratic one that the harmonic init
            # minimizes; eps = range is always one (maximum principle)
            d_init = float(np.abs(u[au] - u[av]).max())
            while len(schedule) > 1 and schedule[0] >= d_init:
                schedule.pop(0)
        # a huge p or eps overflows here; the energy checks or SuperLU then fail
        with np.errstate(over="ignore", invalid="ignore"):
            for level, eps in enumerate(schedule):
                last = level == len(schedule) - 1
                stop_tol = opts.tol if last else opts.tol**0.5
                step_tol = EPS_FLOOR * rng if last and p != 2 else np.inf
                steps, drop, spent = _newton_level(plan, p, eps, stop_tol, step_tol, opts.max_iter - iterations)
                iterations += steps
                residual = residual if drop is None else drop
                if spent:
                    flags.append("unconverged")
                    break

    # discrete maximum principle
    slack = 1e-7 * max(rng, 1.0)
    umin, umax = float(u[mask].min()), float(u[mask].max())
    if umin < lo - slack or umax > hi + slack:
        flags.append(f"max-principle-violation [{umin:g}, {umax:g}]")
    out = u.copy()
    out[~mask] = np.nan
    energy = float(np.sum(a * np.abs(u[graph.edge_u] - u[graph.edge_v]) ** p))
    return SolveResult(u=out, energy=energy, iterations=iterations, residual=residual, flags=flags)


# ---------------------------------------------------------------------------
# public solves


def _pin_arrays(graph: GraphSpace, data: dict) -> tuple[np.ndarray, np.ndarray]:
    idx = np.empty(len(data), dtype=np.int64)
    val = np.empty(len(data))
    for k, (vid, v) in enumerate(data.items()):
        if vid not in graph.index:
            raise SolverError(f"pinned vertex {vid!r} is not in the space")
        idx[k] = graph.index[vid]
        val[k] = float(v)
    return idx, val


def _condenser_indices(space: GraphSpace, cond: Condenser) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Validate a condenser against the space; returns E and F as sorted
    index arrays without repeats and the vertex mask of U (every vertex when
    U is None)."""
    if not cond.E or not cond.F:
        raise SolverError("condenser plates must be non-empty")
    if set(cond.E) & set(cond.F):
        raise SolverError("condenser plates overlap")
    ids = [*cond.E, *cond.F, *(cond.U or [])]
    idx = np.array([space.index.get(vid, -1) for vid in ids], dtype=np.int64)
    if (idx < 0).any():
        raise SolverError(f"condenser vertex {ids[int(np.argmax(idx < 0))]!r} is not in the space")
    n_plates = len(cond.E) + len(cond.F)
    mask = np.full(space.n_vertices, cond.U is None)
    mask[idx[n_plates:]] = True
    outside = ~mask[idx[:n_plates]]
    if outside.any():
        raise SolverError(f"plate vertex {ids[int(np.argmax(outside))]!r} is outside U")
    return np.unique(idx[: len(cond.E)]), np.unique(idx[len(cond.E) : n_plates]), mask


def solve_p_harmonic(problem: DirichletProblem) -> SolveResult:
    """Minimize the p-energy over fields agreeing with the pinned data.

    The pinned set must cover every boundary vertex (extra pins, including
    the infinity vertex, are allowed).  Raises when a free vertex has no
    positive-conductance route to a pin.
    """
    space = problem.space
    data = problem.boundary_data
    if not data:
        raise SolverError("boundary data is empty")
    idx, val = _pin_arrays(space, data)
    pinned = np.zeros(space.n_vertices, dtype=bool)
    pinned[idx] = True
    uncovered = space.boundary_mask & ~pinned
    if uncovered.any():
        vid = space.ids[int(np.nonzero(uncovered)[0][0])]
        raise SolverError(f"boundary vertex {vid!r} is missing from boundary data")
    return _minimize(space, edge_mass(space), problem.p, idx, val, problem.options, isolated="raise")


def capacity(space, cond: Condenser, p: float, options: SolveOptions | None = None) -> CapacityResult:
    """Condenser capacity: energy of the potential with E at 1 and F at 0.

    The minimization runs over the subgraph induced by U (default: all
    vertices); edge masses come from the ambient space.  Free components of
    U with no conductive route to E or F sit at 0 and contribute nothing.
    """
    E_idx, F_idx, mask = _condenser_indices(space, cond)
    return _capacity(space, E_idx, F_idx, p, options, mask)


def _capacity(
    space: GraphSpace,
    E_idx: np.ndarray,
    F_idx: np.ndarray,
    p: float,
    options: SolveOptions | None,
    mask: np.ndarray | None = None,
) -> CapacityResult:
    """``capacity`` on validated plates: disjoint, non-empty index arrays
    without repeats, inside the vertex mask of U (None for every vertex)."""
    res = _minimize(
        space, edge_mass(space), p,
        np.concatenate([E_idx, F_idx]),
        np.concatenate([np.ones(E_idx.size), np.zeros(F_idx.size)]),
        options or SolveOptions(),
        vertex_mask=mask, isolated="constant",
    )
    return CapacityResult(value=res.energy, potential=res.u, solve=res)


# KKT tolerance of the closing restricted solve.  The ridge on H makes a
# Newton step miss by about 1e-10 of its length, so a solve that starts a few
# percent off the optimum (as flow-seeded multipliers do) can meet 1e-11
# after one step at a KKT of a few 1e-12, leaving value and lower that far
# apart; 1e-12 asks for the next step.
_DUAL_KKT_TOL = 1e-12
# An intermediate restricted solve only has to produce the next cut: it
# stops at a KKT residual of this factor times the violation 1 - cost of
# the route that admitted the newest path (never below _DUAL_KKT_TOL).
_LOOSE_KKT_FACTOR = 1e-3
# Paths the capacity-flow seed may admit beside the first route: with 60
# the windowed criterion-3 cases lose 40-97% of their rounds, with 20 only
# 15-33%.
_SEED_PATHS = 60


def _restricted_dual(
    A: np.ndarray, lam: np.ndarray, m: np.ndarray, p: float, kkt_tol: float
) -> tuple[np.ndarray, np.ndarray, float, float]:
    """Maximize the Lagrangian dual of the restricted modulus program,

        D(lam) = sum(lam) - (p-1) sum m r^p,  r = (A^T lam / (p m))^q,

    over lam >= 0 (q = 1/(p-1)) by projected Newton.  The gradient is
    g = 1 - A r.  On the free set F = {lam > eps} or {g > 0} the step solves
    A_F diag(q r / s) A_F^T d = g_F, with s = A^T lam; the multipliers
    outside F (at most eps, with g <= 0) take a projected gradient step.
    eps is the smaller of the projected-gradient (KKT) residual and 1e-8 of
    the largest multiplier, so multipliers on their way to 0 cannot zigzag.
    An Armijo search runs along the projection arc; the stop is a KKT
    residual of ``kkt_tol``, 200 iterations, or a search that finds no
    increase.  Returns lam, r, D(lam), which by weak duality bounds from
    below the modulus of any family holding the rows of A, and the KKT
    residual at lam (above ``kkt_tol`` when the solve stopped early).
    """
    q = 1.0 / (p - 1.0)
    pm = p * m

    def evaluate(lm):
        s = lm @ A
        r = (s / pm) ** q
        return s, r, float(lm.sum()) - (p - 1.0) * float(m @ r**p)

    def kkt_residual(lm, gr):
        return float(np.max(np.abs(lm - np.maximum(lm + gr, 0.0))))

    s, r, D = evaluate(lam)
    g = 1.0 - A @ r
    for _ in range(200):
        kkt = kkt_residual(lam, g)
        if kkt <= kkt_tol:
            break
        free = (lam > min(kkt, 1e-8 * lam.max())) | (g > 0)
        AF, gF = A[free], g[free]
        # The curvature q r / s is infinite (p > 2) or zero (p < 2) at
        # s = 0: s is floored for the one, the curvature for the other.
        st = np.maximum(s, 1e-12 * s.max())
        c = q * (st / pm) ** q / st
        H = (AF * np.maximum(c, 1e-12 * c.max())) @ AF.T
        # paths can be linearly dependent (two crossing paths and their
        # swapped halves); the ridge keeps H positive definite
        H.flat[:: H.shape[0] + 1] *= 1.0 + 1e-10
        # numpy's LAPACK, not scipy.linalg: scipy ships its own OpenBLAS,
        # whose idle threads then contend with numpy's on every iteration
        try:
            step = np.linalg.solve(H, gF)
        except np.linalg.LinAlgError:
            step = np.linalg.lstsq(H, gF, rcond=None)[0]
        # For p near 1, r is so flat at small s that the Newton step can
        # overshoot by tens of orders; no step moves lam by more than ten
        # times its largest entry.
        t = min(1.0, 10.0 * lam.max() / np.abs(step).max())
        for _ in range(60):
            cand = np.maximum(lam + t * g, 0.0)
            cand[free] = np.maximum(lam[free] + t * step, 0.0)
            if cand.any():
                s_t, r_t, D_t = evaluate(cand)
                g_t = 1.0 - A @ r_t
                move = cand - lam
                inc = float(g @ move)
                # Where the predicted increase is below round-off in D, the
                # increase is judged from the slopes at both ends
                # (trapezoid rule) instead of from D itself.
                if inc > 1e-13 * (1.0 + abs(D)):
                    gain = D_t - D
                else:
                    gain = 0.5 * (inc + float(g_t @ move))
                if gain >= 1e-4 * inc:
                    break
            t *= 0.5
        else:
            break
        lam, s, r, D, g = cand, s_t, r_t, D_t, g_t
    return lam, r, D, kkt_residual(lam, g)


def _flow_paths(
    space: GraphSpace,
    u: np.ndarray,
    conductance: np.ndarray,
    E_idx: np.ndarray,
    F_idx: np.ndarray,
    p: float,
    k: int,
) -> list:
    """Greedy path decomposition of the capacity flow c |du|^(p-1), which
    runs from high to low potential u: up to k walks, each from E along the
    largest remaining outgoing flow until it reaches F, less its bottleneck.
    Returns (sorted edge ids, amount) per walk.  An edge with a NaN end
    (outside U) carries no flow, and a walk that meets a dead end ends the
    decomposition.  Every step lowers u, so no walk can cycle."""
    n = space.n_vertices
    eu, ev = space.edge_u, space.edge_v
    du = u[eu] - u[ev]
    flow = conductance * np.abs(du) ** (p - 1.0)
    # one slot per edge with flow, directed downhill and grouped by its tail
    edge = np.nonzero(flow > 0)[0]
    down = du[edge] > 0
    tail = np.where(down, eu[edge], ev[edge])
    order = np.argsort(tail, kind="stable")
    edge, tail, down = edge[order], tail[order], down[order]
    head = np.where(down, ev[edge], eu[edge])
    start = np.searchsorted(tail, np.arange(n + 1))
    at_E = np.zeros(n, dtype=bool)
    at_E[E_idx] = True
    at_F = np.zeros(n, dtype=bool)
    at_F[F_idx] = True
    from_E = np.nonzero(at_E[tail])[0].tolist()
    # the walk takes one step per vertex: plain lists, not numpy scalars
    left = flow[edge].tolist()
    head, start, at_F = head.tolist(), start.tolist(), at_F.tolist()
    paths: list = []
    slots, trail = from_E, []
    while len(paths) < k and slots:
        slot = max(slots, key=left.__getitem__)  # the first maximum
        if left[slot] <= 0:
            break
        trail.append(slot)
        v = head[slot]
        if at_F[v]:
            amount = min(left[s] for s in trail)
            for s in trail:
                left[s] -= amount
            paths.append((np.sort(edge[trail]), amount))
            slots, trail = from_E, []
        else:
            slots = range(start[v], start[v + 1])
    return paths


class _PathMatrix:
    """The generated paths: row i of ``A`` holds the lengths of path i on the
    costed edges that some held path uses, column j standing for edge
    ``used[j]`` (``col_of`` maps back, -1 for none; a costed edge no path
    uses has s = 0, hence rho = 0).  Rows and columns grow in doubling
    blocks, to ``cap`` rows; the first path is kept whatever the budget."""

    def __init__(self, lengths: np.ndarray, masses: np.ndarray, max_paths: int):
        self.lengths, self.masses, self.cap = lengths, masses, max(max_paths, 1)
        self.col_of = np.full(lengths.size, -1, dtype=np.int64)
        self.used = np.zeros(0, dtype=np.int64)
        self.A = np.zeros((min(self.cap, 16), 64))
        self.seen: set = set()
        self.n = 0

    def add(self, edges: np.ndarray) -> bool:
        """Admit the path with these (sorted, distinct) edge ids; False,
        with nothing changed, when that path is already held."""
        key = edges.tobytes()
        if key in self.seen:
            return False
        self.seen.add(key)
        fresh = edges[self.col_of[edges] < 0]
        self.col_of[fresh] = np.arange(self.used.size, self.used.size + fresh.size)
        self.used = np.concatenate([self.used, fresh])
        rows, cols = self.A.shape
        more_rows = min(rows, self.cap - rows) if self.n == rows else 0
        more_cols = max(cols, self.used.size - cols) if self.used.size > cols else 0
        if more_rows or more_cols:
            self.A = np.pad(self.A, ((0, more_rows), (0, more_cols)))
        self.A[self.n, self.col_of[edges]] = self.lengths[edges]
        self.n += 1
        return True

    def view(self) -> tuple[np.ndarray, np.ndarray]:
        """The held rows on the used columns, and those columns' masses."""
        return self.A[: self.n, : self.used.size], self.masses[self.used]


def _seed(
    space: GraphSpace, paths: _PathMatrix, E_idx, F_idx, in_U, costed, p: float
) -> tuple[np.ndarray, list]:
    """Multipliers for the held first route, at its one-path optimum (rho =
    (lam l / (p m))^(1/(p-1)) has rho-length 1), and for the flow seed's
    paths, which this admits: a greedy decomposition (``_flow_paths``) of
    the capacity flow c |du|^(p-1) into at most min(_SEED_PATHS, rows left)
    paths, each at p times its share (at the optimum the multipliers of the
    paths through an edge sum to p times its flow).  The capacity is solved
    only if a second path fits, and its flags are not reported; if it fails,
    the seed is dropped with the flag ``seed-failed``."""
    A, m = paths.view()
    lam = [float(A[0] @ (A[0] / (p * m)) ** (1.0 / (p - 1.0))) ** (1.0 - p)]
    k = min(_SEED_PATHS, paths.cap - paths.n)
    if k <= 0:
        return np.array(lam), []
    try:
        u = _capacity(space, E_idx, F_idx, p, None, in_U).potential
    except SolverError:
        return np.array(lam), ["seed-failed"]
    conductance = np.where(costed, paths.masses / space.edge_length**p, 0.0)
    for edges, amount in _flow_paths(space, u, conductance, E_idx, F_idx, p, k):
        if paths.add(edges):
            lam.append(p * amount)
    return np.array(lam), []


def _cutting_planes(
    space: GraphSpace, paths: _PathMatrix, lam: np.ndarray, E_idx, F_idx, w: np.ndarray, p: float, tol: float
) -> tuple[np.ndarray, float, float, list]:
    """Constraint generation from the held paths at multipliers lam.  Each
    round solves the restricted dual (``_restricted_dual``) warm, routes E
    to F under w = rho * length (set in place on the used columns; 0 on the
    other costed edges, 1 on a freebie, inf outside U), and admits a route
    of cost below 1 - tol that is not held, at 1e-3 of the largest
    multiplier.  The solve stops at KKT max(1e-12, 1e-3 v), v = 1 - cost of
    the route that admitted the newest path (1 at first).  A route that
    meets tol or is held, or a full matrix, ends the loop only after a
    solve to KKT 1e-12 and one more route (flags ``stalled``,
    ``path-budget``).  Returns that solve's r on the used columns, dual
    value and KKT residual, and the flags."""
    A, m_u = paths.view()
    violation = 1.0
    while True:
        kkt_tol = max(_DUAL_KKT_TOL, _LOOSE_KKT_FACTOR * violation)
        lam, r_u, lower, kkt = _restricted_dual(A, lam, m_u, p, kkt_tol)
        w[paths.used] = r_u * space.edge_length[paths.used]
        cost, _, epath = shortest_route(space, E_idx, F_idx, w)
        converged, full = cost >= 1.0 - tol, paths.n >= paths.cap
        if not (converged or full) and paths.add(np.unique(epath)):
            A, m_u = paths.view()
            lam = np.append(lam, 1e-3 * lam.max())
            violation = 1.0 - cost
        elif kkt_tol > _DUAL_KKT_TOL:
            violation = 0.0  # end only after a tight solve: re-solve from lam, route again
        else:
            return r_u, lower, kkt, [] if converged else ["path-budget" if full else "stalled"]


def modulus(space, cond: Condenser, p: float, tol: float = 1e-6, max_paths: int = 200) -> ModulusResult:
    """p-modulus of the family of E-F paths inside U by constraint generation.

    This driver checks the arguments and plates and routes the shortest E-F
    path by length over edges of positive mass; with none it returns 0,
    flagged ``zero-cost-connection`` (a massless E-F path exists) or
    ``no-path``.  It admits that route to a ``_PathMatrix`` of
    max(max_paths, 1) rows and runs ``_seed``, then ``_cutting_planes``.
    The seed only moves the start: a wrong seed costs rounds, not accuracy,
    and a failed one is dropped (flag ``seed-failed``).

    ``value`` is the energy sum m rho^p of the returned density; ``lower``
    is the dual value, which by weak duality bounds the modulus of the full
    family from below for any multipliers.  Both come from the loop's
    closing tight solve; the flag ``unconverged`` says it stopped above KKT
    1e-12 (iteration cap or a failed line search), so ``lower`` is a dual
    value but not the restricted optimum.

    Edges with zero mass are free for the minimization: they carry
    rho = 1/length at zero cost, so any path using one is satisfied a
    priori and the generation never returns it.
    """
    if not (1 < p < np.inf):
        raise SolverError(f"p={p:g} must be finite and exceed 1 for modulus")
    if not (0 < tol < 1):
        raise SolverError(f"tol={tol:g} must lie in (0, 1)")
    if max_paths < 0:
        raise SolverError(f"max_paths={max_paths} must be >= 0")
    masses = edge_mass(space)
    E_idx, F_idx, in_U = _condenser_indices(space, cond)
    eu, ev, ln = space.edge_u, space.edge_v, space.edge_length
    e_in_U = in_U[eu] & in_U[ev]
    costed = e_in_U & (masses > 0)
    freebie = e_in_U & ~costed
    rho = np.zeros(space.n_edges)
    rho[freebie] = 1.0 / ln[freebie]
    try:
        _, _, epath = shortest_route(space, E_idx, F_idx, np.where(costed, ln, np.inf))
    except ValueError:
        try:
            shortest_route(space, E_idx, F_idx, np.where(e_in_U, ln, np.inf))
            flags = ["zero-cost-connection"]
        except ValueError:
            flags = ["no-path"]
        return ModulusResult(value=0.0, lower=0.0, rho=rho, paths_used=0, flags=flags)

    paths = _PathMatrix(ln, masses, max_paths)
    paths.add(np.unique(epath))
    lam, flags = _seed(space, paths, E_idx, F_idx, in_U, costed, p)
    w = np.where(costed, 0.0, np.where(freebie, 1.0, np.inf))  # rho * length before any solve
    r_u, lower, kkt, loop_flags = _cutting_planes(space, paths, lam, E_idx, F_idx, w, p, tol)
    flags += loop_flags + (["unconverged"] if kkt > _DUAL_KKT_TOL else [])
    rho[paths.used] = r_u
    value = float(np.sum(masses[paths.used] * r_u**p))
    return ModulusResult(value=value, lower=lower, rho=rho, paths_used=paths.n, flags=flags)


def capacity_of_infinity(
    t: TransformedSpace, p: float, r: float, R: float, options: SolveOptions | None = None
) -> float:
    """Capacity of the shell condenser around the infinity vertex.

    E is the closed ball of radius r around infinity (possibly just the
    point itself), F everything at distance >= R.  Requires 0 < r < R/4 and
    a non-empty F (degenerate shells are an error).
    """
    if not t.infinity_attached:
        raise SolverError("capacity_of_infinity: infinity not attached")
    if not (0 < r <= R / 4 * (1 + 1e-12)):
        raise SolverError(f"need 0 < r <= R/4, got r={r:g}, R={R:g}")
    d = t.distance_to_infinity()
    E_sel = d <= r * (1 + 1e-9)
    F_sel = d >= R
    if not F_sel.any():
        raise SolverError(f"degenerate shells: nothing at distance >= R={R:g}")
    if (E_sel & F_sel).any():
        raise SolverError("degenerate shells: E and F overlap")
    return _capacity(t, np.nonzero(E_sel)[0], np.nonzero(F_sel)[0], p, options).value


def solve_dirichlet_unbounded(
    space: GraphSpace,
    phi: Dampening,
    p: float,
    f: dict,
    at_infinity: float | None = None,
    options: SolveOptions | None = None,
) -> UnboundedSolveResult:
    """Dirichlet solve on a truncated unbounded domain via its dampened form.

    Pipeline: transform, attach the point at infinity, pin the boundary data
    (and optionally a value at infinity), minimize, then restrict back to the
    original vertices.  By the exact energy identity the result also
    minimizes the untransformed truncation energy under the same pins.  The
    boundary diameter must stay within ``transform``'s fixed bound of 64.
    """
    ts = attach_infinity(transform(space, phi, p))
    pins = {str(k): float(v) for k, v in f.items()}
    bset = {space.ids[i] for i in space.boundary_indices()}
    extra = set(pins) - bset
    if extra:
        raise SolverError(f"data vertex {sorted(extra)[0]!r} is not a boundary vertex")
    missing = bset - set(pins)
    if missing:
        raise SolverError(f"boundary vertex {sorted(missing)[0]!r} has no data value")
    if at_infinity is not None:
        pins[ts.infinity_id] = float(at_infinity)
    res = solve_p_harmonic(DirichletProblem(ts, p, pins, options or SolveOptions()))
    nb = space.n_vertices
    return UnboundedSolveResult(
        u=res.u[:nb],
        at_infinity_value=float(res.u[ts.infinity_index]),
        transformed=ts,
        solve=res,
    )
