"""Count modulus stalls on translated criterion-3 condensers (not a workload):

    python3 bench/stalls.py --seeds 1 2 3 4 5 6

For each seed, each condenser below is moved inside its domain by a lattice
offset drawn from the seed, keeping the plate separation, window radius and
p; capacity and modulus(tol=1e-6, max_paths=400) are then solved and their
flags and relative gap printed.  The modulus returns ``stalled`` on some of
these placements, which is why the ``condenser`` workload keeps the
acceptance plates.  Exits 0; the last line counts the stalls.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

import run

CASES = (
    ("half_strip", {"h": 0.25, "H": 16.0}, ["v2_8"], ["v6_8"], 2.0, 3.0),
    ("slit_cone", {"h": 0.5, "H": 16.0}, ["v0_2"], ["v0_6"], 2.5, 1.5),
    ("slit_cone", {"h": 0.5, "H": 16.0}, ["v0_2"], ["v0_6"], 2.5, 3.0),
    ("plane_minus_cantor_square", {"h": 0.25, "R": 8.0, "level": 1}, ["v30_17"], ["v30_23"], 2.0, 2.0),
)

# Random offsets tried per placement.
DRAWS = 64


def _lattice(vid: str) -> tuple[int, int]:
    ix, iy = vid[1:].split("_")
    return int(ix), int(iy)


def translate(space, E: list, F: list, radius: float, rng) -> tuple[list, list]:
    """Among DRAWS random offsets that keep both plates in the domain, take
    the one whose window holds no boundary vertex and is the largest seen."""
    pts = np.array([_lattice(v) for v in space.ids])
    plates = np.array([_lattice(v) for v in E + F])
    lo = pts.min(axis=0) - plates.min(axis=0)
    hi = pts.max(axis=0) - plates.max(axis=0)
    best = None
    for _ in range(DRAWS):
        dx, dy = (int(rng.integers(lo[k], hi[k] + 1)) for k in range(2))
        moved = [f"v{a + dx}_{b + dy}" for a, b in plates]
        if not all(v in space.index for v in moved):
            continue
        inside = space.multi_source_distances([space.index[v] for v in moved]) <= radius
        if space.boundary_mask[inside].any():
            continue
        if best is None or inside.sum() > best[0]:
            best = (int(inside.sum()), moved)
    if best is None:
        raise RuntimeError("no admissible translate found")
    return best[1][: len(E)], best[1][len(E):]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3, 4, 5, 6])
    args = ap.parse_args(argv)
    run.cap_blas_threads()
    sys.path.insert(0, run.SRC)
    from workloads import Modules, _window

    mods = Modules()
    stalls = total = 0
    for seed in args.seeds:
        rng = np.random.default_rng(seed)
        for gen, kwargs, E, F, radius, p in CASES:
            space = mods.domains.generate(gen, **kwargs).space
            E, F = translate(space, E, F, radius, rng)
            cond = mods.solver.Condenser(E=E, F=F, U=_window(space, E + F, radius))
            cap = mods.solver.capacity(space, cond, p).value
            res = mods.solver.modulus(space, cond, p, tol=1e-6, max_paths=400)
            total += 1
            stalls += "stalled" in res.flags
            print(f"seed {seed} {gen} {E[0]}-{F[0]} p={p:g}: flags {res.flags} "
                  f"gap {abs(cap - res.value) / cap:.1e}")
    print(f"{stalls} of {total} placements stalled")
    return 0


if __name__ == "__main__":
    sys.exit(main())
