"""Grid-converged reference for the stacked secondary speed.

The cubic workloads have the closed-form speed (1 - 2a)/sqrt(2).  The
stacked Dirichlet cylinder has none, so its reference is the Richardson
extrapolation of the secondary speed on the shipped grid and on the grid
refined twice in both directions (the scheme is second order).  The fine
solve starts from the interpolated coarse wave and uses Newton polish
alone.  The extrapolated value is recorded as ``STACKED_SPEED`` in
``workloads.py``.

Run from the repository root (takes a few minutes):

    PYTHONPATH=src python3 perfbench/reference.py
"""

import json

from cylwave.config import parse_config_file
from cylwave.grids import GridConfig, axial_derivative, build_grid
from cylwave.reactions import ShiftedModel
from cylwave.scenarios import _plateau_state
from cylwave.waves import WaveSolution, refine_solution, secondary_speed

CONFIG = "configs/secondary_stacked_dirichlet.cfg"


def main():
    cfg = parse_config_file(CONFIG)
    grid, model = cfg.make_grid(), cfg.make_model()
    plateau = _plateau_state(model, grid, cfg.plateau_seed)
    sec = secondary_speed(model, grid, plateau, c_seed=cfg.c_seed, dt=cfg.dt)
    fine = build_grid(GridConfig(
        n_y=2 * grid.n_y - 1, n_z=2 * grid.n_z - 1, y_min=grid.y_min,
        y_max=grid.y_max, z_min=grid.z_min, z_max=grid.z_max,
        bc_left=grid.bc_left, bc_right=grid.bc_right,
        bc_axial_left=grid.bc_axial_left, bc_axial_right=grid.bc_axial_right))
    plateau_fine = _plateau_state(model, fine, cfg.plateau_seed)
    shifted = ShiftedModel(base=model, v_values=tuple(plateau_fine.v.values),
                           y_nodes=tuple(fine.y))
    coarse = WaveSolution(grid=grid, speed=sec.speed, profile=sec.wave,
                          profile_dz=axial_derivative(sec.wave.values, grid),
                          residual=0.0, normalization_shift=0.0,
                          plateau=sec.upper_state, monotone=True)
    c_fine = refine_solution(coarse, fine, shifted).speed
    ref = {"config": CONFIG, "secondary_speed_coarse": sec.speed,
           "secondary_speed_fine": c_fine,
           "secondary_speed_extrapolated": c_fine + (c_fine - sec.speed) / 3.0}
    print(json.dumps(ref, indent=1))


if __name__ == "__main__":
    main()
