"""One-shot measurement of every acceptance quantity (development aid).

Run from the repo root:  python3 tests/_measure_criteria.py
"""

import sys
import time

import numpy as np

sys.path.insert(0, "tests")
import _reference as R

from thickflow.banks import check_bank
from thickflow.diagnostics import (check_density_bounds,
                                   check_stress_max_principle, hoff_value)
from thickflow.limits import (assemble_sweep_report, cross_model_distance,
                              variational_residual_1d, variational_residual_2d)
from thickflow.transport_check import time_mean_values


def drift(traj):
    r0 = traj.records[0]
    md = max(abs(r.mass - r0.mass) for r in traj.records) / abs(r0.mass)
    scale = max(abs(r0.momentum), r0.mass)
    pd = max(abs(r.momentum - r0.momentum) for r in traj.records) / scale
    return md, pd


def energy_excess(traj):
    e0 = traj.records[0].energy
    return max(r.energy + r.dissipation_cum for r in traj.records) / e0 - 1


t_start = time.time()
print("== strong 1D p-sweep ==")
cfg_s = R.strong_config()
strong = {}
for p in R.P_VALUES:
    t0 = time.time()
    strong[p] = R.run_powerlaw(cfg_s, p=p)
    md, pd = drift(strong[p])
    print(f"p={p}: wall={time.time()-t0:.1f}s massd={md:.2e} momd={pd:.2e} "
          f"exc={energy_excess(strong[p]):.2e}")
rep_s = assemble_sweep_report("p", list(strong), strong, 2.0, cfg_s.eta)
print("viol005:", [rep_s.violation[str(p)]["0.05"] for p in rep_s.param_values])
print("compl  :", [round(rep_s.complementarity[str(p)], 6) for p in rep_s.param_values])
print("pair_X :", rep_s.pairwise_entropy)
print("pair_u :", rep_s.pairwise_u)
print("hoff   :", [round(rep_s.hoff[str(p)], 4) for p in rep_s.param_values])

print("== criterion 3/4 on strong sweep ==")
c1, c2 = cfg_s.initial_density_range()
for p in (8.0,):
    pr = cfg_s.build_params("powerlaw1d", p=p)
    repd = check_density_bounds(strong[p], pr, c1, c2, cfg_s.tol_c)
    reps = check_stress_max_principle(strong[p], pr, cfg_s.tol_c,
                                      cfg_s.paper_initial_conditions)
    print(f"p={p}: density viol={repd.measured:.3e} (tol {repd.tolerance:.3e}) "
          f"stress={reps.measured:.4f} vs mu={reps.bound}")

print("== refinement n=512 (criteria 3, 4) ==")
fine8 = R.run_powerlaw(cfg_s, p=8.0, n=512)
pr8 = cfg_s.build_params("powerlaw1d", p=8.0)
repd_f = check_density_bounds(fine8, pr8, c1, c2, cfg_s.tol_c)
reps_f = check_stress_max_principle(fine8, pr8, cfg_s.tol_c,
                                    cfg_s.paper_initial_conditions)
print(f"fine: density viol={repd_f.measured:.3e} stress={reps_f.measured:.4f}")
repd_c = check_density_bounds(strong[8.0], pr8, c1, c2, cfg_s.tol_c)
reps_c = check_stress_max_principle(strong[8.0], pr8, cfg_s.tol_c,
                                    cfg_s.paper_initial_conditions)
print("density excess coarse/fine:",
      max(0, repd_c.measured), max(0, repd_f.measured))
print("stress excess coarse/fine:",
      max(0, reps_c.measured - 1.0), max(0, reps_f.measured - 1.0))

print("== criterion 11 (1D bank) ==")
bank = check_bank(cfg_s, "velocity", 1)
rep_vi = variational_residual_1d(strong[64.0], bank, cfg_s.build_params("powerlaw1d", p=64.0))
print(f"min residual = {rep_vi.context['residuals_min']:.6f}, "
      f"tol = {rep_vi.tolerance:.6f}, pass={rep_vi.passed}")

print("== criterion 13 on strong p=8 ==")
w = R.T_1D / R.SNAPS_1D
for s_list in ([16 * w, 8 * w, 4 * w],):
    m = time_mean_values(strong[8.0], 2.0, s_list)
    print("m:", m, "ratios:", [m[i + 1] / m[i] for i in range(len(m) - 1)])

print("== shared 1D sweep + singular family ==")
cfg_sh = R.shared_config()
shared = {}
for p in R.P_VALUES:
    shared[p] = R.run_powerlaw(cfg_sh, p=p)
rep_sh = assemble_sweep_report("p", list(shared), shared, 2.0, cfg_sh.eta)
print("shared pair_u:", rep_sh.pairwise_u)

sing = {}
for eps in R.EPS_VALUES:
    cfg_e = R.singular_config(eps)
    t0 = time.time()
    sing[eps] = R.run_singular_ref(cfg_e)
    md, pd = drift(sing[eps])
    print(f"eps={eps}: n={cfg_e.n} wall={time.time()-t0:.0f}s "
          f"maxshear={max(r.dudx_maxabs for r in sing[eps].records):.10f} "
          f"exc={energy_excess(sing[eps]):.2e} massd={md:.2e} momd={pd:.2e} "
          f"aux={sing[eps].records[-1].aux_cum:.4f}")

print("== criterion 8 ==")
d = cross_model_distance(shared[64.0], sing[1e-3])
gap = rep_sh.pairwise_u[-1]
print(f"cross={d:.6f} gap={gap:.6f} ratio={d/gap:.2f}")

print("== criterion 13 on shared p=8 ==")
w = R.T_1D / R.SNAPS_SHARED
m = time_mean_values(shared[8.0], 2.0, [16 * w, 8 * w, 4 * w])
print("m:", m, "ratios:", [m[i + 1] / m[i] for i in range(len(m) - 1)])

print("== 2D sweep ==")
cfg2 = R.config_2d()
two = {}
for p in R.P_VALUES_2D:
    t0 = time.time()
    two[p] = R.run_2d_ref(cfg2, p=p)
    md, _ = drift(two[p])
    print(f"p={p}: wall={time.time()-t0:.0f}s exc={energy_excess(two[p]):.2e} "
          f"massd={md:.2e} maxDu={max(r.dudx_maxabs for r in two[p].records):.4f}")
rep2 = assemble_sweep_report("p", list(two), two, 2.0, cfg2.eta)
print("2D viol005:", [rep2.violation[str(p)]["0.05"] for p in rep2.param_values])
from thickflow.semistationary2d import check_linf_growth

rep_linf = check_linf_growth(two[16.0], cfg2.tol_c)
print(f"linf growth ratio={rep_linf.measured:.4f} tol={rep_linf.tolerance:.4f}")

bank2 = check_bank(cfg2, "velocity", 2)
rep_vi2 = variational_residual_2d(two[16.0], bank2, cfg2.build_params("semistationary2d", p=16.0))
print(f"2D VI min residual = {rep_vi2.context['residuals_min']:.6f}, "
      f"tol = {rep_vi2.tolerance:.6f}, pass={rep_vi2.passed}")

w2 = R.T_2D / R.SNAPS_2D
m2 = time_mean_values(two[8.0], 2.0, [16 * w2, 8 * w2, 4 * w2])
print("2D m:", m2, "ratios:", [m2[i + 1] / m2[i] for i in range(len(m2) - 1)])

print("== hoff band (criterion 9) ==")
ys = [hoff_value(strong[p]) for p in R.P_VALUES]
print("Y:", [round(y, 4) for y in ys], "max:", max(ys),
      "2*median:", 2 * float(np.median(ys)))

print(f"TOTAL WALL: {time.time()-t_start:.0f}s")
