# demos/maryland_potential.py
#
# Swap the linear ramp for the unbounded quasi-periodic potential
# lam * tan(pi*(theta + n*omega)).  The operator family changes character:
# the integer-ladder analyses refuse to run (their statements assume the
# linear field), while diagonalization and wave-packet evolution work
# unchanged.
from pathlib import Path

import numpy as np

import starklab as sl

OUT = Path("demo_out")
OUT.mkdir(exist_ok=True)

GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0  # badly approximable frequency


def main():
    pot = sl.PotentialSpec(
        field_slope=None,
        maryland=sl.MarylandPotential(coupling=1.0, frequency=GOLDEN,
                                      phase=0.1))
    op = sl.build_operator(sl.nearest_neighbor(), pot, 80)
    sd = sl.diagonalize(op, interior_window=10)

    diag = np.real(np.diagonal(op.matrix))
    print(f"potential range on the box: [{diag.min():.1f}, {diag.max():.1f}]"
          f" (unbounded as the phase approaches 1/2 mod 1)")
    print(f"spectral radius {sd.spectral_radius:.2f}, "
          f"{sd.dimension} eigenvalues, no integer ladder:")
    centered = np.sort(np.abs(sd.eigenvalues - np.round(sd.eigenvalues)))
    print(f"  median distance to the nearest integer: "
          f"{np.median(centered):.3f} (a ladder would give ~0)")

    for check in ("pinning", "bootstrap"):
        try:
            if check == "pinning":
                sl.check_eigenvalue_asymptotics(sd)
            else:
                sl.bootstrap_decay_check(sd, gamma=3.0)
        except sl.WrongPotentialFamilyError as err:
            print(f"{check} check refused: {err}")

    # dynamics still runs; the packet stays put here as well
    series = sl.moment_series(sd, sl.envelope(sd, 0, (2.0,)), (2.0,),
                              sl.time_grid(dt=0.5, t_max=100.0,
                                           quasi_random=20,
                                           far_horizon=1e5))
    print(f"sup_t M_2(t) from site 0: {series.running_sup[0]:.4f}")

    rows = ["site,potential"]
    for site in range(-10, 11):
        rows.append(f"{site},{diag[sd.row_of_site(site)]:.12e}")
    path = OUT / "maryland_potential_profile.csv"
    path.write_text("\n".join(rows) + "\n")
    print(f"wrote {path}")

    # resonant frequencies are rejected up front: omega = 1/2 with phase 0
    # hits the tangent pole at site 1
    try:
        sl.build_operator(
            sl.nearest_neighbor(),
            sl.PotentialSpec(field_slope=None,
                             maryland=sl.MarylandPotential(
                                 coupling=1.0, frequency=0.5, phase=0.0)),
            10)
    except sl.MarylandResonanceError as err:
        print(f"resonant frequency rejected: {err}")


if __name__ == "__main__":
    main()
