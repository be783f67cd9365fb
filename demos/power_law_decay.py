# demos/power_law_decay.py
#
# With hopping a(m) = |m|^-4 the eigenfunctions decay like a power law
# away from their centers: |phi_m(n)| <= C / |n - m|^(r+1) for every
# weight r < 3.  This script measures the decay profile of one interior
# mode, the least-squares decay exponent of many, and the sup constant
# at alpha = 3.
from pathlib import Path

import numpy as np

import starklab as sl

OUT = Path("demo_out")
OUT.mkdir(exist_ok=True)


def main():
    half_width = 150
    pert = sl.UniformRandomPerturbation(amplitude=0.5, seed=0)
    op = sl.build_operator(sl.power_law(4.0),
                           sl.PotentialSpec(field_slope=1.0,
                                            perturbation=pert),
                           half_width)
    sd = sl.diagonalize(op)

    # profile of the mode labeled 0: |phi| against distance from center
    p = sd.position_of(0)
    profile = np.abs(sd.eigenvectors[:, p])
    center = int(sd.sites[np.argmax(profile)])
    dist = np.abs(sd.sites - center)
    rows = ["distance,amplitude,power_law_reference"]
    for d in range(1, 41):
        amp = profile[sd.row_of_site(center + d)]
        rows.append(f"{d},{amp:.12e},{profile.max() * d ** -3.0:.12e}")
    path = OUT / "decay_profile_mode0.csv"
    path.write_text("\n".join(rows) + "\n")
    print(f"wrote {path}")

    # one pass measures every alpha; the last report is alpha = 3
    alphas = (2.0, 2.5, 3.0)
    reports = sl.uniform_decay_constants(sd, alphas)
    report = reports[-1]
    fits = np.array([f for _, f in report.fit_exponents])
    fits = fits[np.isfinite(fits)]
    print(f"interior modes: {report.n_modes}")
    print(f"sup |phi| * dist^3 (center anchored):  "
          f"{report.sup_constant:.3f}")
    print(f"sup |phi| * dist^3 (label anchored):   "
          f"{report.sup_constant_by_index:.3f}")
    print(f"median fitted decay exponent: {np.median(fits):.2f} "
          f"(hopping exponent is 4)")
    # steeper alpha weights distant sites more; constants grow until the
    # weight passes the hopping exponent and the sup stops being finite
    # in the infinite-volume limit
    for alpha, rep in zip(alphas, reports):
        print(f"  alpha = {alpha:3.1f}: sup constant "
              f"{rep.sup_constant:10.3f}")


if __name__ == "__main__":
    main()
