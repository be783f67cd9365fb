# demos/eigenvalue_pinning.py
#
# Bounded disorder cannot push the eigenvalues far: every trusted
# eigenvalue stays within |a|_0 + |b|_inf + 1 of its integer label,
# whatever the disorder draw.  We sweep amplitudes and seeds and tabulate
# the observed worst deviation against that bound.
from pathlib import Path

import starklab as sl

OUT = Path("demo_out")
OUT.mkdir(exist_ok=True)


def one_run(kernel, amplitude, seed, half_width=150):
    pert = sl.UniformRandomPerturbation(amplitude=amplitude, seed=seed) \
        if amplitude else sl.NoPerturbation()
    pot = sl.PotentialSpec(field_slope=1.0, perturbation=pert)
    op = sl.build_operator(kernel, pot, half_width)
    sd = sl.diagonalize(op)
    return sl.check_eigenvalue_asymptotics(sd)


def main():
    kernels = {"nearest_neighbor": sl.nearest_neighbor(),
               "power_law_p4": sl.power_law(4.0)}
    rows = ["kernel,amplitude,seed,max_deviation,bound,passed"]
    print(f"{'kernel':>18} {'B':>4} {'seed':>4} "
          f"{'max deviation':>14} {'bound':>7}")
    for name, kernel in kernels.items():
        for amplitude in (0.0, 0.5, 5.0):
            for seed in range(3):
                rep = one_run(kernel, amplitude, seed)
                rows.append(f"{name},{amplitude},{seed},"
                            f"{rep.max_deviation:.12e},{rep.bound:.12e},"
                            f"{rep.passed}")
                print(f"{name:>18} {amplitude:>4} {seed:>4} "
                      f"{rep.max_deviation:>14.6f} {rep.bound:>7.3f}"
                      + ("" if rep.passed else "  VIOLATED"))
                if not amplitude:
                    break  # seeds are identical when B = 0
    path = OUT / "pinning_sweep.csv"
    path.write_text("\n".join(rows) + "\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
