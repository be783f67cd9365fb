# demos/wave_packet_moments.py
#
# Dynamical localization: a wave packet launched from a single site never
# spreads.  The order-q moment M_q(t) stays below a time-independent
# envelope bound E_q computed from the eigenfunctions alone, and E_q
# stops growing once the box is large enough.
from pathlib import Path

import numpy as np

import starklab as sl

OUT = Path("demo_out")
OUT.mkdir(exist_ok=True)

Q = 2.5


def envelope_for(half_width):
    op = sl.build_operator(sl.power_law(4.0), sl.PotentialSpec(), half_width)
    sd = sl.diagonalize(op)
    return sd, sl.envelope(sd, 0, qs=(Q,))


def main():
    sd, env = envelope_for(200)
    grid = sl.time_grid(dt=0.1, t_max=200.0, quasi_random=50,
                        far_horizon=1e6)
    series = sl.moment_series(sd, env, (Q,), grid)
    sup = series.running_sup[0]

    rows = ["t,moment"]
    for t, m in zip(series.times, series.values[0]):
        rows.append(f"{t:.17g},{m:.17g}")
    path = OUT / f"moment_q{Q:g}_k0.csv"
    path.write_text("\n".join(rows) + "\n")
    print(f"wrote {path} ({series.times.size} sample times, "
          f"largest t = {series.times.max():g})")

    bound = env.moment_bound(Q)
    print(f"sup_t M_q(t) = {sup:.4f}")
    print(f"envelope E_q = {bound:.4f} "
          f"(boundary share {env.boundary_share(Q):.2e})")
    print(f"headroom: envelope exceeds the observed sup by "
          f"{bound - sup:.4f}")

    # box doubling: E_q has converged when doubling N barely moves it
    _, env_small = envelope_for(100)
    ratio = bound / env_small.moment_bound(Q)
    print(f"E_q(N=200) / E_q(N=100) = {ratio:.6f}")

    verdict = sl.moment_bound_verdict(env_small, alpha=3.0, q=Q,
                                      doubled=env)
    print(f"verdict at alpha=3, q={Q:g}: {verdict.conclusion}")
    # the same machinery refuses to assert anything when the decay
    # hypothesis alpha > 3/2 + q/2 fails
    weak = sl.moment_bound_verdict(env_small, alpha=2.0, q=Q, doubled=env)
    print(f"verdict at alpha=2, q={Q:g}: {weak.conclusion}")


if __name__ == "__main__":
    main()
