import pytest

import starklab as sl
import starklab.spectra


@pytest.fixture
def no_lapack(monkeypatch):
    """Look every LAPACK routine up by names no library exports, so that a
    tridiagonal box goes dense and the dense solver falls back to
    numpy.linalg.eigh."""
    monkeypatch.setattr(starklab.spectra, "_LAPACK_NAMES",
                        ("starklab_no_{}_64_",))
    starklab.spectra._lapack.cache_clear()
    yield
    starklab.spectra._lapack.cache_clear()  # before the names come back


@pytest.fixture(scope="session")
def spectrum_cache():
    """Shared diagonalizations keyed by (kernel kind, N, B, seed, slope).

    Heavy boxes (N = 200, 400) are reused across test modules instead of
    being rebuilt per test.
    """
    cache = {}

    def get(kind, half_width, amplitude=0.0, seed=0, slope=1.0):
        key = (kind, half_width, amplitude, seed, slope)
        if key not in cache:
            if kind == "nn":
                kernel = sl.nearest_neighbor()
            elif kind == "pl4":
                kernel = sl.power_law(4.0)
            elif kind == "zero":
                kernel = sl.custom_kernel({})
            else:
                raise ValueError(kind)
            if amplitude:
                pert = sl.UniformRandomPerturbation(amplitude=amplitude,
                                                    seed=seed)
            else:
                pert = sl.NoPerturbation()
            pot = sl.PotentialSpec(field_slope=slope, perturbation=pert)
            op = sl.build_operator(kernel, pot, half_width)
            cache[key] = (op, sl.diagonalize(op))
        return cache[key]

    get.store = cache
    return get
