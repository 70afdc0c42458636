from contextlib import contextmanager

import numpy as np
import pytest

from leafkit.norming import PiSequence, lorentz, lorentz_dual, schatten

SQRT_PI = PiSequence("power", alpha=0.5)

# the norming functions every cross-cutting inequality is checked against
PHI_SET = [
    schatten(1),
    schatten(1.5),
    schatten(2),
    schatten(3),
    schatten(np.inf),
    lorentz(SQRT_PI),
    lorentz_dual(SQRT_PI),
]


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_hermitian(n, rng):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return 0.5 * (g + g.conj().T)


def random_skew(n, rng):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return 0.5 * (g - g.conj().T)


def random_psd(n, rng):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (g @ g.conj().T) / n


def random_unitary(n, rng, scale=1.0):
    w, v = np.linalg.eigh(1j * random_skew(n, rng))
    return (v * np.exp(-1j * scale * w)) @ v.conj().T


def separated_values(rng, count, min_gap=0.5, span=3.0):
    """Strictly increasing values with pairwise gaps >= min_gap."""
    base = np.sort(rng.uniform(-span, span, size=count))
    return base + min_gap * np.arange(count)


def hermitian_with_spectrum(values, rng):
    values = np.asarray(values, dtype=float)
    u = random_unitary(len(values), rng)
    return u @ np.diag(values).astype(complex) @ u.conj().T


@contextmanager
def recorded_generators():
    """Collect every generator that np.random.default_rng makes inside the
    block, so a test can read the state a call left them in."""
    made = []
    make = np.random.default_rng

    def record(*args, **kwargs):
        made.append(make(*args, **kwargs))
        return made[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np.random, "default_rng", record)
        yield made
