"""Independent position-major walk that the tests compare the package against.

``reference_evolve`` keeps the amplitudes as a (positions x channels) array
and allocates a fresh one at every step: the coin product ``amps @ coin.T``,
then each channel written as a strided column of a zeroed array one shift
longer.  ``reference_distribution`` sums ``|amps|**2`` across the channels of
that contiguous array.  Neither touches the package's channel-major buffer
or its step kernel; they take only the coin from ``rotation_matrix``.
"""

import numpy as np

from quditwalk.coin import rotation_matrix


def reference_step(amps: np.ndarray, coin: np.ndarray) -> np.ndarray:
    """One step of a position-major field: row s is position lo + 2s."""
    n, dim = amps.shape
    mixed = amps @ coin.T
    out = np.zeros((n + dim - 1, dim), dtype=complex)
    for i in range(dim):
        # channel i carries m = j - i and shifts by -(tj - 2i) sites
        out[i : i + n, i] = mixed[:, i]
    return out


def reference_evolve(qudit, angles, t: int) -> tuple[np.ndarray, np.ndarray]:
    """Amplitudes after t steps from the origin, and the positions of
    their rows."""
    coin = rotation_matrix(qudit.j, angles)
    amps = qudit.amplitudes[None, :].copy()
    for _ in range(t):
        amps = reference_step(amps, coin)
    return amps, -qudit.tj * t + 2 * np.arange(amps.shape[0])


def reference_distribution(amps: np.ndarray) -> np.ndarray:
    """Probability of each position row."""
    return (np.abs(amps) ** 2).sum(axis=1)
