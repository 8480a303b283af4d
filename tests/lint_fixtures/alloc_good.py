"""Known-good allocation corpus: nothing here may be flagged."""

import numpy as np

from repro.semiring import minplus, minplus_square


def pingpong_squaring(matrix, rounds):
    # The sanctioned shape (see minplus_power): two buffers, swapped.
    spare = np.empty_like(matrix)
    for _ in range(rounds):
        minplus_square(matrix, out=spare)
        matrix, spare = spare, matrix
    return matrix


def single_product(a, b):
    # One call outside any loop allocates once — fine.
    return minplus(a, b)


def hoisted_buffer(n, rounds):
    board = np.zeros((n, n))
    total = 0.0
    for _ in range(rounds):
        board[:] = 0.0
        total += board.sum()
    return total


def rectangular_temp(n, m, rounds):
    # Only square (n, n) temporaries are the dense-APSP regression shape.
    for _ in range(rounds):
        chunk = np.zeros((n, m))
        chunk += 1.0
    return n


def other_operand_transposed(a, b):
    # Only a matrix against its own transpose is the symmetrize pattern.
    return np.minimum(a, b.T)


def elementwise_minimum(a, b):
    return np.minimum(a, b)
