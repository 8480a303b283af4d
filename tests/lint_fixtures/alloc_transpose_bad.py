"""Known-bad transpose-extremum corpus: every call here must be flagged."""

import numpy
import numpy as np


def symmetric_minimum(eta):
    return np.minimum(eta, eta.T)  # alloc-transpose-minimum


def symmetric_maximum(scores):
    return numpy.maximum(scores, scores.T)  # alloc-transpose-minimum


def transpose_first(table):
    return np.minimum(table.T, table)  # alloc-transpose-minimum


def attribute_operand(result):
    return np.minimum(result.product, result.product.T)  # alloc-transpose-minimum
