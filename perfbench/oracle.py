"""Known answers for the benchmark, held independently of singlat.

Every literal here comes from the paper's tables or from closed forms
(deg LL = mu! h^mu / |W| for the ADE classes, deg LL / quotient degree for
the elliptic classes).  Nothing is read from ``singlat.degrees`` or from
``cli.ORBIT_TABLE``; the structural checks use numpy only.
"""

from __future__ import annotations

import itertools

import numpy as np

MU = {"A2": 2, "A3": 3, "A4": 4, "A5": 5, "A6": 6,
      "D4": 4, "D5": 5, "D6": 6, "D7": 7, "D8": 8,
      "E6": 6, "E7": 7, "E8": 8, "tE6": 8, "tE7": 9, "tE8": 10}

# Finite orbit sizes modulo the sign group.
STOKES_CLASSES = {"A2": 1, "A3": 4, "A4": 25, "A5": 216, "A6": 2401,
                  "D4": 9, "D5": 256, "D6": 3125,
                  "E6": 3456, "E7": 118098, "E8": 2531250,
                  "tE6": 76545, "tE7": 7168000, "tE8": 593744256}
BASES_CLASSES = {"A2": 3, "A3": 16, "A4": 125, "A5": 1296, "A6": 16807,
                 "D4": 162, "D5": 2048, "D6": 31250,
                 "E6": 41472, "E7": 1062882, "E8": 37968750}

# Covering degree of the critical-value map.  ADE: the bases count above;
# elliptic: Stokes classes times the quotient degree (tE6: 324, not the
# printed 326, because 24800580 / 324 = 76545).
QUOTIENT_DEGREE = {"tE6": 324, "tE7": 96, "tE8": 36}
DEG_LL = dict(BASES_CLASSES, tE6=24800580, tE7=688128000, tE8=21374793216)
GZ_ORDER = {"A2": 6, "A3": 8, "A4": 10, "A5": 12, "D4": 36, "D5": 16,
            "E6": 24, "E7": 18, "E8": 30}

FIBER_COUNT = {2: 3, 3: 16}

# The default-steps wall walk of this null-homotopic mu = 3 path returns a
# braid with exponent sum -8 instead of 0.  It stays in every analytic
# batch and counts as a failed op until llmap is fixed.
WALK_DEFECT_PATH = (
    (0.9409 + 0.7478j, 0.7288 - 0.4045j, 0.4341 - 0.3422j),
    (0.2149 - 0.1355j, -0.8713 + 1.977j, 0.7238 - 2.0566j),
    (0.8936 - 1.3942j, -0.2321 - 0.5818j, -0.5345 + 0.2408j),
)
# Ops whose failures are this known defect: they count against
# success_rate and are listed by input, but do not make the run incorrect.
KNOWN_DEFECT_PREFIX = "walk:"


def counts_row(label):
    """The full count-table row of a class, as singlat.degrees.counts_row
    should print it."""
    mu = MU[label]
    stokes = STOKES_CLASSES[label]
    row = {"class": label, "mu": mu, "deg_ll": DEG_LL[label],
           "stokes_classes": stokes, "stokes_total": 2 ** (mu - 1) * stokes}
    if label in QUOTIENT_DEGREE:
        row.update(quotient_degree=QUOTIENT_DEGREE[label], bases_classes=None,
                   deg_ll_segre=DEG_LL[label])
    else:
        row.update(gz_order=GZ_ORDER[label], bases_classes=DEG_LL[label],
                   bases_total=2 ** mu * DEG_LL[label])
    return row


def truncation_ok(report, budget, mu):
    """A budget-truncated run stops within one expansion of its budget."""
    return report.truncated and \
        budget <= report.class_count <= budget + 2 * (mu - 1)


def chain_critical_values(t):
    """Critical values of x^(mu+1) + t_1 + t_2 x + ... + t_mu x^(mu-1),
    computed with numpy alone."""
    mu = len(t)
    t = [complex(v) for v in t]
    deriv = [complex(mu + 1)] + [0j] * mu     # descending powers of x
    for j in range(2, mu + 1):
        deriv[mu - (j - 2)] += (j - 1) * t[j - 1]
    f = [1 + 0j] + [0j] * (mu + 1)
    for j in range(1, mu + 1):
        f[mu + 1 - (j - 1)] += t[j - 1]
    return [complex(np.polyval(f, x)) for x in np.roots(deriv)]


def same_points(a, b, rel=1e-5):
    """Multiset equality of complex points up to a relative tolerance."""
    if len(a) != len(b):
        return False
    scale = max([1.0] + [abs(z) for z in a])
    rest = list(b)
    for z in a:
        k = min(range(len(rest)), key=lambda i: abs(rest[i] - z))
        if abs(rest[k] - z) > rel * scale:
            return False
        rest.pop(k)
    return True


def min_gap(points):
    return min(abs(a - b) for a, b in itertools.combinations(points, 2))


def exponent_sum(word):
    return sum(1 if g > 0 else -1 for g in word.letters)


def int_char_poly(rows):
    """Characteristic polynomial of an integer matrix with numpy,
    ascending integer coefficients."""
    desc = np.poly(np.array(rows, dtype=float))
    return tuple(int(round(c)) for c in reversed(desc.real))
