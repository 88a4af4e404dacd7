"""Metamorphic tests of the swap symmetry of the set.

The vertex set S2 is invariant under the swap
sigma: (x1, x2, X11, X12, X22, z1, z2) -> (x2, x1, X22, X12, X11, z2, z1),
so its hull is too.  The cells R1..R8 are not: they map onto one another
asymmetrically.  The decisions must keep the symmetry all the same, and a
cut of the swapped point, swapped back, must be a valid cut of the point.
"""

import numpy as np
import pytest

from pairhull.columns import elementwise
from pairhull.core import DEFAULT_TOL, HullColumns, HullPoint
from pairhull.hull import member_batch, member_hull
from pairhull.separation import cut_value, separate_batch
from pairhull.verify import (
    SOUNDNESS_FLOOR,
    VIOLATION_FLOOR,
    _sample_hull_array,
    _sample_separable_array,
    _shrunken_rows,
    s2_minimum,
    sample_ctilde_points,
)

#: sigma as a permutation of the columns in COORD_NAMES order; it is its
#: own inverse and acts on cut coefficients the same way.
SWAP = [1, 0, 4, 3, 2, 6, 5]


@pytest.fixture(scope="module")
def row_sets() -> dict[str, np.ndarray]:
    """Hull members, relaxation points, separable points and constructed
    non-members of the cells R3, R4, R5 and R8."""
    hull = [_sample_hull_array(np.random.default_rng(100 + k), 1000, k) for k in range(1, 9)]
    ctilde = sample_ctilde_points(np.random.default_rng(2), 20000)
    return {
        "hull": np.concatenate(hull),
        "ctilde": np.array([p.coords() for p in ctilde]),
        "separable": _sample_separable_array(np.random.default_rng(3), 20000),
        "shrunken": _shrunken_rows(np.random.default_rng(6), 4000, DEFAULT_TOL),
    }


@pytest.mark.parametrize("name", ["hull", "ctilde", "separable", "shrunken"])
def test_membership_is_swap_invariant(row_sets, name):
    rows = row_sets[name]
    own, swapped = member_batch(rows), member_batch(rows[:, SWAP])
    assert not own.errors and not swapped.errors
    assert np.array_equal(own.member, swapped.member)
    # the hull samples are all members and the shrunken rows none; the
    # relaxation and separable points hold both
    kinds = set(own.member.tolist())
    assert kinds == {"hull": {True}, "shrunken": {False}}.get(name, {True, False})
    for row in rows[:200]:
        p, q = HullPoint.from_coords(row), HullPoint.from_coords(row[SWAP])
        assert member_hull(p).member == member_hull(q).member, row.tolist()


@pytest.mark.parametrize(
    "name, cuts", [("ctilde", 1197), ("separable", 678), ("shrunken", 4000)]
)
def test_mirrored_cut_separates_and_supports(row_sets, name, cuts):
    # the cut of the swapped point, swapped back, is violated at the point
    # and its exact minimum over S2 lies within the floors of the cuts suite
    rows = row_sets[name]
    sep = separate_batch(rows[:, SWAP])
    made = np.flatnonzero(sep.cuts())
    assert made.size == cuts
    coeffs, constant = sep.coeffs[made][:, SWAP], sep.constant[made]
    at_point = elementwise(cut_value)(coeffs.T, constant, HullColumns.of_rows(rows[made]))
    assert (at_point < -VIOLATION_FLOOR).all()
    low = elementwise(s2_minimum)(HullColumns(coeffs.T), constant)
    assert (low >= SOUNDNESS_FLOOR).all() and (low <= VIOLATION_FLOOR).all()
