"""Participation schemas and sensitivity under min-separation.

The exact enumerator is the oracle for the shifted-sum formula; an
independent recursion counts the patterns the enumerator must produce.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    count_patterns,
    enumerate_patterns,
    exact_sensitivity_bruteforce,
    lt_toeplitz,
)

from corrnoise.participation import (
    ParticipationSchema,
    matrix_sensitivity_lower_bound,
    max_participations,
    toeplitz_sensitivity,
    worst_case_pattern,
)
from corrnoise.tree_baseline import build_tree_matrix


class TestSchema:
    def test_feasibility_bound(self):
        ParticipationSchema(10, 3, 4)  # (4-1)*3 = 9 < 10 ok
        with pytest.raises(ValueError):
            ParticipationSchema(10, 3, 5)  # 12 >= 10

    @pytest.mark.parametrize("n,b,k", [(0, 1, 1), (4, 0, 1), (4, 1, 0)])
    def test_positive_fields(self, n, b, k):
        with pytest.raises(ValueError):
            ParticipationSchema(n, b, k)

    def test_worst_case_and_max_participations(self):
        assert max_participations(2052, 342) == 6
        assert max_participations(2000, 1000) == 2
        assert max_participations(7, 2) == 4
        s = ParticipationSchema(2052, 342, max_participations(2052, 342))
        assert (s.n, s.b, s.k) == (2052, 342, 6)

    def test_worst_case_pattern(self):
        s = ParticipationSchema(10, 3, 3)
        np.testing.assert_array_equal(worst_case_pattern(s), [0, 3, 6])


class TestToeplitzSensitivity:
    def test_single_participation_is_column_norm(self):
        c = np.array([1.0, 0.5, 0.25, 0.125])
        s = toeplitz_sensitivity(c, ParticipationSchema(4, 4, 1))
        assert s == pytest.approx(np.linalg.norm(c), rel=1e-15)

    def test_identity_column_gives_sqrt_k(self):
        c = np.zeros(9)
        c[0] = 1.0
        for k, b in [(1, 9), (2, 4), (3, 4)]:
            s = toeplitz_sensitivity(c, ParticipationSchema(9, b, k))
            assert s == pytest.approx(np.sqrt(k), rel=1e-15)

    def test_all_ones_hand_value(self):
        # c = 1111, b=2, k=2: cbar = (1,1,2,2), norm = sqrt(10)
        s = toeplitz_sensitivity(np.ones(4), ParticipationSchema(4, 2, 2))
        assert s == pytest.approx(np.sqrt(10.0), rel=1e-15)

    def test_rejects_negative_and_increasing(self):
        with pytest.raises(ValueError):
            toeplitz_sensitivity(np.array([1.0, -0.1, 0.0]), ParticipationSchema(3, 3, 1))
        with pytest.raises(ValueError):
            toeplitz_sensitivity(np.array([1.0, 0.2, 0.3]), ParticipationSchema(3, 3, 1))

    @pytest.mark.parametrize(
        "c",
        [[1.0, 0.5, np.nan, 0.1], [np.nan, 0.5, 0.2, 0.1], [np.inf, 0.5, 0.2, 0.1],
         [1.0, 0.5, 0.2, -np.inf], [1.0, 0.5, 0.2, np.inf]],
    )
    def test_rejects_non_finite_coefficients(self, c):
        # NaN fails no comparison, and a leading +inf is non-increasing
        with pytest.raises(ValueError, match="finite"):
            toeplitz_sensitivity(np.array(c), ParticipationSchema(4, 1, 4))

    def test_requires_full_length_column(self):
        with pytest.raises(ValueError):
            toeplitz_sensitivity(np.ones(3), ParticipationSchema(4, 2, 2))


class TestPatternEnumeration:
    def test_small_catalog(self):
        pats = enumerate_patterns(ParticipationSchema(4, 2, 2))
        assert pats == [(), (0,), (0, 2), (0, 3), (1,), (1, 3), (2,), (3,)]
        assert count_patterns(ParticipationSchema(4, 2, 2)) == 8

    @given(
        n=st.integers(1, 12),
        b=st.integers(1, 12),
        k=st.integers(1, 12),
    )
    @settings(max_examples=100)
    def test_enumeration_matches_counting_recursion(self, n, b, k):
        b = min(b, n)
        k = min(k, max_participations(n, b))
        schema = ParticipationSchema(n, b, k)
        pats = enumerate_patterns(schema)
        assert len(pats) == len(set(pats))
        assert len(pats) == count_patterns(schema)
        for pat in pats:
            assert len(pat) <= k
            assert all(j - i >= b for i, j in zip(pat, pat[1:]))

    def test_maximal_patterns_cannot_be_extended(self):
        schema = ParticipationSchema(9, 3, 3)
        all_pats = set(enumerate_patterns(schema))
        maximal = enumerate_patterns(schema, maximal=True)
        for pat in maximal:
            # no superset pattern exists in the catalog
            supersets = [q for q in all_pats if set(pat) < set(q)]
            assert supersets == []
        # and every non-maximal pattern extends to a maximal one
        for pat in all_pats:
            assert any(set(pat) <= set(q) for q in maximal)

    def test_enumeration_guard(self):
        with pytest.raises(ValueError):
            enumerate_patterns(ParticipationSchema(60, 1, 30))


class TestBruteforceSensitivity:
    def test_matches_formula_on_toeplitz(self):
        c = np.array([1.0, 0.8, 0.5, 0.5, 0.1, 0.0])
        schema = ParticipationSchema(6, 2, 3)
        exact = exact_sensitivity_bruteforce(lt_toeplitz(c), schema)
        fast = toeplitz_sensitivity(c, schema)
        assert exact == pytest.approx(fast, abs=1e-12)

    def test_tree_lower_bound_tight_at_small_sizes(self):
        for n, b, k in [(8, 2, 4), (8, 3, 3), (16, 4, 4), (16, 5, 2)]:
            C = build_tree_matrix(n).C
            lb = matrix_sensitivity_lower_bound(C, ParticipationSchema(n, b, k))
            ex = exact_sensitivity_bruteforce(C, ParticipationSchema(n, b, k))
            assert lb == pytest.approx(ex, abs=1e-9)
            assert lb <= ex + 1e-12

    def test_rejects_negative_matrix(self):
        C = -np.eye(4)
        with pytest.raises(ValueError):
            exact_sensitivity_bruteforce(C, ParticipationSchema(4, 2, 2))


class TestMatrixLowerBound:
    def test_identity_matrix(self):
        lb = matrix_sensitivity_lower_bound(np.eye(6), ParticipationSchema(6, 2, 3))
        assert lb == pytest.approx(np.sqrt(3.0), rel=1e-15)

    def test_agrees_with_toeplitz_formula(self):
        c = np.array([1.0, 0.6, 0.3, 0.2, 0.1])
        schema = ParticipationSchema(5, 2, 2)
        assert matrix_sensitivity_lower_bound(
            lt_toeplitz(c), schema
        ) == pytest.approx(toeplitz_sensitivity(c, schema), rel=1e-14)

    def test_non_square_rows_allowed(self):
        C = build_tree_matrix(8).C  # more rows than columns
        assert C.shape[0] > C.shape[1]
        lb = matrix_sensitivity_lower_bound(C, ParticipationSchema(8, 4, 2))
        assert lb > 0
