"""MCKP: DP solver optimality, transformation, edge cases."""

import math
import random
from collections import Counter
from typing import List

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import QoSInfeasibleError, SolverError
from repro.optimize import (
    MCKPItem,
    MCKPSolution,
    min_total_weight,
    reprice_classes,
    solve_mckp_bruteforce,
    solve_mckp_dp,
    to_maximization,
)


def item(w, v):
    return MCKPItem(weight=w, value=v)


def _dense_reference(classes, budget, resolution):
    """The full-grid DP the windowed solver replaced, kept as an oracle.

    Every class pays for all ``resolution + 1`` states: items are
    visited in class order with a strict ``<`` (the lowest item index
    wins a tied state) and the final state is the first ``argmin``.
    """
    if not classes or any(not cls for cls in classes):
        raise SolverError("MCKP instance needs non-empty classes")
    if budget < 0:
        raise SolverError(f"budget must be >= 0, got {budget}")
    if resolution < 1:
        raise SolverError("resolution must be >= 1")
    tightest = min_total_weight(classes)
    if tightest > budget:
        raise QoSInfeasibleError(qos_s=budget, min_latency_s=tightest)

    step = budget / resolution if budget > 0 else 1.0
    n_states = resolution + 1

    def discretize(weight: float) -> int:
        return int(math.ceil(weight / step - 1e-12))

    inf = float("inf")
    dp = np.full(n_states, inf)
    dp[0] = 0.0
    choices: List[np.ndarray] = []
    for cls in classes:
        new_dp = np.full(n_states, inf)
        choice = np.full(n_states, -1, dtype=np.int32)
        for j, candidate_item in enumerate(cls):
            w = discretize(candidate_item.weight)
            if w >= n_states:
                continue
            if w == 0:
                candidate = dp + candidate_item.value
            else:
                candidate = np.full(n_states, inf)
                candidate[w:] = dp[:-w] + candidate_item.value
            better = candidate < new_dp
            new_dp = np.where(better, candidate, new_dp)
            choice[better] = j
        if not np.isfinite(new_dp).any():
            raise QoSInfeasibleError(qos_s=budget, min_latency_s=tightest)
        dp = new_dp
        choices.append(choice)

    best_t = int(np.argmin(dp))
    if not math.isfinite(dp[best_t]):
        raise QoSInfeasibleError(qos_s=budget, min_latency_s=tightest)
    selected = []
    t = best_t
    for k in range(len(classes) - 1, -1, -1):
        j = int(choices[k][t])
        selected.append(classes[k][j])
        t -= discretize(classes[k][j].weight)
    selected.reverse()
    return selected


SIMPLE = [
    [item(1.0, 10.0), item(2.0, 4.0), item(3.0, 1.0)],
    [item(1.0, 8.0), item(2.0, 6.0), item(4.0, 2.0)],
]


class TestDPSolver:
    def test_unconstrained_picks_min_values(self):
        solution = solve_mckp_dp(SIMPLE, budget=100.0)
        assert solution.total_value == pytest.approx(3.0)

    def test_tight_budget_forces_fast_items(self):
        solution = solve_mckp_dp(SIMPLE, budget=2.0)
        assert solution.total_weight <= 2.0
        assert solution.total_value == pytest.approx(18.0)

    def test_intermediate_budget(self):
        solution = solve_mckp_dp(SIMPLE, budget=4.0, resolution=4000)
        brute = solve_mckp_bruteforce(SIMPLE, budget=4.0)
        assert solution.total_value == pytest.approx(brute.total_value)

    def test_infeasible_raises_with_min_latency(self):
        with pytest.raises(QoSInfeasibleError) as info:
            solve_mckp_dp(SIMPLE, budget=1.5)
        assert info.value.min_latency_s == pytest.approx(2.0)

    def test_one_item_per_class_selected(self):
        solution = solve_mckp_dp(SIMPLE, budget=5.0)
        assert len(solution.items) == len(SIMPLE)

    def test_payloads_carried_through(self):
        classes = [[MCKPItem(1.0, 1.0, payload="tagged")]]
        solution = solve_mckp_dp(classes, budget=2.0)
        assert solution.items[0].payload == "tagged"

    def test_empty_instance_rejected(self):
        with pytest.raises(SolverError):
            solve_mckp_dp([], budget=1.0)

    def test_empty_class_rejected(self):
        with pytest.raises(SolverError):
            solve_mckp_dp([[item(1, 1)], []], budget=1.0)

    def test_negative_budget_rejected(self):
        with pytest.raises(SolverError):
            solve_mckp_dp(SIMPLE, budget=-1.0)

    def test_negative_item_rejected(self):
        with pytest.raises(SolverError):
            MCKPItem(weight=-1.0, value=0.0)

    def test_zero_weight_items(self):
        classes = [[item(0.0, 5.0), item(0.0, 1.0)]]
        solution = solve_mckp_dp(classes, budget=1.0)
        assert solution.total_value == pytest.approx(1.0)

    def test_conservative_rounding_never_violates_budget(self):
        # Weights are rounded UP: a reported-feasible selection is
        # feasible in continuous time, even on a coarse grid.
        classes = [
            [item(0.33333, 2.0), item(0.9, 1.0)],
            [item(0.33333, 2.0), item(0.9, 1.0)],
            [item(0.33334, 2.0), item(0.9, 1.0)],
        ]
        solution = solve_mckp_dp(classes, budget=1.2, resolution=30)
        assert solution.total_weight <= 1.2 + 1e-9

    def test_borderline_instance_rejected_conservatively(self):
        # A selection that fits the budget *exactly* may be rejected by
        # the ceil-rounded grid -- conservatism, never QoS violation.
        classes = [
            [item(0.33333, 2.0)],
            [item(0.33333, 2.0)],
            [item(0.33334, 2.0)],
        ]
        with pytest.raises(QoSInfeasibleError):
            solve_mckp_dp(classes, budget=1.0, resolution=30)

    @settings(max_examples=40, deadline=None)
    @given(
        classes=st.lists(
            st.lists(
                st.tuples(
                    st.floats(min_value=0.01, max_value=5.0),
                    st.floats(min_value=0.0, max_value=10.0),
                ),
                min_size=1,
                max_size=4,
            ),
            min_size=1,
            max_size=4,
        ),
        budget_scale=st.floats(min_value=1.02, max_value=2.0),
    )
    def test_dp_matches_bruteforce_property(self, classes, budget_scale):
        """Property: with fine resolution, the DP is feasible, never
        better than the exhaustive optimum, and at least as good as
        any selection that fits the conservatively rounded budget."""
        instance = [[item(w, v) for w, v in cls] for cls in classes]
        budget = min_total_weight(instance) * budget_scale
        resolution = 20000
        dp = solve_mckp_dp(instance, budget=budget, resolution=resolution)
        brute = solve_mckp_bruteforce(instance, budget=budget)
        assert dp.total_weight <= budget + 1e-9
        assert dp.total_value >= brute.total_value - 1e-9
        # Ceil-rounding shrinks the effective budget by at most one
        # grid step per class; the DP must match the optimum of that
        # shrunken instance.
        shrunk = budget - len(instance) * (budget / resolution)
        try:
            conservative = solve_mckp_bruteforce(instance, budget=shrunk)
        except QoSInfeasibleError:
            return
        assert dp.total_value <= conservative.total_value + 1e-9


class TestSeededRandomInstances:
    """DP vs. brute force on a fixed battery of 50 seeded instances.

    Unlike the hypothesis property above, this battery is fully
    deterministic (no shrinking, identical on every machine/CI run):
    up to 5 classes x 4 items with adversarial weight spreads, checked
    against the documented discretization contract -- the DP never
    exceeds the budget, and its energy is no worse than the exhaustive
    optimum of the budget shrunk by one grid step per class.
    """

    RESOLUTION = 20000

    def random_instance(self, rng):
        n_classes = rng.randint(1, 5)
        classes = []
        for _ in range(n_classes):
            n_items = rng.randint(1, 4)
            classes.append(
                [
                    item(
                        rng.uniform(1e-4, 5.0),
                        rng.uniform(0.0, 10.0),
                    )
                    for _ in range(n_items)
                ]
            )
        budget = min_total_weight(classes) * rng.uniform(1.01, 3.0)
        return classes, budget

    def test_fifty_seeded_instances(self):
        import random

        rng = random.Random(0xDAE)
        checked = 0
        for _ in range(50):
            classes, budget = self.random_instance(rng)
            dp = solve_mckp_dp(
                classes, budget=budget, resolution=self.RESOLUTION
            )
            brute = solve_mckp_bruteforce(classes, budget=budget)
            # One item per class, never over budget, never beats the
            # continuous optimum.
            assert len(dp.items) == len(classes)
            assert dp.total_weight <= budget + 1e-9
            assert dp.total_value >= brute.total_value - 1e-9
            # Documented bound: ceil-rounding shrinks the effective
            # budget by at most one grid step per class.
            shrunk = budget - len(classes) * (budget / self.RESOLUTION)
            try:
                conservative = solve_mckp_bruteforce(classes, budget=shrunk)
            except QoSInfeasibleError:
                continue
            assert dp.total_value <= conservative.total_value + 1e-9
            checked += 1
        # The battery must actually exercise the bound, not skip it.
        assert checked >= 40


class TestDenseReferenceOracle:
    """The windowed DP picks exactly what the full-grid DP picks.

    Plan digests depend on the tie rule, so this battery is built to
    tie: small integer values (equal sums at equal and at different
    weights), duplicated items, zero weights, items past the grid,
    single-item classes, ``resolution=1`` and ``budget=0``.  A few
    infinite values reach the final infeasibility check.
    """

    N_INSTANCES = 2400

    @staticmethod
    def random_instance(rng):
        resolution = rng.choice([1, 1, 2, 3, 5, 8, 13, 64, 4000])
        budget = 0.0 if rng.random() < 0.1 else rng.uniform(0.5, 3.0)
        step = budget / resolution if budget > 0 else 1.0
        n_classes = rng.randint(1, 7)
        reach = max(1, 2 * resolution // n_classes)
        classes = []
        for k in range(n_classes):
            n_items = 1 if rng.random() < 0.5 else rng.randint(2, 5)
            cls = []
            for j in range(n_items):
                if cls and rng.random() < 0.2:
                    # Same weight and value as an earlier item.
                    twin = rng.choice(cls)
                    w, v = twin.weight, twin.value
                else:
                    roll = rng.random()
                    if roll < 0.15:
                        w = 0.0
                    elif roll < 0.25:
                        w = step * rng.randint(resolution + 1, resolution + 3)
                    elif roll < 0.6:
                        w = step * rng.randint(1, reach)
                    else:
                        w = rng.uniform(0.0, step * reach)
                    roll = rng.random()
                    if roll < 0.7:
                        v = float(rng.randint(0, 3))
                    elif roll < 0.97:
                        v = rng.uniform(0.0, 4.0)
                    else:
                        v = math.inf
                cls.append(MCKPItem(weight=w, value=v, payload=(k, j)))
            classes.append(cls)
        return classes, budget, resolution

    @staticmethod
    def outcome(solver, classes, budget, resolution):
        try:
            picked = solver(classes, budget, resolution)
        except (QoSInfeasibleError, SolverError) as exc:
            return type(exc), getattr(exc, "min_latency_s", None)
        if isinstance(picked, MCKPSolution):
            picked = picked.items
        return "solved", [chosen.payload for chosen in picked]

    def test_matches_dense_reference(self):
        rng = random.Random(0xD9E)
        kinds = Counter()
        for _ in range(self.N_INSTANCES):
            classes, budget, resolution = self.random_instance(rng)
            expected = self.outcome(
                _dense_reference, classes, budget, resolution
            )
            got = self.outcome(
                lambda c, b, r: solve_mckp_dp(c, budget=b, resolution=r),
                classes,
                budget,
                resolution,
            )
            assert got == expected, (classes, budget, resolution)
            kinds[expected[0]] += 1
        # Both outcomes must be exercised, not one of them skipped.
        assert kinds["solved"] >= self.N_INSTANCES // 3
        assert kinds[QoSInfeasibleError] >= self.N_INSTANCES // 10

    def test_first_index_and_first_state_win_ties(self):
        twins = [
            [
                MCKPItem(weight=1.0, value=1.0, payload="first"),
                MCKPItem(weight=1.0, value=1.0, payload="second"),
            ]
        ]
        picked = solve_mckp_dp(twins, budget=2.0, resolution=2)
        assert [i.payload for i in picked.items] == ["first"]
        # Equal values at different weights: the lowest state wins.
        spread = [
            [
                MCKPItem(weight=2.0, value=1.0, payload="slow"),
                MCKPItem(weight=1.0, value=1.0, payload="fast"),
            ]
        ]
        picked = solve_mckp_dp(spread, budget=2.0, resolution=2)
        assert [i.payload for i in picked.items] == ["fast"]


class TestReprice:
    """Incremental re-pricing for drifted operating points."""

    def test_weights_untouched(self):
        repriced = reprice_classes(SIMPLE, extra_power_w=0.5)
        for old_cls, new_cls in zip(SIMPLE, repriced):
            for old, new in zip(old_cls, new_cls):
                assert new.weight == old.weight

    def test_values_gain_extra_energy(self):
        repriced = reprice_classes(SIMPLE, extra_power_w=2.0)
        # value' = value + extra_w * weight: the slow 3 s item pays
        # 6 J extra, the fast 1 s item only 2 J.
        assert repriced[0][0].value == pytest.approx(12.0)
        assert repriced[0][2].value == pytest.approx(7.0)

    def test_zero_extra_power_is_identity(self):
        repriced = reprice_classes(SIMPLE, extra_power_w=0.0)
        for old_cls, new_cls in zip(SIMPLE, repriced):
            for old, new in zip(old_cls, new_cls):
                assert new.value == old.value

    def test_negative_extra_power_rejected(self):
        with pytest.raises(SolverError):
            reprice_classes(SIMPLE, extra_power_w=-0.1)

    def test_item_filter_drops_items(self):
        repriced = reprice_classes(
            SIMPLE, item_filter=lambda i: i.weight < 3.0
        )
        assert [len(c) for c in repriced] == [2, 2]

    def test_filter_emptying_a_class_is_infeasible(self):
        with pytest.raises(QoSInfeasibleError):
            reprice_classes(SIMPLE, item_filter=lambda i: i.weight > 10)

    def test_payloads_preserved(self):
        classes = [[MCKPItem(1.0, 1.0, payload="tag")]]
        repriced = reprice_classes(classes, extra_power_w=1.0)
        assert repriced[0][0].payload == "tag"

    def test_leakage_ramp_flips_the_pick(self):
        """The governor's core mechanism: the slow/cheap item wins
        cold, but under enough extra leakage power the fast/pricey
        item absorbs fewer extra joules and the solver flips to it."""
        classes = [
            [
                MCKPItem(weight=2.0, value=1.0, payload="slow"),
                MCKPItem(weight=1.0, value=1.5, payload="fast"),
            ]
        ]
        cold = solve_mckp_dp(classes, budget=3.0)
        assert cold.items[0].payload == "slow"
        # Above extra_w = 0.5 W the orderings cross:
        # 1.0 + 2 w  vs  1.5 + 1 w.
        hot = solve_mckp_dp(
            reprice_classes(classes, extra_power_w=1.0), budget=3.0
        )
        assert hot.items[0].payload == "fast"


class TestMaximizationTransformation:
    def test_offset_is_sum_of_class_maxima(self):
        transformed, offset = to_maximization(SIMPLE)
        assert offset == pytest.approx(10.0 + 8.0)
        assert len(transformed) == len(SIMPLE)

    def test_values_complemented(self):
        transformed, _ = to_maximization(SIMPLE)
        assert transformed[0][0].value == pytest.approx(0.0)
        assert transformed[0][2].value == pytest.approx(9.0)

    def test_equivalence_with_minimization(self):
        """Kellerer: maximizing the transformed instance selects the
        minimizing items, and offset - max == min."""
        budget = 4.0
        min_solution = solve_mckp_bruteforce(SIMPLE, budget)
        transformed, offset = to_maximization(SIMPLE)
        # Exhaustive maximization over the transformed instance.
        import itertools

        best = None
        for combo in itertools.product(*transformed):
            if sum(i.weight for i in combo) > budget:
                continue
            value = sum(i.value for i in combo)
            if best is None or value > best[0]:
                best = (value, combo)
        assert best is not None
        assert offset - best[0] == pytest.approx(min_solution.total_value)

    def test_weights_preserved(self):
        transformed, _ = to_maximization(SIMPLE)
        for original_cls, new_cls in zip(SIMPLE, transformed):
            for original, new in zip(original_cls, new_cls):
                assert new.weight == original.weight
