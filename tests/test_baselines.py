import itertools

import numpy as np
import pytest

from binalloc import baselines, brute_force, greedy, round_relaxed
from binalloc.errors import ShapeError, SizeError
from binalloc.instances import Instance, eval_p1, random_instance


def brute_oracle(instance):
    """Independent enumeration in reversed order for cross-checking cost."""
    best = None
    for bits in reversed(list(itertools.product([0.0, 1.0], repeat=instance.n))):
        cost = eval_p1(instance, np.array(bits))
        if best is None or cost <= best:
            best = cost
    return best


def test_greedy_two_agent(two_agent):
    sol = greedy(two_agent)
    assert sol.chosen == (0,)
    assert sol.cost == pytest.approx(2.08, abs=1e-12)
    assert sol.bits.tolist() == [1, 0]


def test_greedy_empty_when_everything_costs():
    inst = Instance(quad=[-2.0, -2.0], center=[1.0, 1.5], passive=[0.0, 0.0],
                    output=[1.0, 1.0], penalty=1.0, target=0.0)
    assert np.all(inst.incr_cost > 0)
    sol = greedy(inst)
    assert sol.chosen == ()
    assert sol.cost == 0.0


def test_an_empty_set_has_every_bit_off():
    # greedy and rounding both stop before the first agent when it raises the cost
    inst = Instance(quad=[-2.0, -2.0], center=[1.0, 1.5], passive=[0.5, 0.5],
                    output=[1.0, 1.0], penalty=1.0, target=0.0)
    for sol in (greedy(inst), round_relaxed([0.9, 0.1], inst)):
        assert sol.chosen == () and sol.bits.tolist() == [0, 0] and sol.cost == 1.0


def test_greedy_never_beats_brute():
    for seed in range(10):
        inst = random_instance(8, seed, p_ref=120.0)
        assert greedy(inst).cost >= brute_force(inst).cost - 1e-9


def test_greedy_steps_strictly_improve():
    inst = random_instance(10, 3, p_ref=300.0)
    sol = greedy(inst)
    assert len(sol.chosen) <= inst.n
    # replay the chosen prefix; each accepted agent must lower the cost
    x = np.zeros(inst.n)
    prev = eval_p1(inst, x)
    # greedy appends in acceptance order, but chosen is sorted; re-derive order
    order = []
    remaining = set(sol.chosen)
    while remaining:
        best_i, best_c = None, None
        for i in remaining:
            x[i] = 1.0
            c = eval_p1(inst, x)
            x[i] = 0.0
            if best_c is None or c < best_c:
                best_i, best_c = i, c
        order.append(best_i)
        x[best_i] = 1.0
        remaining.discard(best_i)
        assert best_c < prev
        prev = best_c


def test_round_relaxed_two_agent(two_agent):
    sol = round_relaxed([0.9, 0.2], two_agent)
    assert sol.chosen == (0,)
    assert sol.cost == pytest.approx(2.08, abs=1e-12)


def test_round_relaxed_zero_point_stays_empty():
    inst = Instance(quad=[-2.0, -2.0], center=[1.0, 1.5], passive=[0.0, 0.0],
                    output=[1.0, 1.0], penalty=1.0, target=0.0)
    sol = round_relaxed(np.zeros(2), inst)
    assert sol.chosen == ()


def test_round_relaxed_binary_indicator(two_agent):
    # indicator of the optimal set is reachable by one improving step
    sol = round_relaxed(np.array([1.0, 0.0]), two_agent)
    assert sol.chosen == (0,)
    assert sol.cost <= eval_p1(two_agent, [0.0, 0.0])


def test_round_relaxed_never_worse_than_empty():
    for seed in range(10):
        inst = random_instance(9, 100 + seed, p_ref=150.0)
        frac = np.random.default_rng(seed).uniform(0.0, 1.0, 9)
        assert round_relaxed(frac, inst).cost <= eval_p1(inst, np.zeros(9))


@pytest.mark.parametrize("x_frac", [[0.9], [0.9, 0.2, 0.5]], ids=["short", "long"])
def test_round_relaxed_refuses_a_point_of_the_wrong_length(two_agent, x_frac):
    with pytest.raises(ShapeError):
        round_relaxed(x_frac, two_agent)


def test_brute_force_two_agent(two_agent):
    sol = brute_force(two_agent)
    assert sol.chosen == (0,)
    assert sol.cost == pytest.approx(2.08, abs=1e-12)


def test_brute_force_single_agent_off():
    inst = Instance(quad=[-2.0], center=[1.0], passive=[0.0],
                    output=[1.0], penalty=1.0, target=0.0)
    assert inst.incr_cost[0] == pytest.approx(1.0)
    assert eval_p1(inst, [1.0]) == pytest.approx(1.5)
    sol = brute_force(inst)
    assert sol.chosen == ()
    assert sol.cost == 0.0


def test_brute_force_matches_reversed_enumeration():
    for seed in range(8):
        inst = random_instance(9, 11 + seed, p_ref=150.0)
        assert brute_force(inst).cost == pytest.approx(brute_oracle(inst),
                                                       abs=1e-9)


def test_brute_force_lexicographic_ties():
    # perfectly symmetric pair: {0} and {1} tie at cost 0; of the bit vectors
    # (1,0) and (0,1) the lexicographically smaller one is (0,1)
    inst = Instance(quad=[-4.0, -4.0], center=[0.5, 0.5], passive=[0.0, 0.0],
                    output=[1.0, 1.0], penalty=2.0, target=1.0)
    sol = brute_force(inst)
    assert sol.chosen == (1,)
    assert sol.cost == pytest.approx(0.0, abs=1e-12)


def test_brute_force_size_cap():
    inst = random_instance(25, 0, p_ref=100.0)
    with pytest.raises(SizeError):
        brute_force(inst)


def test_stored_costs_reevaluate_exactly():
    for seed in range(5):
        inst = random_instance(8, 40 + seed, p_ref=120.0)
        for sol in (greedy(inst), brute_force(inst),
                    round_relaxed(np.full(8, 0.6), inst)):
            assert sol.cost == eval_p1(inst, sol.bits.astype(float))


def test_brute_dominates_all_methods():
    rng = np.random.default_rng(55)
    for seed in range(5):
        inst = random_instance(8, 60 + seed, p_ref=120.0)
        floor = brute_force(inst).cost
        assert greedy(inst).cost >= floor - 1e-9
        frac = rng.uniform(0, 1, 8)
        assert round_relaxed(frac, inst).cost >= floor - 1e-9


def _all_corners_oracle(instance):
    """First minimum over every corner, scored as one dense bit matrix."""
    n = instance.n
    codes = np.arange(1 << n)
    bits = ((codes[:, None] >> np.arange(n - 1, -1, -1)) & 1).astype(float)
    costs = bits @ instance.incr_cost + 0.5 * instance.penalty * (
        bits @ instance.output - instance.target) ** 2
    return tuple(np.flatnonzero(bits[int(np.argmin(costs))]))


@pytest.mark.parametrize("n", [13, 15])
def test_brute_force_matches_reversed_enumeration_past_one_chunk(n):
    # above 2^12 corners the high half of the subset sums is non-empty
    inst = random_instance(n, 70 + n, p_ref=20.0 * n)
    assert brute_force(inst).cost == pytest.approx(brute_oracle(inst), abs=1e-9)


def test_brute_force_matches_dense_enumeration_over_many_chunks():
    # targets of 10, 25 and 40 per agent, and criterion 10's 15 per agent
    for seed, per_agent in ((0, 10), (1, 25), (2, 40), (3, 15)):
        inst = random_instance(17, 90 + seed, p_ref=float(per_agent) * 17)
        assert brute_force(inst).chosen == _all_corners_oracle(inst)


def _integer_instance(incr, output, target):
    """Integer costs, outputs and target, so that equal sums tie exactly."""
    incr = np.asarray(incr, dtype=float)
    return Instance(quad=np.full(len(incr), -2.0), center=(incr + 1.0) / 2.0,
                    passive=np.zeros(len(incr)), output=output, penalty=2.0,
                    target=target)


@pytest.mark.parametrize("n,tied,expected", [
    (14, (0, 1), (1,)),         # chunks 2 and 1: the later prefix loses
    (14, (0, 1, 12), (12,)),    # chunk 0 beats both high prefixes
    (16, (0, 3, 7), (7,)),      # chunks 8, 1 and 0
    (16, (2, 9, 13), (13,)),    # two ties inside chunk 0, the first one wins
])
def test_brute_force_lexicographic_ties_across_chunks(n, tied, expected):
    # any one tied agent alone meets the target at incremental cost 1;
    # every other agent costs 5 for an output of 1
    incr = np.full(n, 5.0)
    output = np.ones(n)
    incr[list(tied)] = 1.0
    output[list(tied)] = 3.0
    sol = brute_force(_integer_instance(incr, output, 3.0))
    assert sol.chosen == expected
    assert sol.cost == 1.0


def test_brute_force_size_cap_is_the_module_constant(monkeypatch):
    inst = random_instance(13, 0, p_ref=100.0)
    expected = brute_force(inst).chosen
    monkeypatch.setattr(baselines, "BRUTE_FORCE_CAP", 12)
    with pytest.raises(SizeError):
        brute_force(inst)
    monkeypatch.setattr(baselines, "BRUTE_FORCE_CAP", 13)
    assert brute_force(inst).chosen == expected
