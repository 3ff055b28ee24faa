"""Cause/effect information: frozen values plus a joint-table oracle.

The oracle enumerates the full 16-row joint distribution over (state,
successor) pairs with a uniform prior and derives every conditional by
summation, independently of the formula path in the library.
"""

import itertools
import math

import pytest

from dyadlab import model, phi
from dyadlab.errors import DependencyMismatch, NotCrossCoupled, ZeroMarginal
from dyadlab.model import ALL_STATES, UNITS, DyadState, Tpm2, other_unit

ATOL = 1e-12


def _joint_rows(tpm):
    rows = []
    for s_prev in ALL_STATES:
        for s_next in ALL_STATES:
            p = 0.25 if tpm.apply(s_prev) == s_next else 0.0
            rows.append((s_prev, s_next, p))
    return rows


def effect_oracle(tpm, unit, state):
    rows = _joint_rows(tpm)
    partner = other_unit(unit)
    u_val = state.value(unit)
    w_star = tpm.apply(state).value(partner)
    den = sum(p for s0, _, p in rows if s0.value(unit) == u_val)
    num = sum(
        p for s0, s1, p in rows if s0.value(unit) == u_val and s1.value(partner) == w_star
    )
    constrained = num / den
    noised = sum(p for _, s1, p in rows if s1.value(partner) == w_star)
    if constrained == 0.0:
        return 0.0
    return constrained * math.log2(constrained / noised)


def cause_oracle(tpm, unit, state):
    rows = _joint_rows(tpm)
    partner = other_unit(unit)
    u_val = state.value(unit)
    marginal = sum(p for _, s1, p in rows if s1.value(unit) == u_val)
    likelihood = {}
    posterior = {}
    for w in (0, 1):
        prior_w = sum(p for s0, _, p in rows if s0.value(partner) == w)
        joint_w = sum(
            p for s0, s1, p in rows if s0.value(partner) == w and s1.value(unit) == u_val
        )
        likelihood[w] = joint_w / prior_w
        posterior[w] = joint_w / marginal
    w_star = max((0, 1), key=lambda w: posterior[w])
    noised = 0.5 * likelihood[0] + 0.5 * likelihood[1]
    return posterior[w_star] * math.log2(likelihood[w_star] / noised)


def test_noised_effect_prob_frozen_values():
    s = model.swap()
    assert phi.noised_effect_prob(s, "A", 1, "B", 1) == pytest.approx(0.5, abs=ATOL)
    assert phi.noised_effect_prob(s, "A", 1, "B", 0) == pytest.approx(0.5, abs=ATOL)
    assert phi.noised_effect_prob(model.not_swap(), "A", 0, "B", 1) == pytest.approx(
        0.5, abs=ATOL
    )


def test_noised_effect_prob_dependency_mismatch():
    with pytest.raises(DependencyMismatch):
        phi.noised_effect_prob(model.identity_tpm(), "A", 0, "B", 1)


def test_phi_effect_frozen_values():
    s = model.swap()
    assert phi.phi_effect(s, "A", DyadState(1, 0)) == pytest.approx(1.0, abs=ATOL)
    assert phi.phi_effect(s, "B", DyadState(1, 0)) == pytest.approx(1.0, abs=ATOL)
    assert phi.phi_effect(model.not_swap(), "A", DyadState(0, 0)) == pytest.approx(
        1.0, abs=ATOL
    )


def test_phi_cause_frozen_values():
    s = model.swap()
    assert phi.phi_cause(s, "A", DyadState(1, 0)) == pytest.approx(1.0, abs=ATOL)
    assert phi.phi_cause(s, "B", DyadState(1, 0)) == pytest.approx(1.0, abs=ATOL)
    assert phi.phi_cause(model.not_swap(), "B", DyadState(1, 0)) == pytest.approx(
        1.0, abs=ATOL
    )


def test_phi_unit_frozen_values():
    assert phi.phi_unit(model.swap(), "A", DyadState(1, 0)) == pytest.approx(1.0, abs=ATOL)
    assert phi.phi_unit(model.not_swap(), "A", DyadState(1, 1)) == pytest.approx(
        1.0, abs=ATOL
    )


def test_big_phi_swap_is_two_everywhere():
    s = model.swap()
    for st in ALL_STATES:
        report = phi.big_phi(s, st)
        assert report.big_phi == pytest.approx(2.0, abs=ATOL)
        assert report.phi_a == min(report.phi_c_a, report.phi_e_a)
        assert report.phi_b == min(report.phi_c_b, report.phi_e_b)
        assert report.flags == ()


def test_big_phi_identity_is_zero_with_flags():
    for st in ALL_STATES:
        report = phi.big_phi(model.identity_tpm(), st)
        assert report.big_phi == 0.0
        assert any("not_cross_coupled" in f for f in report.flags)
        assert report.maximizing_states["A"]["effect"] is None


def test_formula_matches_joint_table_oracle(cross_coupled_tpms):
    for tpm in cross_coupled_tpms:
        for st in ALL_STATES:
            for unit in ("A", "B"):
                assert phi.phi_effect(tpm, unit, st) == pytest.approx(
                    effect_oracle(tpm, unit, st), abs=ATOL
                )
                assert phi.phi_cause(tpm, unit, st) == pytest.approx(
                    cause_oracle(tpm, unit, st), abs=ATOL
                )


def test_cross_coupled_bijections_have_unit_phi(cross_coupled_tpms):
    for tpm in cross_coupled_tpms:
        for st in ALL_STATES:
            for unit in ("A", "B"):
                assert phi.phi_effect(tpm, unit, st) == 1.0
                assert phi.phi_cause(tpm, unit, st) == 1.0


def test_phi_range_bounds(cross_coupled_tpms):
    for tpm in cross_coupled_tpms + [model.identity_tpm()]:
        for st in ALL_STATES:
            report = phi.big_phi(tpm, st)
            for v in (report.phi_e_a, report.phi_c_a, report.phi_e_b, report.phi_c_b):
                assert 0.0 <= v <= 1.0


def _relabel_state(state):
    return DyadState(state.b, state.a)


def _conjugate_by_unit_swap(tpm):
    outputs = [0] * 4
    for st in ALL_STATES:
        outputs[_relabel_state(st).index] = _relabel_state(tpm.apply(st)).index
    return Tpm2(outputs)


def test_big_phi_invariant_under_unit_relabeling(cross_coupled_tpms):
    for tpm in cross_coupled_tpms + [model.identity_tpm()]:
        conj = _conjugate_by_unit_swap(tpm)
        for st in ALL_STATES:
            left = phi.big_phi(tpm, st).big_phi
            right = phi.big_phi(conj, _relabel_state(st)).big_phi
            assert left == pytest.approx(right, abs=ATOL)


def test_zero_marginal_for_unreachable_state():
    const = Tpm2([0, 0, 0, 0])
    with pytest.raises(ZeroMarginal):
        phi.phi_cause(const, "A", DyadState(1, 0))


def test_not_cross_coupled_for_reachable_state_of_constant_rule():
    const = Tpm2([0, 0, 0, 0])
    with pytest.raises(NotCrossCoupled):
        phi.phi_cause(const, "A", DyadState(0, 0))
    with pytest.raises(NotCrossCoupled):
        phi.phi_effect(model.identity_tpm(), "A", DyadState(0, 0))


def _reads(tpm, target, source):
    """Independently of Tpm2.dependency: does flipping ``source`` ever change ``target``'s successor?"""
    for s in ALL_STATES:
        flipped = DyadState(1 - s.a, s.b) if source == "A" else DyadState(s.a, 1 - s.b)
        if tpm.apply(s).value(target) != tpm.apply(flipped).value(target):
            return True
    return False


def test_big_phi_zero_marginal_and_flags_on_every_single_reader_rule():
    rules = []
    for outputs in itertools.product(range(4), repeat=4):
        try:
            rules.append(Tpm2(outputs))
        except ValueError:  # an output reads both inputs
            pass
    assert len(rules) == 36
    for tpm in rules:
        successors = [tpm.apply(s) for s in ALL_STATES]
        for st in ALL_STATES:
            unreachable = [
                u for u in UNITS if all(nxt.value(u) != st.value(u) for nxt in successors)
            ]
            if unreachable:
                # checked before the cross-coupling a constant output also lacks
                with pytest.raises(ZeroMarginal):
                    phi.big_phi(tpm, st)
                for u in unreachable:
                    with pytest.raises(ZeroMarginal):
                        phi.phi_cause(tpm, u, st)
                continue
            expected = []
            for u in UNITS:
                partner = other_unit(u)
                if not _reads(tpm, partner, u):
                    expected.append(f"{u}:effect:not_cross_coupled")
                if not _reads(tpm, u, partner):
                    expected.append(f"{u}:cause:not_cross_coupled")
            assert phi.big_phi(tpm, st).flags == tuple(expected), (tpm, st)


def test_report_json_field_names():
    data = phi.big_phi(model.swap(), DyadState(1, 0)).to_json()
    assert set(data) == {
        "phi_e_A",
        "phi_c_A",
        "phi_e_B",
        "phi_c_B",
        "phi_A",
        "phi_B",
        "big_phi",
        "maximizing_states",
        "flags",
    }
    assert data["big_phi"] == 2.0
