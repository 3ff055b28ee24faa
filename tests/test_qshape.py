"""Q-shape construction, row metrics, and the pairwise distance table.

The library's earth-mover distance is total variation, which the discrete
0/1 ground metric makes it; the surplus-mass closed form and an independent
16-variable transport linear program, solved by scipy, check it.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dyadlab import model, phi, qshape
from dyadlab.errors import KLUndefined, NotCrossCoupled
from dyadlab.model import ALL_STATES, DyadState

ATOL = 1e-12

Q10 = np.array(
    [
        [0.0, 0.5, 0.0, 0.5],
        [0.0, 0.5, 0.0, 0.5],
        [0.5, 0.5, 0.0, 0.0],
        [0.5, 0.5, 0.0, 0.0],
    ]
)
Q00 = np.array(
    [
        [0.5, 0.0, 0.5, 0.0],
        [0.5, 0.0, 0.5, 0.0],
        [0.5, 0.5, 0.0, 0.0],
        [0.5, 0.5, 0.0, 0.0],
    ]
)
Q01 = np.array(
    [
        [0.5, 0.0, 0.5, 0.0],
        [0.5, 0.0, 0.5, 0.0],
        [0.0, 0.0, 0.5, 0.5],
        [0.0, 0.0, 0.5, 0.5],
    ]
)
Q11 = np.array(
    [
        [0.0, 0.5, 0.0, 0.5],
        [0.0, 0.5, 0.0, 0.5],
        [0.0, 0.0, 0.5, 0.5],
        [0.0, 0.0, 0.5, 0.5],
    ]
)
EXPECTED_SHAPES = {"00": Q00, "01": Q01, "10": Q10, "11": Q11}


def _swap_shapes():
    s = model.swap()
    return {st.label: qshape.build_qshape(s, st) for st in ALL_STATES}


def emd_discrete_oracle(p, q):
    # under the 0/1 ground metric the optimal cost is the surplus mass
    return float(np.maximum(np.asarray(p) - np.asarray(q), 0.0).sum())


def emd_transport_lp(p, q):
    """Optimal transport cost under the 0/1 ground metric, as a linear program."""
    from scipy.optimize import linprog

    cost = (np.ones((4, 4)) - np.eye(4)).reshape(16)
    a_eq = np.zeros((8, 16))
    for i in range(4):
        a_eq[i, 4 * i : 4 * i + 4] = 1.0  # mass leaving site i is p_i
        a_eq[4 + i, i::4] = 1.0  # mass arriving at site i is q_i
    res = linprog(cost, A_eq=a_eq, b_eq=np.concatenate([p, q]), bounds=(0, None), method="highs")
    assert res.success, res.message
    return float(res.fun)


def distributions():
    return (
        st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4)
        .filter(lambda raw: sum(raw) > 1e-6)
        .map(lambda raw: _normalize(raw))
    )


def _normalize(raw):
    p = np.array(raw, dtype=float)
    p = p / p.sum()
    return p / p.sum()


def test_swap_qshapes_match_frozen_matrices_exactly():
    for label, shape in _swap_shapes().items():
        assert np.array_equal(shape.rows, EXPECTED_SHAPES[label]), label


def test_swap_effect_rows_equal_cause_rows():
    # forward and backward one-step images coincide for an involution
    for shape in _swap_shapes().values():
        assert np.array_equal(shape.rows[0], shape.rows[1])
        assert np.array_equal(shape.rows[2], shape.rows[3])


def test_swap_qshapes_are_pairwise_distinct():
    shapes = _swap_shapes()
    labels = list(shapes)
    for i, li in enumerate(labels):
        for lj in labels[i + 1 :]:
            assert not np.array_equal(shapes[li].rows, shapes[lj].rows)


def test_all_generated_rows_are_distributions(cross_coupled_tpms):
    for tpm in cross_coupled_tpms:
        for st_ in ALL_STATES:
            shape = qshape.build_qshape(tpm, st_)
            for row in shape.rows:
                qshape.validate_distribution(row, atol=ATOL)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_validate_distribution_refuses_non_finite_entries(bad):
    p = np.array([bad, 0.0, 0.0, 1.0])
    with pytest.raises(ValueError, match="distribution has a non-finite entry"):
        qshape.validate_distribution(p)
    for metric in qshape.METRICS:
        with pytest.raises(ValueError, match="distribution has a non-finite entry"):
            qshape.row_distance(p, np.full(4, 0.25), metric)


def test_build_qshape_rejects_uncoupled_rules():
    with pytest.raises(NotCrossCoupled):
        qshape.build_qshape(model.identity_tpm(), DyadState(0, 0))
    with pytest.raises(NotCrossCoupled):
        qshape.build_qshape_iit4(model.identity_tpm(), DyadState(0, 0))


def test_iit4_style_shapes():
    s = model.swap()
    style = qshape.build_qshape_iit4(s, DyadState(1, 0))
    assert (style.phi_a, style.phi_b) == (1.0, 1.0)
    assert (style.maximizer_a, style.maximizer_b) == (1, 0)
    # same prescription applied to the remaining states
    assert qshape.build_qshape_iit4(s, DyadState(1, 1)).maximizer_a == 1
    assert qshape.build_qshape_iit4(s, DyadState(1, 1)).maximizer_b == 1
    assert qshape.build_qshape_iit4(s, DyadState(0, 0)).maximizer_a == 0
    assert qshape.build_qshape_iit4(s, DyadState(0, 0)).maximizer_b == 0
    assert qshape.build_qshape_iit4(s, DyadState(0, 1)).maximizer_a == 0
    assert qshape.build_qshape_iit4(s, DyadState(0, 1)).maximizer_b == 1


def test_iit4_style_reads_big_phi(cross_coupled_tpms):
    for tpm in cross_coupled_tpms:
        for st_ in ALL_STATES:
            style = qshape.build_qshape_iit4(tpm, st_)
            report = phi.big_phi(tpm, st_)
            assert (style.phi_a, style.phi_b) == (report.phi_a, report.phi_b)
            assert style.maximizer_a == report.maximizing_states["A"]["effect"]
            assert style.maximizer_b == report.maximizing_states["B"]["effect"]
            # each maximizer is the partner's realized next value
            assert (style.maximizer_a, style.maximizer_b) == (tpm.apply(st_).b, tpm.apply(st_).a)
            assert style.phi_a == min(report.phi_c_a, report.phi_e_a)
            assert style.phi_b == min(report.phi_c_b, report.phi_e_b)


def test_iit4_styles_are_pairwise_distinct():
    s = model.swap()
    styles = [qshape.build_qshape_iit4(s, st_) for st_ in ALL_STATES]
    seen = {(x.maximizer_a, x.maximizer_b) for x in styles}
    assert len(seen) == 4


def test_row_distance_frozen_values():
    assert qshape.row_distance(
        np.array([0.0, 0.5, 0.0, 0.5]), np.array([0.5, 0.0, 0.5, 0.0])
    ) == pytest.approx(1.0, abs=ATOL)
    p = np.array([0.25, 0.25, 0.25, 0.25])
    assert qshape.row_distance(p, p) == 0.0
    assert qshape.row_distance(
        np.array([1.0, 0.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0, 0.0])
    ) == pytest.approx(1.0, abs=ATOL)


def test_row_distance_unknown_metric():
    p = np.array([0.25, 0.25, 0.25, 0.25])
    with pytest.raises(ValueError, match="unknown metric"):
        qshape.row_distance(p, p, metric="hellinger")


@given(distributions(), distributions())
def test_tv_symmetry_and_bounds(p, q):
    d = qshape.total_variation(p, q)
    assert d == pytest.approx(qshape.total_variation(q, p), abs=ATOL)
    assert -ATOL <= d <= 1.0 + ATOL


@given(distributions())
def test_tv_identity_of_indiscernibles(p):
    assert qshape.total_variation(p, p) == 0.0


@given(distributions(), distributions(), distributions())
def test_tv_triangle_inequality(p, q, r):
    assert qshape.total_variation(p, r) <= (
        qshape.total_variation(p, q) + qshape.total_variation(q, r) + ATOL
    )


def _generated_rows(cross_coupled_tpms):
    rows = []
    for tpm in cross_coupled_tpms:
        for st_ in ALL_STATES:
            rows.extend(qshape.build_qshape(tpm, st_).rows)
    return rows


def test_tv_metric_axioms_on_generated_rows(cross_coupled_tpms):
    rows = np.array(_generated_rows(cross_coupled_tpms))
    d = np.array([[qshape.total_variation(p, q) for q in rows] for p in rows])
    assert np.all(np.diag(d) == 0.0)
    assert np.all(np.abs(d - d.T) <= ATOL)
    # close[p, q] is np.allclose(rows[p], rows[q], atol=ATOL)
    close = np.all(np.isclose(rows[:, None], rows[None, :], atol=ATOL), axis=-1)
    assert np.all(close[d == 0.0])
    # triangle[p, q, r]: d(p, q) <= d(p, r) + d(r, q) + ATOL
    triangle = d[:, :, None] <= d[:, None, :] + d.T[None, :, :] + ATOL
    assert triangle.all()


def test_emd_matches_discrete_closed_form_on_generated_rows(cross_coupled_tpms):
    rows = _generated_rows(cross_coupled_tpms)
    for p in rows:
        for q in rows:
            assert qshape.earth_mover(p, q) == pytest.approx(
                emd_discrete_oracle(p, q), abs=1e-9
            )


def test_emd_matches_discrete_closed_form_on_random_distributions(rng):
    for _ in range(25):
        p = rng.random(4)
        p /= p.sum()
        q = rng.random(4)
        q /= q.sum()
        emd = qshape.earth_mover(p, q)
        assert emd == pytest.approx(emd_discrete_oracle(p, q), abs=1e-9)


def test_emd_matches_transport_lp_oracle(rng):
    # every ordered pair of swap and not_swap Q-shape rows, plus random rows
    rows = {
        tuple(row)
        for tpm in (model.swap(), model.not_swap())
        for st_ in ALL_STATES
        for row in qshape.build_qshape(tpm, st_).rows
    }
    pairs = [(np.array(p), np.array(q)) for p in rows for q in rows]
    for _ in range(20):
        p, q = rng.random(4), rng.random(4)
        pairs.append((p / p.sum(), q / q.sum()))
    for p, q in pairs:
        assert abs(qshape.earth_mover(p, q) - emd_transport_lp(p, q)) <= 1e-12


def test_kl_guarded():
    p = np.array([0.0, 0.5, 0.0, 0.5])
    q = np.array([0.5, 0.0, 0.5, 0.0])
    with pytest.raises(KLUndefined):
        qshape.kl_divergence(p, q)
    u = np.full(4, 0.25)
    assert qshape.kl_divergence(p, u) == pytest.approx(1.0, abs=ATOL)
    assert qshape.kl_divergence(u, u) == 0.0


def test_qshape_distance_frozen_values():
    shapes = _swap_shapes()
    assert qshape.qshape_distance(shapes["01"], shapes["10"]) == pytest.approx(
        4.0, abs=ATOL
    )
    assert qshape.qshape_distance(shapes["10"], shapes["10"]) == 0.0
    # the (0,0)/(1,1) pair has the same row-pair multiset as (0,1)/(1,0):
    # every row differs in all four entries, so the row-summed distance is 4
    assert qshape.qshape_distance(shapes["00"], shapes["11"]) == pytest.approx(
        4.0, abs=ATOL
    )


def test_distance_table_computed_values():
    table = qshape.distance_table(model.swap())
    expected = np.array(
        [
            [0.0, 2.0, 2.0, 4.0],
            [2.0, 0.0, 4.0, 2.0],
            [2.0, 4.0, 0.0, 2.0],
            [4.0, 2.0, 2.0, 0.0],
        ]
    )
    assert np.allclose(table, expected, atol=ATOL)
    assert set(np.unique(table)) <= {0.0, 2.0, 4.0}


def test_distance_table_symmetry_zero_diagonal(cross_coupled_tpms):
    for tpm in cross_coupled_tpms:
        for metric in ("tv", "emd"):
            table = qshape.distance_table(tpm, metric=metric)
            assert np.array_equal(table, table.T)
            assert np.all(np.diag(table) == 0.0)
            assert np.all(table >= 0.0)


def test_distance_table_emd_matches_transport_lp_for_swap():
    # each entry is the row-summed transport cost between two swap Q-shapes
    shapes = [_swap_shapes()[st_.label] for st_ in ALL_STATES]
    lp = np.array(
        [
            [sum(emd_transport_lp(p, q) for p, q in zip(s1.rows, s2.rows)) for s2 in shapes]
            for s1 in shapes
        ]
    )
    emd = qshape.distance_table(model.swap(), metric="emd")
    assert np.allclose(emd, lp, atol=1e-9)


def test_part_points_flatten_rows():
    shape = _swap_shapes()["10"]
    assert np.array_equal(shape.part_point("A"), Q10[0:2].reshape(8))
    assert np.array_equal(shape.part_point("B"), Q10[2:4].reshape(8))


def test_rows_and_part_points_are_plain_floats():
    shape = _swap_shapes()["10"]
    assert isinstance(shape.rows, tuple) and len(shape.rows) == 4
    assert all(isinstance(row, tuple) and len(row) == 4 for row in shape.rows)
    assert all(type(v) is float for row in shape.rows for v in row)
    point = shape.part_point("B")
    assert len(point) == 8 and all(type(v) is float for v in point)


def _numpy_row_distance(p, q, metric):
    """The numpy formulas the row metrics were first written with."""
    p, q = np.asarray(p, dtype=float), np.asarray(q, dtype=float)
    if metric == "kl":
        support = p > 0
        if np.any(q[support] == 0):
            return None
        return float(np.sum(p[support] * np.log2(p[support] / q[support])))
    return 0.5 * float(np.abs(p - q).sum())


@pytest.mark.parametrize("metric", sorted(qshape.METRICS))
def test_distances_equal_the_numpy_formulas_bitwise(cross_coupled_tpms, metric):
    for tpm in cross_coupled_tpms:
        shapes = [qshape.build_qshape(tpm, s) for s in ALL_STATES]
        want = np.zeros((4, 4))
        for i, j in itertools.product(range(4), repeat=2):
            rows = [_numpy_row_distance(p, q, metric) for p, q in zip(shapes[i].rows, shapes[j].rows)]
            if None in rows:
                want[i, j] = np.nan
                with pytest.raises(KLUndefined):
                    qshape.qshape_distance(shapes[i], shapes[j], metric)
            else:
                want[i, j] = sum(rows)
                assert qshape.qshape_distance(shapes[i], shapes[j], metric) == want[i, j]
        if np.isnan(want).any():
            with pytest.raises(KLUndefined):
                qshape.distance_table(tpm, metric)
            continue
        table = qshape.distance_table(tpm, metric)
        assert isinstance(table, np.ndarray) and table.dtype == float
        assert np.array_equal(table, want)
        assert qshape.distance_rows(tpm, metric) == want.tolist()


@pytest.mark.parametrize("metric", sorted(qshape.METRICS))
def test_row_distances_equal_the_numpy_formulas_bitwise(cross_coupled_tpms, metric):
    rows = sorted(set(_generated_rows(cross_coupled_tpms)))
    defined = 0
    for p in rows:
        for q in rows:
            want = _numpy_row_distance(p, q, metric)
            if want is None:
                with pytest.raises(KLUndefined):
                    qshape.row_distance(p, q, metric)
            else:
                assert qshape.row_distance(p, q, metric) == want
                defined += 1
    # KL is defined only between equal rows: distinct rows put mass where the other has none
    assert defined == (len(rows) if metric == "kl" else len(rows) ** 2)


def test_row_metrics_match_the_numpy_formulas_on_random_rows(rng):
    for _ in range(200):
        p, q = rng.random(4), rng.random(4)
        p, q = p / p.sum(), q / q.sum()
        assert qshape.total_variation(p, q) == _numpy_row_distance(p, q, "tv")
        # math.log2 and np.log2 may round an argument that is not a power of 2 differently
        assert qshape.kl_divergence(p, q) == pytest.approx(_numpy_row_distance(p, q, "kl"), rel=1e-14, abs=1e-15)


VALID_ROW = [0.25, 0.5, 0.0, 0.25]


@pytest.mark.parametrize(
    "bad",
    [
        0.25,
        np.float64(1.0),
        np.full((2, 2), 0.25),
        np.full((4, 1), 0.25),
        [[0.25, 0.25], 0.25, 0.25, 0.25],
        [[0.25]] * 4,
        [0.5, 0.25, 0.25],
        [0.2] * 5,
        [np.nan, 0.5, 0.25, 0.25],
        [np.inf, 0.0, 0.0, 0.0],
        [0.5, -np.inf, 0.25, 0.25],
        [1.5, -0.5, 0.0, 0.0],
        [0.25, 0.25, 0.25, 0.2],
        [0.5, 0.5, 0.5, 0.5],
    ],
    ids=["scalar", "numpy-scalar", "2d-array", "column", "ragged", "nested", "3-entries",
         "5-entries", "nan", "inf", "-inf", "negative", "sum-below-1", "sum-above-1"],
)
def test_validate_distribution_refuses_what_is_not_a_distribution(bad):
    with pytest.raises(ValueError):
        qshape.validate_distribution(bad)


@pytest.mark.parametrize("row", [VALID_ROW, tuple(VALID_ROW), np.array(VALID_ROW)], ids=["list", "tuple", "ndarray"])
def test_validate_distribution_accepts_lists_tuples_and_arrays(row):
    out = qshape.validate_distribution(row)
    assert out == tuple(VALID_ROW)
    assert all(type(v) is float for v in out)
