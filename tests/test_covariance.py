import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superconc.covariance import (
    CovarianceModel,
    TableRangeError,
    check_hypotheses,
    evaluate,
    gram_matrix,
    toeplitz_lags,
)


def test_all_kinds_are_one_at_zero(iid, ou, gs, pd_model):
    for m in (iid, ou, gs, pd_model, CovarianceModel("log_decay", amp=2.0)):
        assert evaluate(m, 0.0) == 1.0


def test_iid_is_indicator(iid):
    assert evaluate(iid, 0.0) == 1.0
    assert evaluate(iid, 0.5) == 0.0
    assert evaluate(iid, 3.0) == 0.0


def test_closed_forms(ou, gs):
    t = 1.7
    assert evaluate(ou, t) == pytest.approx(math.exp(-t))
    assert evaluate(gs, t) == pytest.approx(math.exp(-t * t / 2))
    pd = CovarianceModel("power_decay", amp=2.0, alpha_cov=1.5)
    assert evaluate(pd, t) == pytest.approx(1 / (1 + 2 * t**1.5))
    ld = CovarianceModel("log_decay", amp=3.0)
    assert evaluate(ld, t) == pytest.approx(1 / (1 + 3 * math.log1p(t)))


def test_vectorized_evaluation(ou):
    t = np.array([0.0, 1.0, 2.0])
    out = evaluate(ou, t)
    assert out.shape == (3,)
    assert np.allclose(out, np.exp(-t))


def test_negative_lag_rejected(ou):
    with pytest.raises(ValueError):
        evaluate(ou, -1.0)


def test_table_interpolation_and_range():
    m = CovarianceModel("table", table=((0.0, 1.0), (2.0, 0.5), (4.0, 0.0)))
    assert evaluate(m, 1.0) == pytest.approx(0.75)
    assert evaluate(m, 3.0) == pytest.approx(0.25)
    with pytest.raises(TableRangeError):
        evaluate(m, 5.0)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(kind="nope"),
        dict(kind="ornstein_uhlenbeck", rate=0.0),
        dict(kind="gaussian_smooth", lam2=-1.0),
        dict(kind="power_decay", amp=0.0),
        dict(kind="power_decay", alpha_cov=3.0),
        dict(kind="table", table=None),
        dict(kind="table", table=((1.0, 1.0),)),  # must tabulate lag 0
        dict(kind="table", table=((0.0, 0.9),)),  # phi(0) != 1
        dict(kind="table", table=((0.0, 1.0), (0.0, 1.0))),  # duplicate lag
    ],
)
def test_invalid_models_rejected(kwargs):
    with pytest.raises(ValueError):
        CovarianceModel(**kwargs)


@given(
    st.sampled_from(
        [
            CovarianceModel("iid"),
            CovarianceModel("ornstein_uhlenbeck", rate=0.3),
            CovarianceModel("gaussian_smooth", lam2=2.5),
            CovarianceModel("power_decay", amp=0.7, alpha_cov=1.2),
            CovarianceModel("log_decay", amp=1.1),
            CovarianceModel("table", table=((0.0, 1.0), (1.0, 0.4), (9.0, 0.0))),
        ]
    )
)
def test_json_round_trip(model):
    assert CovarianceModel.from_dict(model.to_dict()) == model
    assert CovarianceModel.from_json(json.dumps(model.to_dict())) == model
    # and the dict itself is stable under a second round trip
    assert CovarianceModel.from_dict(model.to_dict()).to_dict() == model.to_dict()


def test_from_json_rejects_parameters_outside_params():
    with pytest.raises(ValueError, match="rate"):
        CovarianceModel.from_json('{"kind": "ornstein_uhlenbeck", "rate": 2.0}')
    nested = '{"kind": "ornstein_uhlenbeck", "params": {"rate": 2.0}}'
    assert CovarianceModel.from_json(nested).rate == 2.0
    # a parameter of another kind, an unknown one, and a table on a non-table kind
    with pytest.raises(ValueError, match=r"gaussian_smooth takes no parameter\(s\) \['rate'\]"):
        CovarianceModel.from_json('{"kind": "gaussian_smooth", "params": {"rate": 2.0}}')
    with pytest.raises(ValueError, match=r"iid takes no parameter\(s\) \['foo'\]"):
        CovarianceModel.from_json('{"kind": "iid", "params": {"foo": 1}}')
    with pytest.raises(ValueError, match="iid takes no 'table'"):
        CovarianceModel.from_json('{"kind": "iid", "table": [[0, 1.0]]}')
    # the kind is checked first
    with pytest.raises(ValueError, match="unknown covariance kind 'bogus'"):
        CovarianceModel.from_json('{"kind": "bogus", "params": {"rate": 2.0}}')


def test_from_json_names_a_non_numeric_parameter():
    with pytest.raises(ValueError, match="'rate' must be a number"):
        CovarianceModel.from_json('{"kind": "ornstein_uhlenbeck", "params": {"rate": "x"}}')
    model = CovarianceModel.from_json('{"kind": "power_decay", "params": {"amp": 1, "alpha_cov": "1.5"}}')
    assert (model.amp, model.alpha_cov) == (1.0, 1.5)
    assert isinstance(model.amp, float)


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from(["ornstein_uhlenbeck", "gaussian_smooth", "power_decay", "log_decay"]),
    st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=2, max_size=20),
)
def test_builtin_kinds_nonincreasing(kind, lags):
    model = CovarianceModel(kind)
    t = np.sort(np.asarray(lags))
    phi = np.atleast_1d(evaluate(model, t))
    assert np.all(np.diff(phi) <= 1e-12)


def test_check_hypotheses_clean_model(ou):
    rep = check_hypotheses(ou)
    assert rep.nonincreasing
    assert rep.phi1_lt_half


def test_check_hypotheses_detects_nonmonotone_table():
    m = CovarianceModel("table", table=((0.0, 1.0), (1.0, 0.2), (2.0, 0.4), (3.0, 0.0)))
    rep = check_hypotheses(m)
    assert not rep.nonincreasing
    assert rep.details["nonincreasing_witness"] == (1.0, 2.0)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(min_value=-1.0, max_value=1.0), min_size=1, max_size=8),
       st.lists(st.floats(min_value=0.01, max_value=5.0), min_size=8, max_size=8))
def test_check_hypotheses_is_exact_on_tables(values, steps):
    # a table is linear between its knots: a pass means phi never rises
    # anywhere, and a failure's witness lags bracket a rise
    lags = np.concatenate([[0.0], np.cumsum(steps[:len(values)])])
    lags *= max(1.0, 1.0 / lags[-1])  # phi(1) is tabulated
    m = CovarianceModel("table", table=tuple(zip(lags, [1.0, *values])))
    rep = check_hypotheses(m)
    if rep.nonincreasing:
        dense = np.union1d(lags, np.linspace(0.0, lags[-1], 500))
        assert np.all(np.diff(np.atleast_1d(evaluate(m, dense))) <= 1e-12)
    else:
        lo, hi = rep.details["nonincreasing_witness"]
        assert evaluate(m, hi) - evaluate(m, lo) > 1e-12


def test_check_hypotheses_phi1_boundary():
    # phi(1) = 1/2 exactly is not strictly below one half
    m = CovarianceModel("power_decay", amp=1.0, alpha_cov=2.0)
    rep = check_hypotheses(m)
    assert not rep.phi1_lt_half


def test_gram_matrix_structure(ou):
    g = gram_matrix(ou, np.arange(6))
    assert g.shape == (6, 6)
    assert np.array_equal(g, g.T)
    assert np.all(np.diag(g) == 1.0)
    assert g[0, 3] == pytest.approx(math.exp(-3.0))


def _dense_gram(model, points):
    pts = np.asarray(points, dtype=float).reshape(len(points), -1)
    dist = np.sqrt(np.sum((pts[:, None, :] - pts[None, :, :]) ** 2, axis=-1))
    gram = np.atleast_2d(evaluate(model, 0.5 * (dist + dist.T)))
    np.fill_diagonal(gram, 1.0)
    return gram


@pytest.mark.parametrize("model", [
    CovarianceModel("iid"),
    CovarianceModel("ornstein_uhlenbeck", rate=0.7),
    CovarianceModel("gaussian_smooth", lam2=0.3),
    CovarianceModel("power_decay", amp=2.0, alpha_cov=1.5),
    CovarianceModel("log_decay", amp=3.0),
    CovarianceModel("table", table=((0.0, 1.0), (1.5, 0.4), (3000.0, 0.0))),
], ids=lambda m: m.kind)
@pytest.mark.parametrize("n", [1, 2, 257, 2049])
def test_gram_matrix_toeplitz_equals_dense(model, n):
    for points in (np.arange(n), 5.0 + np.arange(n)[:, None]):
        assert np.array_equal(gram_matrix(model, points), _dense_gram(model, points))


def _byte_bounds(a):
    # numpy 2 moved byte_bounds to numpy.lib.array_utils
    utils = getattr(np.lib, "array_utils", np)
    return utils.byte_bounds(a)


@pytest.mark.parametrize("n", [1, 2, 257, 4096])
def test_the_sequence_gram_is_a_read_only_view_over_its_lags(ou, n):
    # n^2 entries, 2n - 1 of them distinct: the view holds those alone
    gram = gram_matrix(ou, np.arange(n))
    assert gram.shape == (n, n)
    with pytest.raises(ValueError):
        gram[0, -1] = 0.5
    lo, hi = _byte_bounds(gram)
    assert hi - lo == (2 * n - 1) * 8


def test_gram_matrix_planar_points(gs):
    pts = np.array([[0.0, 0.0], [3.0, 4.0]])
    g = gram_matrix(gs, pts)
    assert g[0, 1] == pytest.approx(math.exp(-25.0 / 2.0))


def test_toeplitz_lags_matches_gram(ou):
    lags = toeplitz_lags(ou, 5)
    g = gram_matrix(ou, np.arange(5))
    assert np.allclose(lags, g[0])

