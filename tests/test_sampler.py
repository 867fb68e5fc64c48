import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superconc.covariance import CovarianceModel, gram_matrix
from superconc.sampler import (
    CapacityError,
    DecompositionError,
    EmbeddingError,
    circulant_embedding,
    draw_rows,
    grid_geometry,
    grid_points,
    make_plan,
    sample_sequence,
)

NOT_PSD = CovarianceModel("table", table=((0.0, 1.0), (1.0, 0.9), (2.0, 0.0)))


def test_same_seed_same_paths(ou):
    a = sample_sequence(ou, 16, 8, seed=3)
    b = sample_sequence(ou, 16, 8, seed=3)
    assert np.array_equal(a.paths, b.paths)


def test_different_seeds_differ(ou):
    a = sample_sequence(ou, 16, 8, seed=3)
    b = sample_sequence(ou, 16, 8, seed=4)
    assert not np.array_equal(a.paths, b.paths)


def test_stream_offset_is_path_indexed(ou):
    whole = sample_sequence(ou, 16, 8, seed=3)
    tail = sample_sequence(ou, 16, 3, seed=3, stream_offset=5)
    assert np.array_equal(whole.paths[5:], tail.paths)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=1, max_value=9))
def test_chunking_invariance(split):
    model = CovarianceModel("ornstein_uhlenbeck", rate=0.5)
    whole = sample_sequence(model, 12, 10, seed=7).paths
    head = sample_sequence(model, 12, split, seed=7).paths
    rest = sample_sequence(model, 12, 10 - split, seed=7, stream_offset=split).paths
    # the noise streams are identical per path; the matmul against the
    # Cholesky factor may differ by an ulp between BLAS kernel shapes
    assert np.allclose(np.vstack([head, rest]), whole, rtol=0, atol=1e-12)


def test_methods_agree_for_iid(iid):
    a = sample_sequence(iid, 10, 5, seed=1, method="cholesky")
    b = sample_sequence(iid, 10, 5, seed=1, method="circulant")
    assert np.array_equal(a.paths, b.paths)


def test_default_method_switch(ou):
    small = sample_sequence(ou, 64, 2, seed=0)
    assert small.method == "cholesky"
    big = sample_sequence(ou, 4096, 2, seed=0)
    assert big.method == "circulant"


@pytest.mark.parametrize("method", ["cholesky", "circulant"])
def test_empirical_covariance(ou, method):
    batch = 40000
    b = sample_sequence(ou, 4, batch, seed=9, method=method)
    emp = b.paths.T @ b.paths / batch
    g = gram_matrix(ou, np.arange(4))
    se = np.sqrt((1 + g**2) / batch)
    assert np.all(np.abs(emp - g) <= 5 * se)


def test_unknown_method_rejected(ou):
    with pytest.raises(ValueError):
        sample_sequence(ou, 8, 2, seed=0, method="magic")


def test_circulant_embedding_base_size(ou):
    eig, m = circulant_embedding(ou, 4)
    assert m == 8
    assert np.all(eig >= 0)
    # eigenvalues are the DFT of the symmetrized first row phi(0..4) + mirror
    wrapped = np.minimum(np.arange(8), 8 - np.arange(8))
    row = np.exp(-wrapped.astype(float))
    assert np.allclose(eig, np.fft.fft(row).real)


def test_circulant_embedding_smooth_model_pads(gs):
    eig, m = circulant_embedding(gs, 16)
    assert m % 32 == 0
    assert np.all(eig >= 0)


def test_cholesky_failure_names_minor_order():
    with pytest.raises(DecompositionError) as exc:
        sample_sequence(NOT_PSD, 3, 2, seed=0, method="cholesky")
    assert 1 <= exc.value.order <= 3


def test_embedding_failure_reports_sizes():
    # phi = (1, 0.9, 0, 0, ...) keeps a -0.8 circulant eigenvalue at every
    # padded size, so the doubling loop exhausts itself
    stubborn = CovarianceModel(
        "table", table=((0.0, 1.0), (1.0, 0.9), (2.0, 0.0), (1000.0, 0.0))
    )
    with pytest.raises(EmbeddingError) as exc:
        circulant_embedding(stubborn, 2)
    assert exc.value.worst < 0
    assert len(exc.value.sizes) >= 1


def test_capacity_cap(monkeypatch, ou):
    monkeypatch.setenv("SUPERCONC_CAP_BYTES", "1000")
    with pytest.raises(CapacityError):
        sample_sequence(ou, 64, 64, seed=0)


def test_grid_points_1d():
    pts = grid_points(1, 10.0, 1.0)
    assert pts.shape == (11, 1)
    assert grid_geometry(1, 10.0, 1.0) == (11,)
    assert pts[-1, 0] == pytest.approx(10.0)


def test_grid_points_2d():
    pts = grid_points(2, [4.0, 6.0], 2.0)
    assert grid_geometry(2, [4.0, 6.0], 2.0) == (3, 4)
    assert pts.shape == (12, 2)


def test_grid_points_validation():
    with pytest.raises(ValueError):
        grid_points(0, 4.0, 1.0)
    with pytest.raises(ValueError):
        grid_points(1, 4.0, 0.0)
    with pytest.raises(ValueError):
        grid_points(1, 0.5, 1.0)  # fewer than 2 points


@pytest.mark.parametrize(
    "d, method",
    [(2, "cholesky"), (2, "circulant"), (3, "cholesky"), (3, "circulant")],
    ids=["cholesky", "circulant", "3d-cholesky", "3d-circulant"],
)
def test_field_covariance_2d(gs, d, method):
    batch = 30000
    paths = draw_rows(make_plan(gs, grid_geometry(d, [2.0] * d, 1.0), 1.0, method),
                      batch, seed=4)
    pts = grid_points(d, [2.0] * d, 1.0)
    emp = paths.T @ paths / batch
    g = gram_matrix(gs, pts)
    se = np.sqrt((1 + g**2) / batch)
    assert np.all(np.abs(emp - g) <= 5 * se)


def test_field_1d_matches_sequence_for_unit_spacing(ou):
    f = draw_rows(make_plan(ou, grid_geometry(1, 9.0, 1.0), 1.0, "circulant"), 4, seed=2)
    s = sample_sequence(ou, 10, 4, seed=2, method="circulant")
    assert np.array_equal(f, s.paths)

