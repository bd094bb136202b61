"""Gauss-Legendre rules: exactness degrees, nodes and weights."""
import pytest

from spacetime_iga.quadrature import gauss_1d


@pytest.mark.parametrize('n', range(1, 9))
def test_exact_through_degree_2n_minus_1(n):
    rule = gauss_1d(n)
    for k in range(2 * n):
        # analytic moment of x^k on the unit interval
        val = float(rule.weights @ rule.nodes[:, 0] ** k)
        assert abs(val - 1.0 / (k + 1)) < 5e-15


@pytest.mark.parametrize('n', range(1, 6))
def test_degree_2n_not_exact(n):
    # falsification: one degree past the guarantee must show a real defect
    rule = gauss_1d(n)
    k = 2 * n
    val = float(rule.weights @ rule.nodes[:, 0] ** k)
    assert abs(val - 1.0 / (k + 1)) > 1e-8


def test_nodes_inside_weights_positive():
    for n in (1, 4, 9, 16):
        rule = gauss_1d(n)
        assert rule.weights.size == n
        assert rule.nodes.min() > 0.0 and rule.nodes.max() < 1.0
        assert rule.weights.min() > 0.0
        assert abs(rule.weights.sum() - 1.0) < 1e-14


def test_gauss_point_count_bounds():
    with pytest.raises(ValueError):
        gauss_1d(0)
    with pytest.raises(ValueError):
        gauss_1d(17)
