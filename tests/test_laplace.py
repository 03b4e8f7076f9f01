import numpy as np
import pytest

from drawdown_ctmc.laplace import (
    InversionConfig,
    invert_values,
    inversion_nodes_weights,
    richardson,
)


def fold(transform, T, cfg=InversionConfig()):
    """F(T) from a transform applied to the whole node vector."""
    nodes, _ = inversion_nodes_weights(T, cfg)
    return invert_values(transform(nodes), T, cfg)


class TestInvert:
    @pytest.mark.parametrize("T", [0.1, 0.5, 1.0, 2.0])
    def test_step_transform(self, T):
        assert fold(lambda q: 1.0 / q, T) == pytest.approx(1.0, abs=1e-7)

    @pytest.mark.parametrize("T", [0.1, 0.5, 1.0, 2.0])
    def test_exponential_transform(self, T):
        c = 1.0
        assert fold(lambda q: 1.0 / (q + c), T) == pytest.approx(np.exp(-c * T), abs=1e-7)

    @pytest.mark.parametrize("T", [0.1, 0.5, 1.0, 2.0])
    def test_ramp_transform(self, T):
        assert fold(lambda q: 1.0 / q**2, T) == pytest.approx(T, abs=1e-7)

    def test_deterministic(self):
        vals = [fold(lambda q: 1.0 / (q + 0.3), 0.7) for _ in range(3)]
        assert vals[0] == vals[1] == vals[2]

    def test_nodes_have_positive_real_part(self):
        nodes, weights = inversion_nodes_weights(0.5)
        assert np.all(nodes.real > 0.0)
        assert nodes.size == weights.size == 15 + 11 + 1

    @pytest.mark.parametrize("base, euler", [(15, 11), (1, 1), (40, 3), (15, 60)])
    def test_euler_weights_bit_for_bit(self, base, euler):
        # the running binomial sum against one sum of binomials per term
        from math import comb, exp

        T, decay = 0.7, 18.4
        _, w = inversion_nodes_weights(T, InversionConfig(decay, base, euler))
        ks = np.arange(base + euler + 1)
        tail = np.ones(ks.size)
        for ell in range(1, euler + 1):
            tail[base + ell] = sum(comb(euler, j) for j in range(ell, euler + 1)) / 2.0 ** euler
        scale = exp(0.5 * decay) / (2.0 * T)
        ref = scale * 2.0 * (-1.0) ** ks * tail
        ref[0] = scale * tail[0]
        assert np.array_equal(w.view(np.int64), ref.view(np.int64))

    def test_invert_values_length_guard(self):
        with pytest.raises(ValueError):
            invert_values(np.ones(5), 0.5)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            InversionConfig(base_terms=0)
        for decay in (0.0, -5.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="decay"):
                InversionConfig(decay_param=decay)
        assert InversionConfig(decay_param=1e-3).decay_param == 1e-3
        with pytest.raises(ValueError):
            inversion_nodes_weights(-1.0)


class TestRichardson:
    def test_forensic_identities(self):
        # pinned arithmetic from the published refinement studies
        assert richardson(0.55212, 0.56000) == pytest.approx(0.56788, abs=1e-12)
        assert abs(richardson(0.55212, 0.56000) - 0.56789) < 1e-5
        assert richardson(0.87418, 0.89864) == pytest.approx(0.92310, abs=1e-12)
        assert abs(richardson(0.87418, 0.89864) - 0.92311) < 1e-5

    def test_fixed_point_on_converged_input(self):
        assert richardson(0.42, 0.42) == 0.42

    def test_exact_on_affine_in_inverse_n(self):
        v, c = 0.8371, 2.9
        for n in (10, 80, 640):
            assert richardson(v + c / n, v + c / (2 * n)) == pytest.approx(v, abs=1e-13)
