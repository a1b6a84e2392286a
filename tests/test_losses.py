import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from umrlab import losses as L
from umrlab import tensor as T
from umrlab.errors import ContractError, DimensionError
from umrlab.gradcheck import check_gradients
from umrlab.tasks import MODALITIES
from umrlab.tensor import Tensor

# frozen scalar-oracle values, computed with math.log/exp before the build
INFONCE_2X2_IDENTITY = 0.31326168751822286  # ln(1 + e^-1)
MAC_EXAMPLE = 0.1941017196523584  # (ln(1+e^-1.7) + ln(1+e^-1.4)) / 2
LN4 = 1.3862943611198906


def rand_embeddings(g, d, seed):
    rng = np.random.default_rng(seed)
    return Tensor(rng.normal(0.0, 1.0, size=(g, d)))


def rand_sim_and_tags(g, seed):
    rng = np.random.default_rng(seed)
    sim = Tensor(rng.uniform(-1.0, 1.0, size=(g, g)))
    tags = [MODALITIES[i] for i in rng.integers(0, 3, size=g)]
    return sim, tags


class TestCosineSimilarity:
    def test_orthonormal_rows_give_identity(self):
        q = Tensor(np.eye(3))
        assert np.allclose(L.cosine_similarity_matrix(q, q).data, np.eye(3), atol=1e-12)

    def test_negated_candidates_give_minus_one_diagonal(self):
        rng = np.random.default_rng(0)
        q = Tensor(rng.normal(size=(4, 5)))
        c = Tensor(-q.data)
        sim = L.cosine_similarity_matrix(q, c).data
        assert np.allclose(np.diag(sim), -1.0, atol=1e-12)

    def test_matches_scalar_cosine_oracle(self):
        rng = np.random.default_rng(5)
        q = rng.normal(size=(3, 4))
        c = rng.normal(size=(3, 4))
        got = L.cosine_similarity_matrix(Tensor(q), Tensor(c)).data
        for i in range(3):
            for j in range(3):
                dot = sum(q[i][l] * c[j][l] for l in range(4))
                nq = math.sqrt(sum(v * v for v in q[i]))
                nc = math.sqrt(sum(v * v for v in c[j]))
                assert abs(got[i][j] - dot / (nq * nc)) < 1e-12

    def test_entries_cosine_bounded(self):
        for seed in range(5):
            q = rand_embeddings(6, 8, seed)
            c = rand_embeddings(6, 8, seed + 50)
            sim = L.cosine_similarity_matrix(q, c).data
            assert (np.abs(sim) <= 1.0 + 1e-9).all()


class TestInfonce:
    def test_single_pair_is_zero(self):
        assert L.infonce(Tensor([[0.7]]), 0.1).item() == pytest.approx(0.0, abs=1e-15)

    def test_uniform_scores_give_ln_g(self):
        sim = Tensor(np.full((4, 4), 0.3))
        assert L.infonce(sim, 1.0).item() == pytest.approx(LN4, abs=1e-12)

    def test_identity_matrix_frozen_value(self):
        sim = Tensor(np.eye(2))
        assert L.infonce(sim, 1.0).item() == pytest.approx(INFONCE_2X2_IDENTITY, abs=1e-12)

    def test_nonpositive_temperature_rejected(self):
        with pytest.raises(ContractError):
            L.infonce(Tensor(np.eye(2)), 0.0)

    def test_non_square_rejected(self):
        with pytest.raises(DimensionError):
            L.infonce(Tensor(np.zeros((2, 3))), 1.0)


class TestModalityPartition:
    def test_all_equal_tags(self):
        assert L.modality_partition(["text"] * 3).all()

    def test_two_distinct_tags(self):
        out = L.modality_partition(["text", "image"])
        assert np.array_equal(out, [[True, False], [False, True]])

    @given(st.lists(st.sampled_from(MODALITIES), min_size=1, max_size=12))
    def test_symmetric_with_true_diagonal(self, tags):
        out = L.modality_partition(tags)
        assert np.array_equal(out, out.T)
        assert np.diagonal(out).all()

    def test_unknown_tag_rejected(self):
        with pytest.raises(ContractError):
            L.modality_partition(["text", "audio"])


class TestMacLoss:
    def test_equal_temperatures_collapse_to_infonce(self):
        for seed in range(100):
            g = 2 + seed % 15
            sim, tags = rand_sim_and_tags(g, seed)
            mac = L.mac_loss(sim, tags, 0.07, 0.07, "mac").item()
            plain = L.infonce(sim, 0.07).item()
            assert abs(mac - plain) < 1e-12

    def test_frozen_example(self):
        sim = Tensor([[0.9, 0.1], [0.2, 0.8]])
        got = L.mac_loss(sim, ["text", "image"], 0.5, 1.0, "mac").item()
        formula = (math.log(1 + math.exp(-1.7)) + math.log(1 + math.exp(-1.4))) / 2
        assert got == pytest.approx(formula, abs=1e-12)
        assert got == pytest.approx(MAC_EXAMPLE, abs=1e-12)

    def test_uniform_tags_equal_infonce_at_hard_temperature(self):
        sim, _ = rand_sim_and_tags(5, 7)
        tags = ["image"] * 5
        assert L.mac_loss(sim, tags, 0.3, 1.0, "mac").item() == L.infonce(sim, 0.3).item()

    def test_reverse_equals_mac_with_swapped_arguments(self):
        for seed in range(20):
            sim, tags = rand_sim_and_tags(6, seed)
            a = L.mac_loss(sim, tags, 0.04, 0.09, "reverse").item()
            b = L.mac_loss(sim, tags, 0.09, 0.04, "mac").item()
            assert a == b

    def test_off_mode_ignores_hard_temperature(self):
        sim, tags = rand_sim_and_tags(4, 3)
        a = L.mac_loss(sim, tags, 0.001, 0.07, "off").item()
        b = L.infonce(sim, 0.07).item()
        assert a == b

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(17)
        for seed in range(10):
            g = 6
            q = rand_embeddings(g, 5, seed)
            c = rand_embeddings(g, 5, seed + 99)
            tags = [MODALITIES[i] for i in np.random.default_rng(seed).integers(0, 3, g)]
            sim = L.cosine_similarity_matrix(q, c)
            base = L.mac_loss(sim, tags, 0.05, 0.1, "mac").item()
            perm = rng.permutation(g)
            sim_p = L.cosine_similarity_matrix(
                Tensor(q.data[perm]), Tensor(c.data[perm])
            )
            permuted = L.mac_loss(sim_p, [tags[i] for i in perm], 0.05, 0.1, "mac").item()
            assert abs(base - permuted) < 1e-12

    def test_losses_non_negative_for_cosine_bounded_inputs(self):
        for seed in range(10):
            g = 4 + seed % 5
            q = rand_embeddings(g, 6, seed)
            c = rand_embeddings(g, 6, seed + 31)
            sim = L.cosine_similarity_matrix(q, c)
            tags = [MODALITIES[i] for i in np.random.default_rng(seed).integers(0, 3, g)]
            assert L.infonce(sim, 0.5).item() >= 0.0
            assert L.mac_loss(sim, tags, 0.2, 0.5, "mac").item() >= 0.0

    def test_bad_mode_and_temperatures(self):
        sim, tags = rand_sim_and_tags(3, 0)
        with pytest.raises(ContractError):
            L.mac_loss(sim, tags, -0.1, 0.5, "mac")
        with pytest.raises(ContractError):
            L.mac_loss(sim, tags, 0.1, 0.5, "macro")
        with pytest.raises(DimensionError):
            L.mac_loss(sim, tags[:2], 0.1, 0.5, "mac")


class TestTemperatureSchedule:
    def test_progress_zero_is_tau0(self):
        s = L.TemperatureSchedule(tau0=0.05, lam=0.2)
        assert L.tau_hard_at(s, 0.0) == 0.05

    def test_zero_decay_is_constant(self):
        s = L.TemperatureSchedule(tau0=0.07, lam=0.0)
        assert {L.tau_hard_at(s, p) for p in (0.0, 0.3, 1.0)} == {0.07}

    def test_frozen_decay_value(self):
        s = L.TemperatureSchedule(tau0=0.05, lam=0.2)
        assert L.tau_hard_at(s, 1.0) == 0.041

    def test_rounding_is_half_away_from_zero(self):
        s = L.TemperatureSchedule(tau0=0.0625, lam=0.0)
        # 0.0625 rounds up to 0.063, not banker's 0.062
        assert L.tau_hard_at(s, 0.5) == 0.063

    @given(
        st.floats(0.01, 0.5),
        st.floats(0.0, 2.0),
        st.floats(0.0, 1.0),
        st.floats(0.0, 1.0),
    )
    def test_non_increasing_in_progress(self, tau0, lam, p1, p2):
        s = L.TemperatureSchedule(tau0=tau0, lam=lam)
        lo, hi = sorted((p1, p2))
        assert L.tau_hard_at(s, hi) <= L.tau_hard_at(s, lo)

    @given(st.floats(0.01, 0.5), st.floats(0.0, 2.0), st.floats(0.0, 2.0))
    def test_non_increasing_in_lambda(self, tau0, lam1, lam2):
        lo, hi = sorted((lam1, lam2))
        a = L.tau_hard_at(L.TemperatureSchedule(tau0=tau0, lam=hi), 1.0)
        b = L.tau_hard_at(L.TemperatureSchedule(tau0=tau0, lam=lo), 1.0)
        assert a <= b

    def test_progress_out_of_range(self):
        s = L.TemperatureSchedule()
        with pytest.raises(ContractError):
            L.tau_hard_at(s, 1.5)

    def test_invalid_schedules(self):
        with pytest.raises(ContractError):
            L.TemperatureSchedule(tau0=0.0)
        with pytest.raises(ContractError):
            L.TemperatureSchedule(lam=-1.0)


class TestAlphaSchedule:
    def test_dynamic_midpoint(self):
        a1, a2 = L.alpha_at(L.AlphaSchedule.of("dynamic"), 0.5)
        assert (a1, a2) == pytest.approx((0.7, 0.3), abs=1e-12)

    def test_fixed_everywhere(self):
        s = L.AlphaSchedule.of("fixed")
        for p in (0.0, 0.25, 1.0):
            assert L.alpha_at(s, p) == pytest.approx((0.9, 0.1), abs=1e-12)

    def test_reverse_endpoint(self):
        a1, a2 = L.alpha_at(L.AlphaSchedule.of("reverse"), 1.0)
        assert (a1, a2) == pytest.approx((0.1, 0.9), abs=1e-12)

    @given(st.sampled_from(L.ALPHA_MODES), st.floats(0.0, 1.0))
    def test_weights_always_sum_to_one_exactly(self, mode, progress):
        a1, a2 = L.alpha_at(L.AlphaSchedule.of(mode), progress)
        assert a1 + a2 == 1.0
        assert a1 >= 0 and a2 >= 0

    def test_bad_pair_rejected(self):
        with pytest.raises(ContractError):
            L.AlphaSchedule("fixed", (0.9, 0.2), (0.9, 0.2))


class TestSelfDistill:
    def test_identical_embeddings_zero_loss(self):
        x = rand_embeddings(3, 4, 0)
        for variant in L.DISTILL_VARIANTS:
            loss = L.self_distill(x, x, x, x, variant=variant, tau=0.5).item()
            assert loss == pytest.approx(0.0, abs=1e-12)

    def test_mse_example(self):
        tq = Tensor([[1.0, 0.0]])
        sq = Tensor([[0.0, 0.0]])
        tc = Tensor([[0.0, 1.0]])
        sc = Tensor([[0.0, 0.0]])
        assert L.self_distill(tq, sq, tc, sc, "mse").item() == pytest.approx(2.0)

    def test_kl_non_negative(self):
        for seed in range(5):
            tq, sq = rand_embeddings(4, 5, seed), rand_embeddings(4, 5, seed + 1)
            tc, sc = rand_embeddings(4, 5, seed + 2), rand_embeddings(4, 5, seed + 3)
            assert L.self_distill(tq, sq, tc, sc, "kl", tau=0.7).item() >= -1e-12

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            L.self_distill(
                rand_embeddings(3, 4, 0),
                rand_embeddings(3, 4, 1),
                rand_embeddings(2, 4, 2),
                rand_embeddings(3, 4, 3),
                "mse",
            )

    def test_teacher_receives_no_gradient(self):
        tq = Tensor(np.ones((2, 3)), grad_tracked=True)
        sq = Tensor(np.zeros((2, 3)), grad_tracked=True)
        loss = L.self_distill(tq, sq, tq, sq, "mse")
        grads = T.backward(loss, populate=False)
        assert tq not in grads
        assert sq in grads

class TestPretrainingLoss:
    def test_weighted_sum(self):
        lc, ld = Tensor(np.asarray(1.0)), Tensor(np.asarray(2.0))
        assert L.pretraining_loss(lc, ld, (0.9, 0.1)).item() == pytest.approx(1.1)

    def test_contrastive_only(self):
        lc, ld = Tensor(np.asarray(3.0)), Tensor(np.asarray(7.0))
        assert L.pretraining_loss(lc, ld, (1.0, 0.0)).item() == 3.0

    def test_distill_only(self):
        lc, ld = Tensor(np.asarray(3.0)), Tensor(np.asarray(7.0))
        assert L.pretraining_loss(lc, ld, (0.0, 1.0)).item() == 7.0

    def test_negative_weight_rejected(self):
        lc, ld = Tensor(np.asarray(1.0)), Tensor(np.asarray(1.0))
        with pytest.raises(ContractError):
            L.pretraining_loss(lc, ld, (-0.1, 1.1))


class TestLossGradients:
    """Reverse-mode vs central finite differences, w.r.t. raw embeddings."""

    @pytest.mark.parametrize("seed", range(5))
    def test_infonce(self, seed):
        f = lambda q, c: L.infonce(L.cosine_similarity_matrix(q, c), 0.2)
        xs = [rand_embeddings(4, 5, seed), rand_embeddings(4, 5, seed + 10)]
        assert check_gradients(f, xs) < 1e-4

    @pytest.mark.parametrize("mode", L.TEMPERATURE_MODES)
    @pytest.mark.parametrize("seed", range(5))
    def test_mac_all_modes(self, mode, seed):
        tags = ["text", "image", "image_text", "text"]

        def f(q, c):
            sim = L.cosine_similarity_matrix(q, c)
            return L.mac_loss(sim, tags, 0.11, 0.27, mode)

        xs = [rand_embeddings(4, 5, seed), rand_embeddings(4, 5, seed + 20)]
        assert check_gradients(f, xs) < 1e-4

    @pytest.mark.parametrize("variant", L.DISTILL_VARIANTS)
    @pytest.mark.parametrize("seed", range(5))
    def test_self_distill_variants(self, variant, seed):
        tq = rand_embeddings(3, 4, seed + 40)
        tc = rand_embeddings(3, 4, seed + 50)

        def f(sq, sc):
            return L.self_distill(tq, sq, tc, sc, variant=variant, tau=0.8)

        xs = [rand_embeddings(3, 4, seed + 60), rand_embeddings(3, 4, seed + 70)]
        assert check_gradients(f, xs) < 1e-4

    @pytest.mark.parametrize("seed", range(5))
    def test_pretraining_loss_composite(self, seed):
        tq = rand_embeddings(4, 5, seed + 80)
        tc = rand_embeddings(4, 5, seed + 90)

        def f(q, c):
            contrastive = L.infonce(L.cosine_similarity_matrix(q, c), 0.3)
            distill = L.self_distill(tq, q, tc, c, "mse")
            return L.pretraining_loss(contrastive, distill, (0.9, 0.1))

        xs = [rand_embeddings(4, 5, seed), rand_embeddings(4, 5, seed + 5)]
        assert check_gradients(f, xs) < 1e-4
