import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.special import gammainc

import polaron_deco as pd
from polaron_deco import oracle
from polaron_deco import (
    ConfigError,
    DensityMatrixST,
    InvariantError,
    PulseSchedule,
    TimeGrid,
    TruncatedBathConfig,
)
from polaron_deco.dynamics import trajectory_from_matrices
from polaron_deco.output import write_csv
from polaron_deco.oracle import (
    CHUNK,
    _ST_FROM_SITE,
    BandedOperator,
    _ideal_rotation,
    _minus_i_generator,
    _site_swap,
    _trace_distance,
    _vacuum_state,
    ohmic_mode_config,
)
from conftest import fig2_state
from kron_reference import kron_generator, kron_hamiltonian
from oracle_reference import Propagator, dense_lang_firsov, one_block_rho, serial_bangbang


def single_mode(alpha=0.5, n_max=12, j_hop=1.0, eps=0.0, omega=1.0):
    return TruncatedBathConfig(
        mode_freqs=(omega,), g_site1=(alpha * omega,), g_site2=(0.0,),
        n_max=n_max, j_hop=j_hop, epsilon_onsite=eps)


# configs on which the occupation-table operators meet the Kronecker builds
KRON_CONFIGS = {
    "complex-asymmetric": lambda: TruncatedBathConfig(
        mode_freqs=(0.9, 2.3), g_site1=(0.3 + 0.1j, 0.05), g_site2=(0.2, 0.1 - 0.2j),
        n_max=3, j_hop=0.7, epsilon_onsite=0.1),
    "g_site2-zero": lambda: TruncatedBathConfig(
        mode_freqs=(1.0, 1.6), g_site1=(0.5, 0.2 - 0.3j), g_site2=(0.0, 0.0),
        n_max=4, j_hop=0.4, epsilon_onsite=-0.3),
    "n_max-zero": lambda: TruncatedBathConfig(
        mode_freqs=(1.0, 2.0), g_site1=(0.5, 0.2j), g_site2=(0.5, 0.1),
        n_max=0, j_hop=0.4, epsilon_onsite=0.2),
    "one-mode-n_max-10": lambda: TruncatedBathConfig(
        mode_freqs=(1.3,), g_site1=(0.4 - 0.2j,), g_site2=(0.1j,), n_max=10,
        j_hop=0.5, epsilon_onsite=0.25),
    "ohmic-3x7": lambda: ohmic_mode_config(n_modes=3, n_max=7, coupling=0.1),
    "ohmic-4x4": lambda: ohmic_mode_config(n_modes=4, n_max=4),
}


# configs for the displacement check: one and several modes, real and
# complex couplings, g_2k = -g_1k (s = pi) and not, tails from 1e-18 to 4e-3
LANG_FIRSOV_CONFIGS = {
    "single-n_max-12": lambda: single_mode(alpha=0.5, n_max=12),
    "two-modes-real": lambda: TruncatedBathConfig(
        mode_freqs=(1.0, 2.0), g_site1=(0.3, 0.1), g_site2=(0.2, 0.05), n_max=8,
        j_hop=1.0, epsilon_onsite=0.25),
    "complex-asymmetric": lambda: TruncatedBathConfig(
        mode_freqs=(0.9, 2.3), g_site1=(0.3 + 0.1j, 0.05), g_site2=(0.2, 0.1 - 0.2j),
        n_max=5, j_hop=0.7, epsilon_onsite=0.1),
    "ohmic-s-pi": lambda: ohmic_mode_config(),
    "ohmic-compare": lambda: ohmic_mode_config(coupling=0.1, s=1.0, j_hop=0.1, n_max=5),
    "ohmic-3x3": lambda: ohmic_mode_config(n_modes=3, n_max=3, coupling=0.5, s=1.3),
}


class TestConfig:
    def test_dimension_cap(self):
        with pytest.raises(ConfigError, match="cap"):
            TruncatedBathConfig(mode_freqs=(1.0, 2.0, 3.0, 4.0),
                                g_site1=(0.1,) * 4, g_site2=(0.0,) * 4,
                                n_max=7, j_hop=1.0)
        # the cap sits at dim 4096: one mode with 2048 Fock states fits
        assert single_mode(n_max=2047).dim == 4096
        with pytest.raises(ConfigError, match=r"2\*2049\*\*1 exceeds cap 4096"):
            single_mode(n_max=2048)

    @pytest.mark.parametrize("n_modes, n_max, dim", [(11, 1, 4096), (3, 7, 1024),
                                                     (1, 2047, 4096)])
    def test_ohmic_size_within_cap(self, n_modes, n_max, dim):
        assert ohmic_mode_config(n_modes=n_modes, n_max=n_max).dim == dim

    @pytest.mark.parametrize("n_modes, n_max", [(12, 1), (4, 7), (2**40, 1)])
    def test_ohmic_size_refused_before_allocating(self, n_modes, n_max):
        # 2**40 modes would not fit in memory as an array of frequencies
        with pytest.raises(ConfigError, match=rf"2\*{n_max + 1}\*\*{n_modes} exceeds cap"):
            ohmic_mode_config(n_modes=n_modes, n_max=n_max)

    @pytest.mark.parametrize("n_modes", [0, -3])
    def test_ohmic_needs_a_mode(self, n_modes):
        # refused before the band width OMEGA_MAX / n_modes is computed
        with pytest.raises(ConfigError, match="at least one bath mode is required"):
            pd.ohmic_mode_config(n_modes=n_modes)

    def test_positive_frequencies(self):
        with pytest.raises(ConfigError):
            TruncatedBathConfig(mode_freqs=(0.0,), g_site1=(0.1,), g_site2=(0.0,),
                                n_max=2, j_hop=1.0)

    @pytest.mark.parametrize("field,value", [
        ("mode_freqs", (np.nan,)), ("mode_freqs", (np.inf,)), ("g_site1", (np.inf,)),
        ("g_site2", (complex(0.1, np.nan),)), ("j_hop", np.nan),
        ("epsilon_onsite", np.inf)])
    def test_non_finite_rejected(self, field, value):
        kwargs = dict(mode_freqs=(1.0,), g_site1=(0.1,), g_site2=(0.0,),
                      n_max=2, j_hop=1.0)
        kwargs[field] = value
        with pytest.raises(ConfigError, match=field):
            TruncatedBathConfig(**kwargs)

    def test_coupling_length_mismatch(self):
        with pytest.raises(ConfigError):
            TruncatedBathConfig(mode_freqs=(1.0, 2.0), g_site1=(0.1,),
                                g_site2=(0.0, 0.0), n_max=2, j_hop=1.0)

    def test_derived_quantities(self):
        cfg = single_mode(alpha=0.5)
        assert cfg.alpha_weights() == pytest.approx([0.25])
        assert cfg.j_tilde() == pytest.approx(np.exp(-0.125))
        assert cfg.delta_e_b() == 1.0

    @pytest.mark.parametrize("coupling", [1e308, np.inf, np.nan])
    def test_ohmic_overflowing_coupling(self, coupling):
        # refused by name, without the overflow warning of the product
        # (a RuntimeWarning fails the test) and before TruncatedBathConfig
        with pytest.raises(ConfigError, match="coupling .* non-finite mode coupling"):
            ohmic_mode_config(n_modes=1, n_max=1, coupling=coupling)

    def test_ohmic_discretization(self):
        cfg = ohmic_mode_config(n_modes=2, n_max=4, coupling=1.0, s=1.0, j_hop=0.3)
        assert cfg.mode_freqs == (1.0, 3.0)
        assert abs(cfg.g_site1[0]) ** 2 == pytest.approx(2.0 * np.exp(-1.0))
        # site-2 phase implements the separation under linear dispersion
        assert cfg.g_site2[1] == pytest.approx(cfg.g_site1[1] * np.exp(-3.0j))


def assert_bands_match(op, ref):
    """op's bands are the diagonals of the dense ref that have a nonzero
    entry, plus the main diagonal, in ascending order, and toarray() is ref."""
    n = len(ref)
    nonzero = np.flatnonzero(ref)
    assert op.shape == ref.shape
    assert list(op.bands) == sorted({0, *(nonzero % n - nonzero // n).tolist()})
    assert np.max(np.abs(op.toarray() - ref)) <= 1e-13


class TestHamiltonian:
    def test_decoupled_spectrum(self):
        cfg = TruncatedBathConfig(mode_freqs=(1.0,), g_site1=(0.0,), g_site2=(0.0,),
                                  n_max=3, j_hop=0.3, epsilon_onsite=0.7)
        ham = pd.build_hamiltonian(cfg).toarray()
        got = np.sort(np.linalg.eigvalsh(ham))
        expected = np.sort([0.7 + sgn * 0.3 + m for sgn in (1, -1) for m in range(4)])
        assert np.max(np.abs(got - expected)) < 1e-12

    def test_frozen_bath_reduces_to_two_level(self):
        cfg = TruncatedBathConfig(mode_freqs=(1.0,), g_site1=(0.5,), g_site2=(0.5,),
                                  n_max=0, j_hop=0.4, epsilon_onsite=0.2)
        ham = pd.build_hamiltonian(cfg)
        assert ham.shape == (2, 2)
        # a single Fock level truncates the coupling to zero, leaving the bare
        # qubit: the coupling bands are all zero and left out
        assert list(ham.bands) == [-1, 0, 1]
        assert np.allclose(ham.toarray(), [[0.2, 0.4], [0.4, 0.2]], atol=1e-15)

    def test_hermiticity(self):
        cfg = TruncatedBathConfig(mode_freqs=(0.9, 2.3), g_site1=(0.3 + 0.1j, 0.05),
                                  g_site2=(0.2, 0.1 - 0.2j), n_max=3, j_hop=0.7,
                                  epsilon_onsite=0.1)
        ham = pd.build_hamiltonian(cfg)
        # mirror bands are conjugates exactly, and the main diagonal is real
        for o, d in ham.bands.items():
            assert np.array_equal(ham.bands[-o], np.conj(d))

    @pytest.mark.parametrize("name", list(KRON_CONFIGS))
    def test_matches_kron_reference(self, name):
        cfg = KRON_CONFIGS[name]()
        assert_bands_match(pd.build_hamiltonian(cfg), kron_hamiltonian(cfg))

    @pytest.mark.parametrize("name", list(KRON_CONFIGS))
    def test_generator_matches_kron_reference(self, name):
        cfg = KRON_CONFIGS[name]()
        assert_bands_match(_minus_i_generator(cfg), -1j * kron_generator(cfg))


def per_site_tail(cfg):
    """The larger site's Poisson weight beyond n_max, summed over modes, for
    the displacements beta_pk = -g_pk^* / omega_k; gammainc sums the omitted
    terms, where 1 - the kept ones rounds to 0 at n_max 12."""
    w = np.array(cfg.mode_freqs)
    return float(max(np.sum(gammainc(cfg.n_max + 1, np.abs(np.array(g) / w) ** 2))
                     for g in (cfg.g_site1, cfg.g_site2)))


# the displacement-check configs, plus sites 0.1 apart: there the per-site
# tail (9.8e-4) and the measured truncation (9.7e-3) are far above the tail
# of the separation weight |g_1k - g_2k|^2 / omega_k^2 (1.8e-13)
TAIL_CONFIGS = {
    **LANG_FIRSOV_CONFIGS,
    "near-sites": lambda: ohmic_mode_config(n_modes=2, n_max=4, coupling=1.0, s=0.1),
}


class TestLangFirsov:
    def test_zero_coupling_is_inert(self):
        cfg = TruncatedBathConfig(mode_freqs=(1.0,), g_site1=(0.0,), g_site2=(0.0,),
                                  n_max=4, j_hop=0.8)
        report = pd.lang_firsov_check(cfg)
        assert report.displaced_vacuum_dev == 0.0
        assert report.hop_measured == pytest.approx(0.8, abs=1e-12)
        assert report.hop_phase == 0.0
        assert report.truncation_tail == 0.0
        assert report.conclusive

    def test_single_mode_dressed_hopping(self):
        report = pd.lang_firsov_check(single_mode(alpha=0.5, n_max=12))
        assert report.displaced_vacuum_dev < 1e-8
        assert report.hop_expected == pytest.approx(np.exp(-0.125), rel=1e-12)
        assert report.hop_error < 1e-4
        assert report.conclusive

    def test_cutoff_convergence(self):
        r12 = pd.lang_firsov_check(single_mode(alpha=0.5, n_max=12))
        r16 = pd.lang_firsov_check(single_mode(alpha=0.5, n_max=16))
        assert abs(r16.hop_measured - r12.hop_measured) < 1e-6

    def test_two_particle_shift(self):
        # Lang & Firsov, Sov. Phys. JETP 16, 1301 (1963): on the two-particle
        # block the transform shifts the vacuum energy 2 eps by the polaron
        # shift -sum_k (|g_1k|^2 + |g_2k|^2) / omega_k and the bath-mediated
        # interaction -sum_k 2 Re(g_1k^* g_2k) / omega_k. The oracle builds one
        # particle only, so this runs on the dense Kronecker matrices, at
        # n_max 8, where the truncation moves the shift by less than 1e-9
        # (6.7e-6 at complex-asymmetric's own n_max 5).
        def expected(cfg):
            w = np.array(cfg.mode_freqs)
            g1, g2 = np.array(cfg.g_site1), np.array(cfg.g_site2)
            return (2.0 * cfg.epsilon_onsite
                    - np.sum((np.abs(g1) ** 2 + np.abs(g2) ** 2) / w)
                    - np.sum(2.0 * (np.conj(g1) * g2).real / w))

        assert expected(LANG_FIRSOV_CONFIGS["two-modes-real"]()) == pytest.approx(
            0.5 - (0.09 + 0.04) - (0.01 + 0.0025) / 2.0
            - (2 * 0.3 * 0.2 + 2 * 0.1 * 0.05 / 2.0), rel=1e-12)
        for name in ("two-modes-real", "complex-asymmetric"):
            cfg = replace(LANG_FIRSOV_CONFIGS[name](), n_max=8)
            assert abs(dense_lang_firsov(cfg)[1] - expected(cfg)) <= 1e-8, name

    def test_tail_threshold(self):
        # the displaced-vacuum weight beyond n_max = 4 is 7.6e-7 at
        # alpha = 0.40 and 1.2e-6 at 0.42, either side of the 1e-6 threshold
        below = pd.lang_firsov_check(single_mode(alpha=0.40, n_max=4))
        above = pd.lang_firsov_check(single_mode(alpha=0.42, n_max=4))
        assert 5e-7 < below.truncation_tail < 1e-6 < above.truncation_tail < 2e-6
        assert below.conclusive and below.suggested_n_max == 4
        assert not above.conclusive and above.suggested_n_max == 6

    @pytest.mark.parametrize("weights, n_max", [
        ((0.25,), 12),             # 1.9e-18, where 1 - (kept terms) rounds to 0
        ((1e-3, 0.25, 1.0, 5.0), 12),
        ((0.8, 3.0), 4),
        ((12.5, 13.0, 13.5), 12),  # either side of weight = n_max + 1
        ((40.0,), 6),              # tail near 1
        ((900.0, 0.1), 2),         # exp(-900) underflows
    ])
    def test_coherent_tail_sums_omitted_terms(self, weights, n_max):
        w = np.array(weights)
        expected = float(np.sum(gammainc(n_max + 1, w)))
        assert oracle._coherent_tail(w, n_max) == pytest.approx(expected, rel=1e-12)

    def test_reported_tail_below_rounding(self):
        report = pd.lang_firsov_check(single_mode(alpha=0.5, n_max=12))
        assert report.truncation_tail == pytest.approx(gammainc(13, 0.25), rel=1e-12)

    def test_inconclusive_when_truncated_too_hard(self):
        report = pd.lang_firsov_check(single_mode(alpha=2.0, n_max=2))
        assert not report.conclusive
        assert report.suggested_n_max > 2

    def test_dressing_weight_readback(self):
        # the measured hopping implies sum |alpha|^2 = -2 ln(|el| / J)
        cfg = single_mode(alpha=0.5, n_max=14)
        report = pd.lang_firsov_check(cfg)
        implied = -2.0 * np.log(report.hop_measured / cfg.j_hop)
        assert implied == pytest.approx(float(cfg.alpha_weights().sum()), abs=1e-6)

    @pytest.mark.parametrize("name", list(LANG_FIRSOV_CONFIGS))
    def test_matches_dense_transform(self, name):
        # the series on vectors against exp(S) H exp(-S) as whole matrices,
        # both built from Kronecker products
        cfg = LANG_FIRSOV_CONFIGS[name]()
        report = pd.lang_firsov_check(cfg)
        hop, _ = dense_lang_firsov(cfg)
        assert abs(report.hop_measured - abs(hop)) <= 1e-14
        assert abs(report.hop_phase - np.angle(hop)) <= 1e-12

    def test_hop_phase(self):
        # at s = pi, g_2k = -g_1k for both modes and the dressed hopping is real
        assert abs(pd.lang_firsov_check(ohmic_mode_config()).hop_phase) <= 1e-12
        # the oracle-compare default: a phase the rate equation does not have
        report = pd.lang_firsov_check(
            ohmic_mode_config(coupling=0.1, s=1.0, j_hop=0.1, n_max=5))
        assert report.hop_phase == pytest.approx(0.0619, abs=5e-5)

    @pytest.mark.parametrize("name", list(TAIL_CONFIGS))
    def test_displaced_vacuum_within_poisson_tail(self, name):
        # the series state and the exact coherent-state product differ by the
        # truncation, whose norm is at most the square root of the omitted
        # Poisson weight; the reported tail is that weight, of the per-site
        # displaced vacua (|g_pk|^2 / omega_k^2)
        cfg = TAIL_CONFIGS[name]()
        report = pd.lang_firsov_check(cfg)
        assert report.truncation_tail == pytest.approx(per_site_tail(cfg), rel=1e-12)
        assert 0.0 < report.displaced_vacuum_dev <= math.sqrt(report.truncation_tail)

    def test_near_sites_inconclusive(self):
        cfg = TAIL_CONFIGS["near-sites"]()
        report = pd.lang_firsov_check(cfg)
        assert not report.conclusive
        # the suggested cutoff is the first (in steps of 2) whose per-site
        # tail is within the threshold
        n = report.suggested_n_max
        assert per_site_tail(replace(cfg, n_max=n)) <= oracle.TAIL_THRESHOLD
        assert per_site_tail(replace(cfg, n_max=n - 2)) > oracle.TAIL_THRESHOLD

    def test_no_dense_decomposition(self, monkeypatch):
        # dim 1250: vectors and bands only, no eigendecomposition
        def refuse(*args, **kwargs):
            raise AssertionError("dense decomposition called")

        monkeypatch.setattr(np.linalg, "eigh", refuse)
        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        cfg = ohmic_mode_config(4, 4, s=1.0)
        report = pd.lang_firsov_check(cfg)
        assert 0.0 < report.displaced_vacuum_dev <= math.sqrt(per_site_tail(cfg))


class TestExactEvolution:
    def test_zero_time_is_identity(self):
        cfg = single_mode(n_max=3)
        prop = oracle.ChebyshevPropagator(pd.build_hamiltonian(cfg))
        psi = _vacuum_state([1.0, 0.0], cfg.bath_dim)
        assert np.allclose(prop.evolve(psi, 0.0), psi, atol=1e-14)

    def test_eigenstate_only_rotates(self):
        cfg = single_mode(n_max=3)
        ham = pd.build_hamiltonian(cfg)
        w, v = np.linalg.eigh(ham.toarray())
        psi = v[:, 0]
        assert abs(np.linalg.norm(psi) - 1.0) <= 1e-10
        out = oracle.ChebyshevPropagator(ham).evolve(psi, 0.7)
        assert abs(abs(np.vdot(psi, out)) - 1.0) < 1e-12

    def test_half_steps_compose(self):
        cfg = single_mode(n_max=4)
        prop = oracle.ChebyshevPropagator(pd.build_hamiltonian(cfg))
        psi = _vacuum_state([np.sqrt(0.3), np.sqrt(0.7)], cfg.bath_dim)
        one = prop.evolve(psi, 0.8)
        two = prop.evolve(prop.evolve(psi, 0.4), 0.4)
        assert np.max(np.abs(one - two)) < 1e-10
        # a time array evolves to every time at once
        both = prop.evolve(psi, np.array([0.4, 0.8]))
        assert both.shape == (2, cfg.dim)
        assert np.max(np.abs(both[1] - one)) < 1e-12

    def test_norm_drift_over_many_steps(self):
        # the pulse-train route: one short series after another
        cfg = single_mode(n_max=3)
        prop = oracle.ChebyshevPropagator(pd.build_hamiltonian(cfg))
        psi = _vacuum_state([[1.0, 0.0]], cfg.bath_dim)
        for _ in range(10_000):
            psi = prop.evolve(psi, 0.01)
        assert abs(np.linalg.norm(psi) - 1.0) < 1e-9

    def test_norm_validation(self):
        with pytest.raises(pd.InvariantError):
            _vacuum_state(np.ones(2, dtype=complex), bath_dim=4)
        # a stack is checked row by row
        with pytest.raises(InvariantError):
            _vacuum_state([[1.0, 0.0], [1.0, 1.0]], bath_dim=4)
        assert _vacuum_state([[1.0, 0.0], [0.6, 0.8j]], bath_dim=4).shape == (2, 8)


class TestChebyshev:
    def test_zero_spectral_width_is_a_constant_phase(self):
        # one mode, n_max = 0 and J = 0: H = eps * I, a series of one term
        for g_site2 in ((0.1,), (0.3,)):  # |g_1| != |g_2| and |g_1| = |g_2|
            cfg = TruncatedBathConfig(mode_freqs=(1.0,), g_site1=(0.3,), g_site2=g_site2,
                                      n_max=0, j_hop=0.0, epsilon_onsite=0.7)
            cheb = oracle.ChebyshevPropagator(pd.build_hamiltonian(cfg))
            assert (cheb.center, cheb.radius) == (0.7, 0.0)
            psi = _vacuum_state([0.6, 0.8j], cfg.bath_dim)
            t = TimeGrid(2.0, 0.5).points
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                states = np.concatenate([s for _, s in cheb.series(psi, t)])
                traj = pd.exact_decoherence_reference(
                    cfg, fig2_state(), TimeGrid(2.0, 0.5)).trajectory
            expected = np.exp(-0.7j * t)[:, None] * psi
            assert np.max(np.abs(states - expected)) <= 1e-15
            assert np.max(np.abs(traj.coherence - 1.0)) <= 1e-15
            assert np.max(np.abs(traj.rho_ss - 2.0 / 3.0)) <= 1e-15

    @pytest.mark.parametrize("ham", [
        BandedOperator({1: np.array([1.0])}, 2),  # no mirror diagonal
        BandedOperator({1: np.array([1.0]), -1: np.array([2.0])}, 2),
        BandedOperator({0: np.array([1.0j, 1.0])}, 2),  # complex main diagonal
        BandedOperator({o: np.diagonal(np.arange(16.0).reshape(4, 4) + 1j, o)
                        for o in range(-3, 4)}, 4),
    ])
    def test_rejects_non_hermitian(self, ham):
        with pytest.raises(ConfigError, match="Hermitian"):
            oracle.ChebyshevPropagator(ham)

    # (offset, row): the entries [1, 1] (main diagonal) and [0, 2] (a
    # diagonal the Hamiltonian does not have)
    @pytest.mark.parametrize("index", [(0, 1), (2, 0)])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_rejects_non_finite(self, value, index):
        ham = pd.build_hamiltonian(single_mode(n_max=2))
        offset, row = index
        band = ham.bands.get(offset, np.zeros(ham.shape[0] - abs(offset), dtype=complex))
        band = band.copy()
        band[row] = value
        with pytest.raises(ConfigError, match="finite Hermitian"):
            oracle.ChebyshevPropagator(BandedOperator({**ham.bands, offset: band},
                                                      ham.shape[0]))

    @pytest.mark.parametrize("x", [0.0, 1e-3, 0.3, 5.0, 31.7, oracle.SPAN_CAP, 1064.7])
    def test_coefficients_match_bessel(self, x):
        jv = pytest.importorskip("scipy.special").jv
        n_terms = oracle._series_length(x)
        coef = oracle._bessel_coefficients(np.array([x]), n_terms)[0]
        k = np.arange(n_terms)
        expected = np.where(k == 0, 1.0, 2.0) * (-1j) ** k * jv(k, x)
        assert np.max(np.abs(coef - expected)) <= 1e-15 * max(1.0, x)
        # the first order left out is below the tolerance
        assert abs(jv(n_terms, x)) < oracle.SERIES_TOL

    @pytest.mark.parametrize("tau", [-1.0, [-1.0, 0.01]])
    def test_negative_times(self, tau):
        # the series is sized by the largest |tau|: a negative time alone
        # once took the log of a negative x, and beside a small positive
        # one kept too few terms (off by 8.1e-3)
        cfg = ohmic_mode_config(n_modes=1, n_max=3)
        ham = pd.build_hamiltonian(cfg)
        psi = _vacuum_state([0.6, 0.8j], cfg.bath_dim)
        got = oracle.ChebyshevPropagator(ham).evolve(psi, tau)
        expected = Propagator(ham.toarray()).evolve(psi, tau)
        assert got.shape == expected.shape == np.shape(tau) + psi.shape
        assert np.max(np.abs(got - expected)) <= 1e-12

    def test_series_length(self):
        assert oracle._series_length(0.0) == 1
        assert oracle._series_length(1e-20) == 1
        # a slice at the span cap fits one block of terms
        assert oracle._series_length(oracle.SPAN_CAP) <= CHUNK
        # the bound overflows a float near k = x / 2 without logs
        assert oracle._series_length(2000.0) > 2000

    def test_slices_keep_each_series_within_one_block(self, monkeypatch):
        cheb = oracle.ChebyshevPropagator(pd.build_hamiltonian(LOCKSTEP_CONFIGS["real-s-2"]()))
        t = TimeGrid(100.0, 0.5).points
        assert cheb.radius * CHUNK * 0.5 > oracle.SPAN_CAP
        lengths = []
        series_length = oracle._series_length
        monkeypatch.setattr(oracle, "_series_length",
                            lambda x: lengths.append(series_length(x)) or lengths[-1])
        slices = [len(ts) for ts, _ in cheb.series(_vacuum_state([1.0, 0.0], 16), t)]
        assert max(slices) * cheb.radius * 0.5 <= oracle.SPAN_CAP
        assert len(lengths) == len(slices) and max(lengths) <= CHUNK

    @pytest.mark.parametrize("name", ["real-s-2", "lab-asymmetric"])
    def test_series_matches_propagator(self, name):
        cfg = LOCKSTEP_CONFIGS[name]()
        psi = _vacuum_state([[0.6, 0.8j], [1.0, 0.0]], cfg.bath_dim)
        t = TimeGrid(40.0, 0.1).points
        slices = list(oracle.ChebyshevPropagator(pd.build_hamiltonian(cfg)).series(psi, t))
        assert np.array_equal(np.concatenate([ts for ts, _ in slices]), t)
        assert len({len(ts) for ts, _ in slices}) <= 2  # equal up to one point
        states = np.concatenate([s for _, s in slices])
        assert states.shape == (len(t), 2, cfg.dim)
        assert np.max(np.abs(states - Propagator(kron_hamiltonian(cfg)).evolve(psi, t))) <= 1e-12


class TestPlannedStep:
    # the recurrence runs a single state as one vector and a stack as rows,
    # on three ring buffers whose band views are built once per series
    @pytest.mark.parametrize("name", ["complex-asymmetric", "one-mode-n_max-10", "ohmic-3x7"])
    def test_single_state_forms_agree(self, name):
        cfg = KRON_CONFIGS[name]()
        prop = oracle.ChebyshevPropagator(pd.build_hamiltonian(cfg))
        rng = np.random.default_rng(5)
        stack = rng.normal(size=(2, cfg.dim)) + 1j * rng.normal(size=(2, cfg.dim))
        stack /= np.linalg.norm(stack, axis=1, keepdims=True)
        t = np.array([0.0, 0.3, 1.7, 5.0])
        flat = prop.evolve(stack[0], t)
        row = prop.evolve(stack[:1], t)[:, 0]
        stacked = prop.evolve(stack, t)[:, 0]
        dense = Propagator(kron_hamiltonian(cfg)).evolve(stack[0], t)
        assert flat.shape == row.shape == stacked.shape == (len(t), cfg.dim)
        for form in (flat, row, stacked):
            assert np.max(np.abs(form - dense)) <= 1e-12
        assert np.max(np.abs(flat - row)) <= 1e-14
        assert np.max(np.abs(flat - stacked)) <= 1e-14

    @pytest.mark.parametrize("rows", [(), (1,), (2,)])
    def test_series_longer_than_a_block(self, rows):
        # every term of a series of several blocks, computed on the ring,
        # against the dense three-term recurrence on (H - center) / radius
        cfg = LOCKSTEP_CONFIGS["lab-asymmetric"]()
        prop = oracle.ChebyshevPropagator(pd.build_hamiltonian(cfg))
        rng = np.random.default_rng(7)
        psi = rng.normal(size=rows + (cfg.dim,)) + 1j * rng.normal(size=rows + (cfg.dim,))
        psi /= np.linalg.norm(psi, axis=-1, keepdims=True)
        n_terms = 2 * CHUNK + 9
        # the generator refills one block buffer, so each block is copied
        blocks = [(k0, b.copy()) for k0, b in prop._chebyshev_blocks(psi, n_terms)]
        assert [(k0, len(b)) for k0, b in blocks] == [(0, CHUNK), (CHUNK, CHUNK), (2 * CHUNK, 9)]
        a = (kron_hamiltonian(cfg) - prop.center * np.eye(cfg.dim)) / prop.radius
        terms = [psi.reshape(-1, cfg.dim).T, a @ psi.reshape(-1, cfg.dim).T]
        while len(terms) < n_terms:
            terms.append(2.0 * a @ terms[-1] - terms[-2])
        expected = np.array([x.T.reshape(psi.size) for x in terms])
        series = np.concatenate([b for _, b in blocks])
        assert series.shape == (n_terms, psi.size)
        assert np.max(np.abs(series - expected)) <= 1e-12
        # and the whole series against the eigendecomposition
        tau = 0.9 * n_terms / prop.radius
        assert oracle._series_length(prop.radius * tau) > 2 * CHUNK
        dense = Propagator(kron_hamiltonian(cfg)).evolve(psi, tau)
        assert np.max(np.abs(prop.evolve(psi, tau) - dense)) <= 1e-12

    def test_product_matches_dense(self):
        cfg = KRON_CONFIGS["complex-asymmetric"]()
        ham = pd.build_hamiltonian(cfg)
        n = ham.shape[0]
        rng = np.random.default_rng(11)
        x = rng.normal(size=(3, n)) + 1j * rng.normal(size=(3, n))
        dense = kron_hamiltonian(cfg)
        assert np.max(np.abs(ham.product(x) - x @ dense.T)) <= 1e-13
        assert np.max(np.abs(ham.product(x[0]) - dense @ x[0])) <= 1e-13

    def test_lang_firsov_through_the_shared_product(self, monkeypatch):
        # the products with H and the recurrence steps of -iS all take the
        # one BandedOperator path
        cfg = LANG_FIRSOV_CONFIGS["complex-asymmetric"]()
        apply = oracle.BandedOperator._apply
        sizes = []

        def counting(self, x, out, minus, operands):
            sizes.append(self.shape[0])
            return apply(self, x, out, minus, operands)

        monkeypatch.setattr(oracle.BandedOperator, "_apply", counting)
        report = pd.lang_firsov_check(cfg)
        assert sizes.count(cfg.dim) >= 2
        hop, _ = dense_lang_firsov(cfg)
        assert abs(report.hop_measured - abs(hop)) <= 1e-10

    def test_coefficients_once_per_schedule(self):
        # apply on one table repeats evolve at that time step exactly
        cfg = LOCKSTEP_CONFIGS["lab-asymmetric"]()
        prop = oracle.ChebyshevPropagator(pd.build_hamiltonian(cfg))
        psi = _vacuum_state([[0.6, 0.8j], [1.0, 0.0]], cfg.bath_dim)
        coef = prop.coefficients(0.25)
        assert coef.shape == (1, oracle._series_length(prop.radius * 0.25))
        a, b = psi, psi
        for _ in range(3):
            a = prop.apply(coef, _site_swap(a))[0]
            b = prop.evolve(_site_swap(b), 0.25)
        assert np.array_equal(a, b)


class TestSeriesCap:
    # sizes a missing cap turns into a quick failure, not a hang or an
    # allocation; the CLI tests run the endless cases under a timeout
    @pytest.mark.parametrize("x", [3e5, 1e6])
    def test_series_length_stops_counting(self, x):
        # one term past what a Bessel table within BESSEL_CAP holds
        assert oracle._series_length(x) == oracle.BESSEL_CAP // 2 + 1

    def test_cap_far_above_the_tested_series(self):
        # the longest series the test suite runs is radius * tau ~ 3.2e3
        assert 30 * oracle._series_length(3.2e3) < oracle.BESSEL_CAP // 2
        assert oracle._series_length(1e5) < oracle.BESSEL_CAP // 2

    def test_oversized_table_refused_before_allocating(self):
        # 2**41 complex entries would be 35 TB
        def refused():
            with pytest.raises(pd.NumericalError, match="over BESSEL_CAP"):
                oracle._bessel_coefficients(np.array([1.0]), 2**40)

        assert peak_traced_bytes(refused) < 1e5

    def test_table_size_counts_every_time_point(self):
        # one time point at x fits; CHUNK of them need CHUNK times the table
        x = np.full(CHUNK, 1.5e3)
        n_terms = oracle._series_length(1.5e3)
        assert oracle._bessel_coefficients(x[:1], n_terms).shape == (1, n_terms)
        with pytest.raises(pd.NumericalError, match=f"{CHUNK} x 8192 entries"):
            oracle._bessel_coefficients(x, n_terms)

    def test_spectral_bounds_near_overflow(self):
        # bounds of +-1.7e308 are finite, their difference is not: the radius
        # is still exact, and a step past 1e308 / radius refuses the series
        prop = oracle.ChebyshevPropagator(
            BandedOperator({0: np.array([1.7e308, -1.7e308])}, 2))
        assert (prop.center, prop.radius) == (0.0, 1.7e308)
        with pytest.raises(pd.NumericalError, match="radius \\* tau overflows"):
            prop.evolve(np.array([1.0, 0.0]), 2.0)

    def test_overflowing_bounds_refused(self):
        # a row sum of 2e308 is no finite bound on the spectrum
        bands = {0: np.array([1e308, -1e308]), 1: np.array([1e308]), -1: np.array([1e308])}
        with pytest.raises(pd.NumericalError, match="spectral bounds .* overflow"):
            oracle.ChebyshevPropagator(BandedOperator(bands, 2))

    def test_evolve_refuses_before_allocating(self):
        cfg = ohmic_mode_config(n_modes=1, n_max=1)
        prop = oracle.ChebyshevPropagator(pd.build_hamiltonian(cfg))
        psi = _vacuum_state([0.6, 0.8], cfg.bath_dim)
        tau = np.linspace(0.0, 1.5e3 / prop.radius, CHUNK)

        def refused():
            with pytest.raises(pd.NumericalError, match="over BESSEL_CAP"):
                prop.evolve(psi, tau)

        assert peak_traced_bytes(refused) < 1e5


class TestPulse:
    def test_site_swap(self):
        psi = _vacuum_state([1.0, 0.0], 4)
        out = _site_swap(psi)
        assert out[4] == 1.0
        assert np.all(out[:4] == 0.0)

    def test_triplet_even_singlet_odd(self):
        r = 1.0 / np.sqrt(2.0)
        triplet = _vacuum_state([r, r], 3)
        singlet = _vacuum_state([r, -r], 3)
        assert np.allclose(_site_swap(triplet), triplet)
        assert np.allclose(_site_swap(singlet), -singlet)

    def test_involution(self):
        rng = np.random.default_rng(5)
        amps = rng.normal(size=(3, 8)) + 1j * rng.normal(size=(3, 8))
        assert np.array_equal(_site_swap(_site_swap(amps)), amps)
        # a stack of states is swapped row by row
        swapped = _site_swap(amps)
        assert np.array_equal(swapped[1], _site_swap(amps[1]))
        assert np.array_equal(swapped[:, :4], amps[:, 4:])

    def test_commutes_with_decoupled_part(self):
        cfg = ohmic_mode_config(n_modes=2, n_max=3, coupling=1.0, s=1.0, j_hop=0.4)
        db = cfg.bath_dim
        swap = np.kron(np.array([[0, 1], [1, 0]], dtype=complex), np.eye(db))
        decoupled = TruncatedBathConfig(
            mode_freqs=cfg.mode_freqs, g_site1=(0.0, 0.0), g_site2=(0.0, 0.0),
            n_max=cfg.n_max, j_hop=cfg.j_hop, epsilon_onsite=0.3)
        h0 = pd.build_hamiltonian(decoupled).toarray()  # eps(n1+n2) + J swap + bath
        assert np.max(np.abs(swap @ h0 - h0 @ swap)) < 1e-12
        ham = pd.build_hamiltonian(cfg).toarray()
        assert np.max(np.abs(swap @ ham - ham @ swap)) > 1e-3  # couplings differ


class TestTraceDistance:
    def test_identical_states(self):
        rho = fig2_state().matrix()
        assert _trace_distance(rho, rho) == 0.0

    def test_orthogonal_pure_states(self):
        a = np.diag([1.0, 0.0]).astype(complex)
        b = np.diag([0.0, 1.0]).astype(complex)
        assert _trace_distance(a, b) == pytest.approx(1.0, abs=1e-14)


class TestBangBang:
    def test_schedule_arithmetic(self):
        sched = PulseSchedule(total_time=4.0, cycles=8)
        assert sched.delta_t == 0.25
        with pytest.raises(ConfigError):
            PulseSchedule(total_time=4.0, cycles=0)

    @pytest.mark.parametrize("total_time", [np.inf, -np.inf, np.nan, 0.0])
    def test_non_finite_total_time_rejected(self, total_time):
        # an infinite total_time would ask for a Chebyshev series of endless length
        with pytest.raises(ConfigError, match="total_time must be finite and > 0"):
            PulseSchedule(total_time=total_time, cycles=4)

    def test_decoupled_bath_returns_exactly(self):
        cfg = TruncatedBathConfig(mode_freqs=(1.0,), g_site1=(0.0,), g_site2=(0.0,),
                                  n_max=2, j_hop=0.7, epsilon_onsite=0.4)
        report = pd.run_bangbang(cfg, fig2_state(), [PulseSchedule(4.0, 4)])
        assert report.results[0].distance_pulsed < 1e-10
        assert report.results[0].distance_free < 1e-10

    def test_more_cycles_help_monotonically(self):
        cfg = ohmic_mode_config()
        report = pd.run_bangbang(cfg, fig2_state(),
                                 [PulseSchedule(4.0, n) for n in (4, 8, 16, 32, 64)])
        dists = [r.distance_pulsed for r in sorted(report.results,
                                                   key=lambda r: r.n_cycles)]
        assert all(b < a for a, b in zip(dists, dists[1:]))

    def test_pulsed_beats_free_and_scales(self):
        cfg = ohmic_mode_config()
        report = pd.run_bangbang(cfg, fig2_state(),
                                 [PulseSchedule(4.0, n) for n in (4, 8, 16, 32, 64)])
        for row in report.results:
            assert row.distance_pulsed < row.distance_free
        assert report.fitted_slope >= 1.7

    def test_mixed_initial_state(self):
        cfg = ohmic_mode_config(n_max=4)
        rho0 = DensityMatrixST(rho_ss=0.6, rho_tt=0.4, rho_st=0.1 + 0.05j)
        report = pd.run_bangbang(cfg, rho0, [PulseSchedule(2.0, 8)])
        assert 0.0 <= report.results[0].distance_pulsed <= 1.0
        assert report.results[0].distance_pulsed < report.results[0].distance_free

    @pytest.mark.parametrize("cycles", [2, 5])
    def test_pulse_order_matches_dense_reference(self, cycles):
        # independent route: dense expm unitaries acting on the mixed
        # qubit (x) bath-vacuum density matrix; a cycle is U(dt) Pi U(dt) Pi,
        # so the pulse Pi acts on the state first
        # s = 2: at the default s = pi both orders give the same distance
        cfg = ohmic_mode_config(n_modes=2, n_max=3, s=2.0)  # dim 32
        rho0 = DensityMatrixST(rho_ss=0.6, rho_tt=0.4, rho_st=0.1 + 0.05j)
        total = 2.0
        ham = kron_hamiltonian(cfg)
        db = cfg.bath_dim
        swap = np.kron([[0.0, 1.0], [1.0, 0.0]], np.eye(db))
        vacuum = np.zeros((db, db))
        vacuum[0, 0] = 1.0
        full0 = np.kron(_ST_FROM_SITE.conj().T @ rho0.matrix() @ _ST_FROM_SITE, vacuum)
        h_sys = np.array([[cfg.epsilon_onsite, cfg.j_hop], [cfg.j_hop, cfg.epsilon_onsite]])
        undo = _ST_FROM_SITE @ expm(1j * h_sys * total) @ _ST_FROM_SITE.conj().T

        def distance(u):
            full = u @ full0 @ u.conj().T
            rho_site = np.trace(full.reshape(2, db, 2, db), axis1=1, axis2=3)
            rho = undo @ _ST_FROM_SITE @ rho_site @ _ST_FROM_SITE.conj().T @ undo.conj().T
            return _trace_distance(rho, rho0.matrix())

        u_dt = expm(-1j * ham * total / (2 * cycles))
        pulsed = np.linalg.matrix_power(u_dt @ swap @ u_dt @ swap, cycles)
        reversed_order = np.linalg.matrix_power(swap @ u_dt @ swap @ u_dt, cycles)
        row = pd.run_bangbang(cfg, rho0, [PulseSchedule(total, cycles)]).results[0]
        assert abs(row.distance_pulsed - distance(pulsed)) < 1e-12
        assert abs(row.distance_free - distance(expm(-1j * ham * total))) < 1e-12
        # the reference tells the two orders apart on this configuration
        assert abs(distance(reversed_order) - distance(pulsed)) > 5e-3

    def test_slope_ignores_rounding(self, tmp_path):
        # one mode at omega * s = 2 pi, so g_2 = g_1 and nothing decoheres:
        # every distance is rounding, with no scaling to fit
        cfg = ohmic_mode_config(n_modes=1, n_max=12, coupling=0.7)
        report = pd.run_bangbang(cfg, fig2_state(),
                                 [PulseSchedule(4.0, n) for n in (4, 8, 16, 32, 64)])
        assert max(r.distance_pulsed for r in report.results) < 1e-12
        assert report.fitted_slope is None
        write_csv(tmp_path / "bb.csv", *report.table())
        rows = (tmp_path / "bb.csv").read_text().splitlines()[2:]
        assert len(rows) == 5 and all(row.endswith(",nan") for row in rows)

    def test_mismatched_total_times_rejected(self):
        cfg = ohmic_mode_config(n_max=2)
        with pytest.raises(ConfigError):
            pd.run_bangbang(cfg, fig2_state(),
                            [PulseSchedule(4.0, 4), PulseSchedule(2.0, 4)])

    def test_csv_report(self, tmp_path):
        cfg = ohmic_mode_config(n_max=2)
        report = pd.run_bangbang(cfg, fig2_state(),
                                 [PulseSchedule(2.0, n) for n in (2, 4, 8)])
        path = tmp_path / "bb.csv"
        write_csv(path, *report.table())
        lines = path.read_text().splitlines()
        assert lines[0].startswith("# config:")
        assert lines[1].split(",")[:4] == ["delta_t", "n_cycles",
                                           "trace_distance_pulsed",
                                           "trace_distance_free"]
        assert len(lines) == 2 + 3


# configs for the pulse-train and chunking checks: "real-*" have |g_1k| = |g_2k|
# (ohmic_mode_config), "lab-*" have |g_1k| != |g_2k|; the oracle propagates
# both alike, in the lab basis.
LOCKSTEP_CONFIGS = {
    "real-s-2": lambda: ohmic_mode_config(n_modes=2, n_max=3, s=2.0),  # dim 32
    "real-3x2": lambda: ohmic_mode_config(n_modes=3, n_max=2, coupling=0.5, s=1.3),
    "lab-asymmetric": KRON_CONFIGS["complex-asymmetric"],  # |g_1k| != |g_2k|
}

# larger configs for the Chebyshev route against the eigh route
SCALE_CONFIGS = {
    "oracle-exact": lambda: ohmic_mode_config(n_modes=3, n_max=7, coupling=0.1, s=1.0,
                                              j_hop=0.1),
    "real-s-2": LOCKSTEP_CONFIGS["real-s-2"],
    "lab-2x7": lambda: TruncatedBathConfig(  # |g_1k| != |g_2k|, dim 128
        mode_freqs=(0.7, 1.9), g_site1=(0.35 + 0.1j, 0.2), g_site2=(0.1, 0.25 - 0.15j),
        n_max=7, j_hop=0.3, epsilon_onsite=0.2),
}

LOCKSTEP_STATES = {
    "pure": fig2_state,
    "mixed": lambda: DensityMatrixST(rho_ss=0.6, rho_tt=0.4, rho_st=0.1 + 0.05j),
}


class TestLockstep:
    @pytest.mark.parametrize("cycles", [(4, 8, 16, 32, 64), (3, 7, 5, 7, 1), (2,)])
    @pytest.mark.parametrize("state", list(LOCKSTEP_STATES))
    @pytest.mark.parametrize("name", list(LOCKSTEP_CONFIGS))
    def test_matches_serial_schedules(self, name, state, cycles):
        cfg = LOCKSTEP_CONFIGS[name]()
        rho0 = LOCKSTEP_STATES[state]()
        schedules = [PulseSchedule(2.0, n) for n in cycles]
        report = pd.run_bangbang(cfg, rho0, schedules)
        reference = serial_bangbang(cfg, rho0, schedules)
        assert [r.n_cycles for r in report.results] == sorted(cycles, reverse=True)
        # Chebyshev series against eigen-coefficients, one schedule at a
        # time: two routes, so agreement to rounding, not bit for bit
        for row, ref in zip(report.results, reference):
            assert (row.delta_t, row.n_cycles) == (ref.delta_t, ref.n_cycles)
            assert abs(row.distance_free - ref.distance_free) <= 1e-12
            assert abs(row.distance_pulsed - ref.distance_pulsed) <= 1e-12

    @pytest.mark.parametrize("state", list(LOCKSTEP_STATES))
    @pytest.mark.parametrize("cycles", [(4, 8, 16, 32, 64), (3, 7, 5, 7, 1)])
    def test_one_series_per_half_cycle(self, monkeypatch, cycles, state):
        cfg = LOCKSTEP_CONFIGS["real-s-2"]()
        rho0 = LOCKSTEP_STATES[state]()
        nb = len(oracle._initial_site_branches(rho0))
        radius = oracle.ChebyshevPropagator(pd.build_hamiltonian(cfg)).radius
        apply = oracle.BandedOperator._apply
        bessel = oracle._bessel_coefficients
        shapes, series_x = [], []

        def counting(self, x, out, minus, operands):
            shapes.append(x.shape)
            return apply(self, x, out, minus, operands)

        def counting_bessel(x, n_terms):
            series_x.extend(x)
            return bessel(x, n_terms)

        monkeypatch.setattr(oracle.BandedOperator, "_apply", counting)
        monkeypatch.setattr(oracle, "_bessel_coefficients", counting_bessel)
        pd.run_bangbang(cfg, rho0, [PulseSchedule(4.0, n) for n in cycles])
        # one Bessel table over T for the free evolution, then one per
        # schedule, in their given order, over its own dt
        assert series_x == [radius * 4.0] + [radius * (4.0 / (2 * n)) for n in cycles]
        # the free series, then one series per half cycle: a series of L
        # terms takes L - 1 recurrence steps, each on the branch rows of
        # rho0 alone (a single branch as one vector)
        steps = oracle._series_length(radius * 4.0) - 1 + sum(
            2 * n * (oracle._series_length(radius * (4.0 / (2 * n))) - 1) for n in cycles)
        assert shapes == [(cfg.dim,) if nb == 1 else (nb, cfg.dim)] * steps

    @pytest.mark.parametrize("state", list(LOCKSTEP_STATES))
    def test_long_half_cycle_matches_complex_route(self, state):
        # radius * dt far beyond SPAN_CAP: each half cycle is one series of
        # more than CHUNK terms, generated a block at a time
        cfg = LOCKSTEP_CONFIGS["real-s-2"]()
        rho0 = LOCKSTEP_STATES[state]()
        radius = oracle.ChebyshevPropagator(pd.build_hamiltonian(cfg)).radius
        assert radius * 100.0 > oracle.SPAN_CAP
        assert oracle._series_length(radius * 100.0) > 8 * CHUNK
        ref = _ComplexReference(cfg)
        report = pd.run_bangbang(cfg, rho0, [PulseSchedule(400.0, n) for n in (1, 2)])
        for row in report.results:
            pulsed, free = ref.bangbang(rho0, 400.0, row.n_cycles)
            assert abs(row.distance_pulsed - pulsed) <= 1e-12
            assert abs(row.distance_free - free) <= 1e-12

    @pytest.mark.parametrize("state", list(LOCKSTEP_STATES))
    def test_long_half_cycle_peak_memory(self, state):
        # dim 128: at dim 32 the FFT behind the free reference's Bessel
        # coefficients, which grows with T but not with dim, outweighs half
        # of one schedule's series; here correct code peaks near series / 5
        cfg = SCALE_CONFIGS["lab-2x7"]()
        rho0 = LOCKSTEP_STATES[state]()
        radius = oracle.ChebyshevPropagator(pd.build_hamiltonian(cfg)).radius
        rows = len(oracle._initial_site_branches(rho0))
        # every term of the longest half cycle's series held at once, for the
        # branch rows of the one schedule that is running
        series = oracle._series_length(radius * 50.0) * rows * cfg.dim * 16
        peak = peak_traced_bytes(lambda: pd.run_bangbang(
            cfg, rho0, [PulseSchedule(100.0, n) for n in (1, 2)]))
        assert peak < series / 2


class TestExactReference:
    def test_decoupled_keeps_full_coherence(self):
        cfg = TruncatedBathConfig(mode_freqs=(1.0,), g_site1=(0.0,), g_site2=(0.0,),
                                  n_max=2, j_hop=1.0)
        ref = pd.exact_decoherence_reference(cfg, fig2_state(), TimeGrid(5.0, 0.05))
        assert np.max(np.abs(ref.trajectory.coherence - 1.0)) < 1e-10

    def test_far_detuned_weak_mode_stays_coherent(self):
        cfg = TruncatedBathConfig(mode_freqs=(5.0,), g_site1=(0.05,),
                                  g_site2=(0.05 * np.exp(-5.0j),), n_max=4, j_hop=1.0)
        ref = pd.exact_decoherence_reference(cfg, fig2_state(), TimeGrid(10.0, 0.05))
        assert float(np.min(ref.trajectory.coherence)) >= 0.99

    def test_reports_adiabaticity_diagnostic(self):
        cfg = ohmic_mode_config(coupling=0.1, s=1.0, j_hop=0.1, n_max=5)
        ref = pd.exact_decoherence_reference(cfg, fig2_state(), TimeGrid(2.0, 0.05))
        assert ref.j_tilde == pytest.approx(cfg.j_tilde())
        assert ref.adiabaticity_ratio == pytest.approx(cfg.j_tilde() / 1.0)

    def test_trajectory_is_physical(self):
        cfg = ohmic_mode_config(coupling=0.5, s=1.0, j_hop=0.3, n_max=4)
        ref = pd.exact_decoherence_reference(cfg, fig2_state(), TimeGrid(5.0, 0.025))
        assert ref.trajectory.trace_error() < 1e-9
        assert float(np.min(ref.trajectory.min_eigenvalues())) > -1e-10

    def test_undo_rotation_leaves_observables(self):
        # epsilon shifts and hopping phases must not leak into C or P_D
        base = ohmic_mode_config(coupling=0.3, s=1.0, j_hop=0.2, n_max=3)
        shifted = TruncatedBathConfig(
            mode_freqs=base.mode_freqs, g_site1=base.g_site1, g_site2=base.g_site2,
            n_max=base.n_max, j_hop=base.j_hop, epsilon_onsite=1.7)
        grid = TimeGrid(4.0, 0.05)
        a = pd.exact_decoherence_reference(base, fig2_state(), grid)
        b = pd.exact_decoherence_reference(shifted, fig2_state(), grid)
        assert np.max(np.abs(a.trajectory.coherence - b.trajectory.coherence)) < 1e-10
        assert np.max(np.abs(a.trajectory.pop_diff - b.trajectory.pop_diff)) < 1e-10


def assert_matches_one_block(cfg, rho0, grid):
    """The Chebyshev trajectory against the eigh route of
    tests/oracle_reference.py, to 1e-12 in every field."""
    traj = pd.exact_decoherence_reference(cfg, rho0, grid).trajectory
    ref = trajectory_from_matrices(grid, one_block_rho(cfg, rho0, grid))
    for field in ("rho_ss", "rho_tt", "rho_st", "coherence", "pop_diff"):
        assert np.max(np.abs(getattr(traj, field) - getattr(ref, field))) <= 1e-12, field


def peak_traced_bytes(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestChunkedReduction:
    @pytest.mark.parametrize("n_points", [2, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 7])
    @pytest.mark.parametrize("state", list(LOCKSTEP_STATES))
    @pytest.mark.parametrize("name", list(LOCKSTEP_CONFIGS))
    def test_matches_one_block(self, name, state, n_points):
        # a TimeGrid has at least two points; CHUNK + 1 and 3 * CHUNK + 7 are
        # where fixed CHUNK-point slices would leave a short remainder
        grid = TimeGrid(0.05 * (n_points - 1), 0.05)
        assert len(grid.points) == n_points
        assert_matches_one_block(LOCKSTEP_CONFIGS[name](), LOCKSTEP_STATES[state](), grid)

    @pytest.mark.parametrize("name, state, grid", [
        # the benchmark's oracle-exact run: dim 1024, 801 points
        ("oracle-exact", "pure", TimeGrid(10.0, 0.0125)),
        ("lab-2x7", "mixed", TimeGrid(10.0, 0.0125)),
        # radius * CHUNK * dt > SPAN_CAP, so the slices are shorter than CHUNK
        ("real-s-2", "mixed", TimeGrid(100.0, 0.5)),
        ("lab-2x7", "pure", TimeGrid(60.0, 0.25)),
    ])
    def test_matches_one_block_at_scale(self, name, state, grid):
        cfg = SCALE_CONFIGS[name]()
        cheb = oracle.ChebyshevPropagator(pd.build_hamiltonian(cfg))
        if grid.dt > 0.1:
            assert cheb.radius * CHUNK * grid.dt > oracle.SPAN_CAP
        assert_matches_one_block(cfg, LOCKSTEP_STATES[state](), grid)

    def test_peak_memory_below_one_amplitude_block(self):
        cfg = ohmic_mode_config(n_modes=2, n_max=7, coupling=0.1, s=1, j_hop=0.1)
        grid = TimeGrid(50.0, 0.0125)
        block = len(grid.points) * cfg.dim * 16  # T x dim complex128: 8.19 MB
        peak = peak_traced_bytes(
            lambda: pd.exact_decoherence_reference(cfg, fig2_state(), grid))
        assert peak < block

    @pytest.mark.parametrize("n_steps, radius_dt", [(3, 1000.0), (CHUNK - 2, 10.0)])
    def test_peak_memory_below_one_series_on_a_coarse_grid(self, n_steps, radius_dt):
        # radius * span > 1000 for one series over the span: a single step
        # (every series ~1,500 terms, held a block of CHUNK at a time), or
        # fewer than CHUNK points (slices shortened to SPAN_CAP / radius)
        cfg = ohmic_mode_config(n_modes=2, n_max=7, coupling=0.1, s=1, j_hop=0.1)
        radius = oracle.ChebyshevPropagator(pd.build_hamiltonian(cfg)).radius
        dt = 0.125 * math.ceil(radius_dt / (0.125 * radius))  # radius * dt just above
        grid = TimeGrid(n_steps * dt, dt)
        span = dt if n_steps < 4 else grid.t_max
        n_terms = oracle._series_length(radius * span)
        assert radius * span > 1000.0 and n_terms > 8 * CHUNK
        series = n_terms * cfg.dim * 16  # every term held at once: 3-4 MB
        peak = peak_traced_bytes(
            lambda: pd.exact_decoherence_reference(cfg, fig2_state(), grid))
        assert peak < series / 2


# configs with |g_1k| = |g_2k|, which the oracle runs, like every config, in
# the lab basis
FRAME_CONFIGS = {
    "ohmic-s-pi": lambda: ohmic_mode_config(n_modes=2, n_max=3),
    "ohmic-s-2": lambda: replace(ohmic_mode_config(n_modes=2, n_max=3, s=2.0),
                                 epsilon_onsite=0.3),
    "ohmic-3x3": lambda: ohmic_mode_config(n_modes=3, n_max=3, coupling=0.5, s=1.3),
    "ohmic-1x10": lambda: ohmic_mode_config(n_modes=1, n_max=10, coupling=2.0, s=0.7),
    "both-phases": lambda: TruncatedBathConfig(
        mode_freqs=(0.8, 1.9), g_site1=(0.4 * np.exp(0.4j), 0.3 * np.exp(-1.1j)),
        g_site2=(0.4 * np.exp(2.0j), 0.3 * np.exp(0.3j)), n_max=4, j_hop=0.6,
        epsilon_onsite=-0.2),
}

FRAME_STATES = {
    "pure-real": fig2_state,
    "mixed": lambda: DensityMatrixST(rho_ss=0.6, rho_tt=0.4, rho_st=0.1 + 0.05j),
    "pure-complex": lambda: DensityMatrixST.from_parts(
        0.7, np.sqrt(0.21) * np.exp(0.9j)),
    "diagonal": lambda: DensityMatrixST(rho_ss=0.3, rho_tt=0.7, rho_st=0.0),
}


class _ComplexReference:
    """Independent route: complex eigh of the Kronecker-built lab-frame H, the
    full density matrix rho_site (x) |vac><vac| propagated by dense
    unitaries, a partial trace and the ideal rotation undone with a 2x2
    matrix exponential."""

    def __init__(self, cfg):
        self.cfg = cfg
        self.db = cfg.bath_dim
        self.energies, self.vectors = np.linalg.eigh(kron_hamiltonian(cfg))
        self.swap = np.kron(np.array([[0.0, 1.0], [1.0, 0.0]]), np.eye(self.db))

    def unitary(self, t):
        return (self.vectors * np.exp(-1j * self.energies * t)) @ self.vectors.conj().T

    def reduced(self, u, rho0, t):
        vacuum = np.zeros((self.db, self.db))
        vacuum[0, 0] = 1.0
        full = u @ np.kron(_ST_FROM_SITE.conj().T @ rho0.matrix() @ _ST_FROM_SITE,
                           vacuum) @ u.conj().T
        rho_site = np.trace(full.reshape(2, self.db, 2, self.db), axis1=1, axis2=3)
        h_sys = np.array([[self.cfg.epsilon_onsite, self.cfg.j_hop],
                          [self.cfg.j_hop, self.cfg.epsilon_onsite]])
        undo = _ST_FROM_SITE @ expm(1j * h_sys * t) @ _ST_FROM_SITE.conj().T
        return undo @ _ST_FROM_SITE @ rho_site @ _ST_FROM_SITE.conj().T @ undo.conj().T

    def bangbang(self, rho0, total, cycles):
        u_dt = self.unitary(total / (2 * cycles))
        pulsed = np.linalg.matrix_power(u_dt @ self.swap @ u_dt @ self.swap, cycles)
        return (_trace_distance(self.reduced(pulsed, rho0, total), rho0.matrix()),
                _trace_distance(self.reduced(self.unitary(total), rho0, total),
                                  rho0.matrix()))


class TestRealFrame:
    @pytest.mark.parametrize("state", list(FRAME_STATES))
    @pytest.mark.parametrize("name", list(FRAME_CONFIGS))
    def test_exact_reference_matches_complex_route(self, name, state):
        cfg = FRAME_CONFIGS[name]()
        rho0 = FRAME_STATES[state]()
        grid = TimeGrid(3.0, 0.25)
        traj = pd.exact_decoherence_reference(cfg, rho0, grid).trajectory
        ref = _ComplexReference(cfg)
        rho = np.array([ref.reduced(ref.unitary(t), rho0, t) for t in grid.points])
        assert np.max(np.abs(traj.rho_st - rho[:, 1, 0])) <= 1e-12
        assert np.max(np.abs(traj.rho_ss - rho[:, 1, 1].real)) <= 1e-12
        expected_c = np.abs(rho[:, 1, 0])
        if traj.coherence_normalized:
            expected_c = expected_c / abs(rho0.rho_st)
        assert np.max(np.abs(traj.coherence - expected_c)) <= 1e-12
        expected_pd = np.abs(rho[:, 0, 0] - rho[:, 1, 1]).real
        assert np.max(np.abs(traj.pop_diff - expected_pd)) <= 1e-12

    @pytest.mark.parametrize("state", list(FRAME_STATES))
    @pytest.mark.parametrize("name", list(FRAME_CONFIGS))
    def test_bangbang_matches_complex_route(self, name, state):
        cfg = FRAME_CONFIGS[name]()
        rho0 = FRAME_STATES[state]()
        ref = _ComplexReference(cfg)
        report = pd.run_bangbang(cfg, rho0, [PulseSchedule(2.0, n) for n in (1, 3, 8)])
        for row in report.results:
            pulsed, free = ref.bangbang(rho0, 2.0, row.n_cycles)
            assert abs(row.distance_pulsed - pulsed) <= 1e-12
            assert abs(row.distance_free - free) <= 1e-12

    @pytest.mark.parametrize("g_site2", [(0.0, 0.0), (0.2, 0.1 - 0.2j)])
    def test_asymmetric_couplings_stay_in_lab_frame(self, g_site2):
        cfg = TruncatedBathConfig(mode_freqs=(0.9, 2.3), g_site1=(0.3 + 0.1j, 0.05),
                                  g_site2=g_site2, n_max=3, j_hop=0.7)
        rho0 = FRAME_STATES["pure-complex"]()
        ref = _ComplexReference(cfg)
        report = pd.run_bangbang(cfg, rho0, [PulseSchedule(2.0, n) for n in (1, 3)])
        for row in report.results:
            pulsed, free = ref.bangbang(rho0, 2.0, row.n_cycles)
            assert abs(row.distance_pulsed - pulsed) <= 1e-12
            assert abs(row.distance_free - free) <= 1e-12
        grid = TimeGrid(3.0, 0.25)
        traj = pd.exact_decoherence_reference(cfg, rho0, grid).trajectory
        rho = np.array([ref.reduced(ref.unitary(t), rho0, t) for t in grid.points])
        assert np.max(np.abs(traj.rho_st - rho[:, 1, 0])) <= 1e-12

    def test_one_ulp_magnitude_difference_changes_nothing(self):
        # ohmic_mode_config leaves |g_1k| and |g_2k| one ulp apart; one route
        # for every config means such a difference moves results by rounding only
        cfg = ohmic_mode_config(n_modes=3, n_max=2, s=1.3)
        g1, g2 = np.array(cfg.g_site1), np.array(cfg.g_site2)
        assert np.abs(np.abs(g1) - np.abs(g2)).max() > 0.0
        twin = TruncatedBathConfig(
            mode_freqs=cfg.mode_freqs, g_site1=cfg.g_site1,
            g_site2=tuple(np.abs(g1) * np.exp(1j * np.angle(g2))), n_max=cfg.n_max,
            j_hop=cfg.j_hop)
        grid = TimeGrid(3.0, 0.25)
        a, b = (pd.exact_decoherence_reference(c, fig2_state(), grid).trajectory
                for c in (cfg, twin))
        assert np.max(np.abs(a.rho_st - b.rho_st)) <= 1e-13
        schedules = [PulseSchedule(2.0, n) for n in (1, 3)]
        for x, y in zip(*(pd.run_bangbang(c, fig2_state(), schedules).results
                          for c in (cfg, twin))):
            assert abs(x.distance_pulsed - y.distance_pulsed) <= 1e-13

    def test_real_propagator_matches_complex(self):
        # real couplings give a real symmetric H; its float64 diagonals
        # propagate complex states like the complex128 ones
        cfg = TruncatedBathConfig(mode_freqs=(1.0, 1.6), g_site1=(0.5, 0.2),
                                  g_site2=(0.1, -0.3), n_max=3, j_hop=0.4)
        ham = pd.build_hamiltonian(cfg)
        assert not any(np.any(d.imag) for d in ham.bands.values())
        rng = np.random.default_rng(3)
        psi = rng.normal(size=(2, cfg.dim)) + 1j * rng.normal(size=(2, cfg.dim))
        t = np.array([0.0, 0.3, 1.7])
        real = oracle.ChebyshevPropagator(BandedOperator(
            {o: d.real for o, d in ham.bands.items()}, cfg.dim)).evolve(psi, t)
        cplx = oracle.ChebyshevPropagator(ham).evolve(psi, t)
        assert real.shape == cplx.shape == (3, 2, cfg.dim)
        assert np.max(np.abs(real - cplx)) <= 1e-12
        assert np.max(np.abs(real - Propagator(kron_hamiltonian(cfg)).evolve(psi, t))) <= 1e-12


class TestDiagonalInitialState:
    def test_zero_initial_coherence_stays_raw(self):
        cfg = ohmic_mode_config(n_modes=2, n_max=4, coupling=0.1, s=1.0, j_hop=0.1)
        rho0 = DensityMatrixST(rho_ss=0.5, rho_tt=0.5, rho_st=0.0)
        traj = pd.exact_decoherence_reference(cfg, rho0, TimeGrid(10.0, 0.0125)).trajectory
        assert traj.rho_st[0] == 0.0
        assert not traj.coherence_normalized
        # raw |rho_ST|, which the bath builds up from zero only weakly
        assert float(np.max(traj.coherence)) < 0.01


def _nearly_pure_state(eps=1e-3):
    """(1 - 2 eps) times the fig2 state plus eps times the identity: a mixed
    state with eigenvalues 1 - eps and eps."""
    pure = fig2_state()
    return DensityMatrixST.from_parts((1.0 - 2.0 * eps) * pure.rho_ss + eps,
                                      (1.0 - 2.0 * eps) * pure.rho_st)


def _undecomposed_rho(cfg, rho0, site_states, t):
    """[T, S] matrices of sum_pq rho0_site[p, q] |psi_p><psi_q| reduced to the
    qubit, with the ideal rotation over t undone. site_states[..., p, :] is
    |p, vac> propagated, so rho0 is never split into branches."""
    rho0_site = _ST_FROM_SITE.conj().T @ rho0.matrix() @ _ST_FROM_SITE
    amps = site_states.reshape(*site_states.shape[:-1], 2, cfg.bath_dim)
    rho_site = np.einsum("pq,...pam,...qbm->...ab", rho0_site, amps, amps.conj())
    rho = np.einsum("ia,...ab,jb->...ij", _ST_FROM_SITE, rho_site, _ST_FROM_SITE.conj())
    d = _ideal_rotation(cfg, t)
    return d[..., :, None] * rho * d.conj()[..., None, :]


class TestNearlyPureState:
    # a branch of weight 1e-3 must be kept: the references below propagate
    # both site states and never decompose rho0
    @pytest.mark.parametrize("name", ["real-s-2", "lab-asymmetric"])
    def test_exact_reference_keeps_small_branch(self, name):
        cfg = LOCKSTEP_CONFIGS[name]()
        rho0 = _nearly_pure_state()
        grid = TimeGrid(5.0, 0.05)
        sites = Propagator(kron_hamiltonian(cfg)).evolve(
            _vacuum_state(np.eye(2), cfg.bath_dim), grid.points)
        expected = _undecomposed_rho(cfg, rho0, sites, grid.points)
        got = pd.exact_decoherence_reference(cfg, rho0, grid).trajectory
        assert np.max(np.abs(got.rho_ss - expected[:, 1, 1].real)) <= 1e-12
        assert np.max(np.abs(got.rho_st - expected[:, 1, 0])) <= 1e-12

    @pytest.mark.parametrize("name", ["real-s-2", "lab-asymmetric"])
    def test_bangbang_keeps_small_branch(self, name):
        cfg = LOCKSTEP_CONFIGS[name]()
        rho0 = _nearly_pure_state()
        prop = Propagator(kron_hamiltonian(cfg))
        vacua = _vacuum_state(np.eye(2), cfg.bath_dim)

        def distance(states):
            return _trace_distance(_undecomposed_rho(cfg, rho0, states, 2.0), rho0.matrix())

        report = pd.run_bangbang(cfg, rho0, [PulseSchedule(2.0, n) for n in (1, 3, 8)])
        for row in report.results:
            sites = vacua
            for _ in range(2 * row.n_cycles):
                sites = prop.evolve(_site_swap(sites), row.delta_t)
            assert abs(row.distance_pulsed - distance(sites)) <= 1e-12
            assert abs(row.distance_free - distance(prop.evolve(vacua, 2.0))) <= 1e-12


class TestMasterEquationComparison:
    def test_weak_coupling_regime(self):
        cfg = ohmic_mode_config(coupling=0.1, s=1.0, j_hop=0.1, n_max=5)
        comp = pd.compare_with_master_equation(cfg, fig2_state(), TimeGrid(10.0, 0.0125))
        assert comp.adiabaticity_ratio <= 0.1
        assert comp.rms_coherence_diff <= 0.1

    def test_basis_change_is_unitary(self):
        u = _ST_FROM_SITE
        assert np.allclose(u @ u.conj().T, np.eye(2), atol=1e-15)
