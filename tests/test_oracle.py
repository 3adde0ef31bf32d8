import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.linalg import expm

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
from polaron_deco.oracle import (
    CHUNK,
    _ST_FROM_SITE,
    _site_swap,
    _vacuum_state,
    lang_firsov_generator,
    ohmic_mode_config,
)
from conftest import fig2_state
from kron_reference import kron_generator, kron_hamiltonian
from oracle_reference import Propagator, one_block_rho, serial_bangbang


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


class TestConfig:
    def test_dimension_cap(self):
        with pytest.raises(ConfigError, match="cap"):
            TruncatedBathConfig(mode_freqs=(1.0, 2.0, 3.0, 4.0),
                                g_site1=(0.1,) * 4, g_site2=(0.0,) * 4,
                                n_max=7, j_hop=1.0)
        # the cap sits at dim 4096: one mode with 2048 Fock states fits
        assert single_mode(n_max=2047).dim == 4096
        with pytest.raises(ConfigError, match="4098 exceeds cap 4096"):
            single_mode(n_max=2048)

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

    def test_ohmic_discretization(self):
        cfg = ohmic_mode_config(n_modes=2, n_max=4, coupling=1.0, s=1.0, j_hop=0.3)
        assert cfg.mode_freqs == (1.0, 3.0)
        assert abs(cfg.g_site1[0]) ** 2 == pytest.approx(2.0 * np.exp(-1.0))
        # site-2 phase implements the separation under linear dispersion
        assert cfg.g_site2[1] == pytest.approx(cfg.g_site1[1] * np.exp(-3.0j))


class TestHamiltonian:
    def test_decoupled_spectrum(self):
        cfg = TruncatedBathConfig(mode_freqs=(1.0,), g_site1=(0.0,), g_site2=(0.0,),
                                  n_max=3, j_hop=0.3, epsilon_onsite=0.7)
        ham = pd.build_hamiltonian(cfg)
        got = np.sort(np.linalg.eigvalsh(ham))
        expected = np.sort([0.7 + sgn * 0.3 + m for sgn in (1, -1) for m in range(4)])
        assert np.max(np.abs(got - expected)) < 1e-12

    def test_frozen_bath_reduces_to_two_level(self):
        cfg = TruncatedBathConfig(mode_freqs=(1.0,), g_site1=(0.5,), g_site2=(0.5,),
                                  n_max=0, j_hop=0.4, epsilon_onsite=0.2)
        ham = pd.build_hamiltonian(cfg)
        assert ham.shape == (2, 2)
        # a single Fock level truncates the coupling to zero, leaving the bare qubit
        assert np.allclose(ham, [[0.2, 0.4], [0.4, 0.2]], atol=1e-15)

    def test_hermiticity(self):
        cfg = TruncatedBathConfig(mode_freqs=(0.9, 2.3), g_site1=(0.3 + 0.1j, 0.05),
                                  g_site2=(0.2, 0.1 - 0.2j), n_max=3, j_hop=0.7,
                                  epsilon_onsite=0.1)
        ham = pd.build_hamiltonian(cfg)
        assert np.max(np.abs(ham - ham.conj().T)) < 1e-12

    def test_two_particle_block(self):
        cfg = single_mode(alpha=0.5, n_max=6, eps=0.3)
        ham2 = pd.build_hamiltonian(cfg, particles=2)
        assert ham2.shape == (7, 7)
        assert ham2[0, 0] == pytest.approx(0.6)  # 2*eps + vacuum

    def test_invalid_sector(self):
        with pytest.raises(ConfigError):
            pd.build_hamiltonian(single_mode(), particles=3)

    def test_generator_invalid_sector(self):
        with pytest.raises(ConfigError, match="particles"):
            lang_firsov_generator(single_mode(), particles=0)

    @pytest.mark.parametrize("particles", [0, 1, 2])
    @pytest.mark.parametrize("name", list(KRON_CONFIGS))
    def test_matches_kron_reference(self, name, particles):
        cfg = KRON_CONFIGS[name]()
        ham = pd.build_hamiltonian(cfg, particles)
        ref = kron_hamiltonian(cfg, particles)
        assert ham.shape == ref.shape
        assert np.max(np.abs(ham - ref)) <= 1e-13

    @pytest.mark.parametrize("particles", [1, 2])
    @pytest.mark.parametrize("name", list(KRON_CONFIGS))
    def test_generator_matches_kron_reference(self, name, particles):
        cfg = KRON_CONFIGS[name]()
        gen = lang_firsov_generator(cfg, particles)
        ref = kron_generator(cfg, particles)
        assert gen.shape == ref.shape
        assert np.max(np.abs(gen - ref)) <= 1e-13


class TestLangFirsov:
    def test_zero_coupling_is_inert(self):
        cfg = TruncatedBathConfig(mode_freqs=(1.0,), g_site1=(0.0,), g_site2=(0.0,),
                                  n_max=4, j_hop=0.8)
        report = pd.lang_firsov_check(cfg)
        assert report.spectrum_max_dev < 1e-12
        assert report.hop_measured == pytest.approx(0.8, abs=1e-12)
        assert report.truncation_tail == 0.0
        assert report.conclusive

    def test_single_mode_dressed_hopping(self):
        report = pd.lang_firsov_check(single_mode(alpha=0.5, n_max=12))
        assert report.spectrum_max_dev < 1e-8
        assert report.hop_expected == pytest.approx(np.exp(-0.125), rel=1e-12)
        assert report.hop_error < 1e-4
        assert report.conclusive

    def test_cutoff_convergence(self):
        r12 = pd.lang_firsov_check(single_mode(alpha=0.5, n_max=12))
        r16 = pd.lang_firsov_check(single_mode(alpha=0.5, n_max=16))
        assert abs(r16.hop_measured - r12.hop_measured) < 1e-6

    def test_two_particle_shift(self):
        cfg = TruncatedBathConfig(mode_freqs=(1.0, 2.0), g_site1=(0.3, 0.1),
                                  g_site2=(0.2, 0.05), n_max=8, j_hop=1.0,
                                  epsilon_onsite=0.25)
        report = pd.lang_firsov_check(cfg)
        # -sum (|g1|^2 + |g2|^2)/w - V12 + 2 eps
        assert report.two_particle_expected == pytest.approx(
            0.5 - (0.09 + 0.04) - (0.01 + 0.0025) / 2.0
            - (2 * 0.3 * 0.2 + 2 * 0.1 * 0.05 / 2.0), rel=1e-12)
        assert report.two_particle_shift == pytest.approx(
            report.two_particle_expected, abs=1e-8)

    def test_tail_threshold(self):
        # the displaced-vacuum weight beyond n_max = 4 is 7.6e-7 at
        # alpha = 0.40 and 1.2e-6 at 0.42, either side of the 1e-6 threshold
        below = pd.lang_firsov_check(single_mode(alpha=0.40, n_max=4),
                                     include_two_particle=False)
        above = pd.lang_firsov_check(single_mode(alpha=0.42, n_max=4),
                                     include_two_particle=False)
        assert 5e-7 < below.truncation_tail < 1e-6 < above.truncation_tail < 2e-6
        assert below.conclusive and below.suggested_n_max == 4
        assert not above.conclusive and above.suggested_n_max == 6

    def test_inconclusive_when_truncated_too_hard(self):
        report = pd.lang_firsov_check(single_mode(alpha=2.0, n_max=2),
                                      include_two_particle=False)
        assert not report.conclusive
        assert report.suggested_n_max > 2

    def test_dressing_weight_readback(self):
        # the measured hopping implies sum |alpha|^2 = -2 ln(|el| / J)
        cfg = single_mode(alpha=0.5, n_max=14)
        report = pd.lang_firsov_check(cfg, include_two_particle=False)
        implied = -2.0 * np.log(report.hop_measured / cfg.j_hop)
        assert implied == pytest.approx(float(cfg.alpha_weights().sum()), abs=1e-6)


class TestExactEvolution:
    def test_zero_time_is_identity(self):
        cfg = single_mode(n_max=3)
        prop = oracle.ChebyshevPropagator(pd.build_hamiltonian(cfg))
        psi = _vacuum_state([1.0, 0.0], cfg.bath_dim)
        assert np.allclose(prop.evolve(psi, 0.0), psi, atol=1e-14)

    def test_eigenstate_only_rotates(self):
        cfg = single_mode(n_max=3)
        ham = pd.build_hamiltonian(cfg)
        w, v = np.linalg.eigh(ham)
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
        # the lockstep route: one coefficient row reused for every step
        cfg = single_mode(n_max=3)
        prop = oracle.ChebyshevPropagator(pd.build_hamiltonian(cfg))
        psi = _vacuum_state([[1.0, 0.0]], cfg.bath_dim)
        coef = prop.coefficients([0.01])
        for _ in range(10_000):
            psi = prop.evolve_rows(psi, coef)
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
        np.array([[0.0, 1.0], [0.0, 0.0]]),  # no mirror diagonal
        np.array([[0.0, 1.0], [2.0, 0.0]]),
        np.array([[1.0j, 0.0], [0.0, 1.0]]),  # complex main diagonal
        np.arange(16.0).reshape(4, 4) + 1j,
    ])
    def test_rejects_non_hermitian(self, ham):
        with pytest.raises(ConfigError, match="Hermitian"):
            oracle.ChebyshevPropagator(ham)

    @pytest.mark.parametrize("index", [(1, 1), (0, 2)])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_rejects_non_finite(self, value, index):
        ham = pd.build_hamiltonian(single_mode(n_max=2))
        ham[index] = value
        with pytest.raises(ConfigError, match="finite Hermitian"):
            oracle.ChebyshevPropagator(ham)

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
        ham = pd.build_hamiltonian(cfg)
        psi = _vacuum_state([[0.6, 0.8j], [1.0, 0.0]], cfg.bath_dim)
        t = TimeGrid(40.0, 0.1).points
        slices = list(oracle.ChebyshevPropagator(ham).series(psi, t))
        assert np.array_equal(np.concatenate([ts for ts, _ in slices]), t)
        assert len({len(ts) for ts, _ in slices}) <= 2  # equal up to one point
        states = np.concatenate([s for _, s in slices])
        assert states.shape == (len(t), 2, cfg.dim)
        assert np.max(np.abs(states - Propagator(ham).evolve(psi, t))) <= 1e-12

    @pytest.mark.parametrize("name", ["real-s-2", "lab-asymmetric"])
    def test_evolve_rows_matches_propagator(self, name):
        # each row by its own tau, one of them longer than SPAN_CAP / radius
        cfg = LOCKSTEP_CONFIGS[name]()
        ham = pd.build_hamiltonian(cfg)
        cheb = oracle.ChebyshevPropagator(ham)
        psi = _vacuum_state([[0.6, 0.8j], [1.0, 0.0], [0.0, 1.0]], cfg.bath_dim)
        tau = np.array([0.3, 0.0, 2.0 * oracle.SPAN_CAP / cheb.radius])
        coef = cheb.coefficients(tau)
        assert coef.shape == (3, oracle._series_length(cheb.radius * tau[2]))
        assert coef.shape[1] > CHUNK
        out = cheb.evolve_rows(psi, coef)
        ref = Propagator(ham)
        for row, t in enumerate(tau):
            assert np.max(np.abs(out[row] - ref.evolve(psi[row], t))) <= 1e-12


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
        h0 = pd.build_hamiltonian(decoupled)  # eps(n1+n2) + J swap + bath
        assert np.max(np.abs(swap @ h0 - h0 @ swap)) < 1e-12
        ham = pd.build_hamiltonian(cfg)
        assert np.max(np.abs(swap @ ham - ham @ swap)) > 1e-3  # couplings differ


class TestTraceDistance:
    def test_identical_states(self):
        rho = fig2_state().matrix()
        assert pd.trace_distance(rho, rho) == 0.0

    def test_orthogonal_pure_states(self):
        a = np.diag([1.0, 0.0]).astype(complex)
        b = np.diag([0.0, 1.0]).astype(complex)
        assert pd.trace_distance(a, b) == pytest.approx(1.0, abs=1e-14)


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
        report = pd.run_bangbang(cfg, fig2_state(), PulseSchedule(4.0, 4))
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
        report = pd.run_bangbang(cfg, rho0, PulseSchedule(2.0, 8))
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
        ham = pd.build_hamiltonian(cfg)
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
            return pd.trace_distance(rho, rho0.matrix())

        u_dt = expm(-1j * ham * total / (2 * cycles))
        pulsed = np.linalg.matrix_power(u_dt @ swap @ u_dt @ swap, cycles)
        reversed_order = np.linalg.matrix_power(swap @ u_dt @ swap @ u_dt, cycles)
        row = pd.run_bangbang(cfg, rho0, PulseSchedule(total, cycles)).results[0]
        assert abs(row.distance_pulsed - distance(pulsed)) < 1e-12
        assert abs(row.distance_free - distance(expm(-1j * ham * total))) < 1e-12
        # the reference tells the two orders apart on this configuration
        assert abs(distance(reversed_order) - distance(pulsed)) > 5e-3

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
        report.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("# config:")
        assert lines[1].split(",")[:4] == ["delta_t", "n_cycles",
                                           "trace_distance_pulsed",
                                           "trace_distance_free"]
        assert len(lines) == 2 + 3


# configs for the lockstep and chunking checks: "real-*" have |g_1k| = |g_2k|
# (ohmic_mode_config), where H is real symmetric in a gauged basis (Dyson,
# J. Math. Phys. 3, 1199 (1962)); "lab-*" have |g_1k| != |g_2k|. The oracle
# propagates both in the lab basis.
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
        # Chebyshev series in lockstep against eigen-coefficients one schedule
        # at a time: two routes, so agreement to rounding, not bit for bit
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
        step = oracle.ChebyshevPropagator._step
        bessel = oracle._bessel_coefficients
        rows, coefficient_rows = [], []

        def counting(self, x, out):
            rows.append(len(x))
            return step(self, x, out)

        def counting_bessel(x, n_terms):
            coefficient_rows.append(len(x))
            return bessel(x, n_terms)

        monkeypatch.setattr(oracle.ChebyshevPropagator, "_step", counting)
        monkeypatch.setattr(oracle, "_bessel_coefficients", counting_bessel)
        pd.run_bangbang(cfg, rho0, [PulseSchedule(4.0, n) for n in cycles])
        # coefficients once for the free evolution, then once per active-row count
        row_counts = sorted({nb * sum(n >= m for n in cycles) for m in cycles}, reverse=True)
        assert coefficient_rows == [1] + row_counts
        # the free evolution over T, then one recurrence per half cycle of the
        # longest schedule over the rows whose schedule still has steps left;
        # a series of L terms takes L - 1 steps
        expected = [nb] * (oracle._series_length(radius * 4.0) - 1)
        for k in range(2 * max(cycles)):
            active = [n for n in cycles if 2 * n > k]
            length = oracle._series_length(radius * (4.0 / (2 * min(active))))
            expected += [nb * len(active)] * (length - 1)
        assert rows == expected
        assert rows[-1] == nb * cycles.count(max(cycles))

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
        cfg = LOCKSTEP_CONFIGS["real-s-2"]()
        rho0 = LOCKSTEP_STATES[state]()
        radius = oracle.ChebyshevPropagator(pd.build_hamiltonian(cfg)).radius
        rows = 2 * len(oracle._initial_site_branches(rho0))
        # every term of the longest half cycle's series held at once, all rows
        series = oracle._series_length(radius * 200.0) * rows * cfg.dim * 16
        peak = peak_traced_bytes(lambda: pd.run_bangbang(
            cfg, rho0, [PulseSchedule(400.0, n) for n in (1, 2)]))
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


# configs with |g_1k| = |g_2k|, where H is real symmetric in a gauged basis;
# the oracle runs them, like every config, in the lab basis
FRAME_CONFIGS = {
    "ohmic-s-pi": lambda: ohmic_mode_config(n_modes=2, n_max=3),
    "ohmic-s-2": lambda: ohmic_mode_config(n_modes=2, n_max=3, s=2.0, epsilon_onsite=0.3),
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
    """Independent route: complex eigh of the lab-frame H, the full density
    matrix rho_site (x) |vac><vac| propagated by dense unitaries, a partial
    trace and the ideal rotation undone with a 2x2 matrix exponential."""

    def __init__(self, cfg):
        self.cfg = cfg
        self.db = cfg.bath_dim
        self.energies, self.vectors = np.linalg.eigh(pd.build_hamiltonian(cfg))
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
        return (pd.trace_distance(self.reduced(pulsed, rho0, total), rho0.matrix()),
                pd.trace_distance(self.reduced(self.unitary(total), rho0, total),
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
        assert not np.any(ham.imag)
        rng = np.random.default_rng(3)
        psi = rng.normal(size=(2, cfg.dim)) + 1j * rng.normal(size=(2, cfg.dim))
        t = np.array([0.0, 0.3, 1.7])
        real = oracle.ChebyshevPropagator(ham.real).evolve(psi, t)
        cplx = oracle.ChebyshevPropagator(ham).evolve(psi, t)
        assert real.shape == cplx.shape == (3, 2, cfg.dim)
        assert np.max(np.abs(real - cplx)) <= 1e-12
        assert np.max(np.abs(real - Propagator(ham).evolve(psi, t))) <= 1e-12


class TestDiagonalInitialState:
    def test_zero_initial_coherence_stays_raw(self):
        cfg = ohmic_mode_config(n_modes=2, n_max=4, coupling=0.1, s=1.0, j_hop=0.1)
        rho0 = DensityMatrixST(rho_ss=0.5, rho_tt=0.5, rho_st=0.0)
        traj = pd.exact_decoherence_reference(cfg, rho0, TimeGrid(10.0, 0.0125)).trajectory
        assert traj.rho_st[0] == 0.0
        assert not traj.coherence_normalized
        # raw |rho_ST|, which the bath builds up from zero only weakly
        assert float(np.max(traj.coherence)) < 0.01


class TestMasterEquationComparison:
    def test_weak_coupling_regime(self):
        cfg = ohmic_mode_config(coupling=0.1, s=1.0, j_hop=0.1, n_max=5)
        comp = pd.compare_with_master_equation(cfg, fig2_state(), TimeGrid(10.0, 0.0125))
        assert comp.adiabaticity_ratio <= 0.1
        assert comp.rms_coherence_diff <= 0.1

    def test_basis_change_is_unitary(self):
        u = _ST_FROM_SITE
        assert np.allclose(u @ u.conj().T, np.eye(2), atol=1e-15)
