import cmath

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import maslov_oracle
from conftest import (lagrangian_loop, rand_orthogonal, rand_unitary,
                      random_symmetric, stepwise_spectral_flow,
                      unitary_group_loop)
from sutured_kit.errors import (CrossingCountMismatch, EndpointSingular,
                                LoopNotClosed, LoopNotClosedInGroup,
                                NotSymmetric, NotUnitary, SamplingTooCoarse)
from sutured_kit.maslov import (SymmetricPath, UnitaryLoop, maslov_loop_index,
                                matrix_from_json, samples_from_json,
                                spectral_flow, symplectic_loop_index)


def phase_loop(steps, freq, power=1.0):
    # n = 1 loop e^{i pi power freq t}
    return [np.array([[np.exp(1j * np.pi * power * freq * k / steps)]])
            for k in range(steps + 1)]


class TestLoopValidation:
    def test_not_unitary(self):
        with pytest.raises(NotUnitary):
            UnitaryLoop([np.array([[2.0]])] * 3)

    def test_first_bad_sample_reported(self):
        samples = phase_loop(64, 2)
        samples[17] = 2 * samples[17]
        samples[40] = 3 * samples[40]
        with pytest.raises(NotUnitary) as exc:
            UnitaryLoop(np.array(samples))
        assert str(exc.value) == "sample 17 is not unitary within 1e-09"

    def test_lagrangian_closure_accepts_sign_flip(self):
        # A(1) = -A(0) closes as Lagrangian subspaces but not in U(1)
        loop = UnitaryLoop(phase_loop(64, 1))
        assert not loop.closes_in_group()

    def test_open_path_rejected(self):
        mats = [np.array([[np.exp(1j * np.pi * k / 128)]]) for k in range(33)]
        with pytest.raises(LoopNotClosed):
            UnitaryLoop(mats)

    def test_symplectic_needs_group_closure(self):
        with pytest.raises(LoopNotClosedInGroup):
            symplectic_loop_index(UnitaryLoop(phase_loop(64, 1)))


class TestNonFiniteSamples:
    """Called from Python, the classes refuse what the JSON reader refuses,
    with its detail: a NaN compares false against every tolerance, so it
    would pass the checks unseen."""

    NON_FINITE = [np.nan, np.inf, -np.inf, complex(0.0, np.nan), complex(1.0, -np.inf)]

    def refused(self, cls, samples, k):
        with pytest.raises(ValueError) as exc:
            cls(samples)
        assert type(exc.value) is ValueError
        assert str(exc.value) == f"samples[{k}] has a non-finite entry"

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_loop_refuses(self, bad):
        self.refused(UnitaryLoop, [np.array([[1.0]]), np.array([[bad]]), np.array([[1.0]])], 1)

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_path_refuses(self, bad):
        self.refused(SymmetricPath, [np.eye(2), np.full((2, 2), bad), np.eye(2)], 1)

    def test_first_non_finite_sample_named(self):
        samples = [np.eye(2)] * 9
        samples[5] = np.array([[1.0, 0.0], [np.nan, 1.0]])
        samples[2] = np.array([[1.0, 0.0], [0.0, np.inf]])
        self.refused(SymmetricPath, samples, 2)
        self.refused(UnitaryLoop, samples, 2)


class TestLoopIndices:
    def test_constant_loop(self):
        rng = np.random.default_rng(0)
        a = rand_unitary(rng, 2)
        loop = UnitaryLoop([a] * 8)
        assert maslov_loop_index(loop) == 0
        assert symplectic_loop_index(loop) == 0

    def test_half_turn_winds_once(self):
        assert maslov_loop_index(UnitaryLoop(phase_loop(64, 1))) == 1

    def test_opposite_phases_cancel(self):
        mats = [np.diag([np.exp(1j * np.pi * k / 64), np.exp(-1j * np.pi * k / 64)])
                for k in range(65)]
        assert maslov_loop_index(UnitaryLoop(mats)) == 0

    def test_full_circle_in_group(self):
        assert symplectic_loop_index(UnitaryLoop(phase_loop(64, 2))) == 1

    def test_sampling_guard(self):
        # det^2 advances by 3*pi/4 per step, beyond the pi/2 guard
        with pytest.raises(SamplingTooCoarse):
            maslov_loop_index(UnitaryLoop(phase_loop(8, 3)))

    def test_first_coarse_step_reported(self):
        # two steps past the guard; the stacked scan names the earlier one,
        # with the increment a step-by-step scan would print
        samples = phase_loop(64, 2)
        samples[20] = samples[20] * np.exp(1.6j)
        samples[40] = samples[40] * np.exp(-1.7j)
        dets = [complex(np.linalg.det(a)) for a in samples]
        steps = [cmath.phase(b / a) for a, b in zip(dets, dets[1:])]
        first = next(s for s in steps if abs(s) >= np.pi / 2)
        assert steps.index(first) == 19
        with pytest.raises(SamplingTooCoarse) as exc:
            symplectic_loop_index(UnitaryLoop(samples))
        assert str(exc.value) == f"phase increment {first:.3f} exceeds pi/2; refine the sampling"

    def test_known_winding(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            n = int(rng.integers(1, 4))
            ints = [int(x) for x in rng.integers(-3, 4, size=n)]
            lam, expected = lagrangian_loop(rng, n, 256, ints)
            assert maslov_loop_index(UnitaryLoop(lam)) == expected
            tau, expected_s = unitary_group_loop(rng, n, 256, ints)
            assert symplectic_loop_index(UnitaryLoop(tau)) == expected_s

    def test_composition_law(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            n = int(rng.integers(1, 4))
            lam, _ = lagrangian_loop(rng, n, 256, [int(x) for x in rng.integers(-2, 3, size=n)])
            tau, _ = unitary_group_loop(rng, n, 256, [int(x) for x in rng.integers(-2, 3, size=n)])
            prod = [t @ l for t, l in zip(tau, lam)]
            assert maslov_loop_index(UnitaryLoop(prod)) == \
                maslov_loop_index(UnitaryLoop(lam)) + \
                2 * symplectic_loop_index(UnitaryLoop(tau))

    def test_orthogonal_factor_invisible(self):
        # right multiplication by an orthogonal loop cannot change det^2's degree
        rng = np.random.default_rng(13)
        n = 2
        lam, _ = lagrangian_loop(rng, n, 256, [1, -2])
        theta = np.linspace(0, 2 * np.pi, 257)
        orth = [np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]])
                for t in theta]
        twisted = [l @ o for l, o in zip(lam, orth)]
        assert maslov_loop_index(UnitaryLoop(twisted)) == \
            maslov_loop_index(UnitaryLoop(lam))

    def test_concatenation_additivity(self):
        rng = np.random.default_rng(17)
        n = 2
        # two loops of known winding based at the same frame, concatenated
        Q = rand_orthogonal(rng, n)
        A0 = rand_unitary(rng, n)

        def based_loop(ints):
            mats = []
            for k in range(257):
                t = k / 256
                D = np.diag(np.exp(1j * np.pi * t * np.asarray(ints, dtype=float)))
                mats.append(A0 @ Q.T @ D @ Q)
            return mats

        l1 = based_loop([2, 0])
        l2 = based_loop([0, -4])
        # l1 ends at A0 Q^T diag(+-1) Q; restart l2 from that frame
        end = l1[-1]
        restart = [end @ np.linalg.inv(l2[0]) @ m for m in l2]
        concat = l1 + restart[1:]
        assert maslov_loop_index(UnitaryLoop(concat)) == \
            maslov_loop_index(UnitaryLoop(l1)) + maslov_loop_index(UnitaryLoop(l2))


class TestSpectralFlow:
    def test_constant_identity(self):
        assert spectral_flow(SymmetricPath([np.eye(3)] * 5)) == 0

    def test_single_crossing(self):
        samples = [np.array([[s]]) for s in np.linspace(-1, 1, 65)]
        assert spectral_flow(SymmetricPath(samples)) == 1

    def test_morse_index_difference(self):
        a = np.diag([-1.0, -1.0, 1.0])   # index 2
        b = np.diag([-1.0, 1.0, 2.0])    # index 1
        samples = [(1 - s) * a + s * b for s in np.linspace(0, 1, 129)]
        assert spectral_flow(SymmetricPath(samples)) == 1

    def test_random_interpolations(self):
        rng = np.random.default_rng(19)
        for _ in range(40):
            n = int(rng.integers(1, 5))
            e0 = rng.choice([-2.0, -1.0, 1.0, 2.0], size=n) + rng.normal(scale=0.1, size=n)
            e1 = rng.choice([-2.0, -1.0, 1.0, 2.0], size=n) + rng.normal(scale=0.1, size=n)
            a, b = random_symmetric(rng, n, e0), random_symmetric(rng, n, e1)
            samples = [(1 - s) * a + s * b for s in np.linspace(0, 1, 257)]
            nu = lambda m: int(np.sum(np.linalg.eigvalsh(m) < 0))
            assert spectral_flow(SymmetricPath(samples)) == nu(a) - nu(b)

    def test_subdivision_and_reversal(self):
        rng = np.random.default_rng(23)
        n = 3
        a = random_symmetric(rng, n, [-2.0, -1.0, 1.5])
        b = random_symmetric(rng, n, [1.0, 2.0, -1.5])
        samples = [(1 - s) * a + s * b for s in np.linspace(0, 1, 129)]
        whole = spectral_flow(SymmetricPath(samples))
        mid = 64
        # the midpoint is invertible for this seed, so the path splits
        first = spectral_flow(SymmetricPath(samples[:mid + 1]))
        second = spectral_flow(SymmetricPath(samples[mid:]))
        assert whole == first + second
        assert spectral_flow(SymmetricPath(samples[::-1])) == -whole

    def test_endpoint_singular(self):
        samples = [np.array([[s]]) for s in np.linspace(0.0, 1.0, 9)]
        with pytest.raises(EndpointSingular):
            SymmetricPath(samples)

    def test_not_symmetric(self):
        with pytest.raises(NotSymmetric):
            SymmetricPath([np.array([[1.0, 1.0], [0.0, 1.0]])] * 3)

    def test_first_asymmetric_sample_reported(self):
        samples = [np.eye(2)] * 9
        samples[3] = samples[6] = np.array([[1.0, 1.0], [0.0, 1.0]])
        with pytest.raises(NotSymmetric) as exc:
            SymmetricPath(samples)
        assert str(exc.value) == "sample 3 is not symmetric within 1e-12"

    def test_first_complex_sample_reported(self):
        # Hermitian, not real symmetric: casting to the real part would hide it
        samples = [np.eye(2, dtype=complex)] * 9
        samples[4] = samples[7] = np.array([[1.0, 5j], [-5j, 1.0]])
        with pytest.raises(NotSymmetric) as exc:
            SymmetricPath(samples)
        assert str(exc.value) == ("sample 4 has a nonzero imaginary part; "
                                  "spectral flow needs real symmetric matrices")

    def test_crossing_mismatch_detected(self):
        # an endpoint eigenvalue inside the regularization window (negative but
        # flipped positive by the +delta shift) makes the two counts disagree
        eps = -5e-9
        samples = [np.diag([-1.0, eps]), np.diag([1.0, 1.0])]
        with pytest.raises(CrossingCountMismatch):
            spectral_flow(SymmetricPath(samples))


class TestSpectralFlowOracle:
    """The telescoped count against the step-by-step sum it replaced."""

    @staticmethod
    def outcome(fn, path):
        try:
            return fn(path)
        except CrossingCountMismatch:
            return "mismatch"

    def test_random_paths(self):
        rng = np.random.default_rng(31)
        window = [-5e-9, -2e-9, 3e-9]       # in or next to [-CROSSING_SHIFT, 0)
        outcomes = []
        for _ in range(300):
            n = int(rng.integers(1, 5))
            ends = []
            for _ in range(2):
                eigs = rng.choice([-2.0, -1.0, 0.5, 1.5], size=n)
                if rng.random() < 0.4:
                    eigs[int(rng.integers(n))] = rng.choice(window)
                ends.append(random_symmetric(rng, n, eigs))
            inner = [(m + m.T) / 2 for m in rng.normal(size=(int(rng.integers(0, 30)), n, n))]
            path = SymmetricPath([ends[0]] + inner + [ends[1]])
            got = self.outcome(spectral_flow, path)
            assert got == self.outcome(stepwise_spectral_flow, path)
            outcomes.append(got)
        assert outcomes.count("mismatch") >= 20
        assert len(set(outcomes)) >= 5


def polar_unitary(a):
    """Unitary factor of the polar decomposition; retracts GL(n, C) to U(n)."""
    u, _, vh = np.linalg.svd(np.asarray(a, dtype=complex))
    return u @ vh


class TestHelpers:
    def test_polar_unitary(self):
        rng = np.random.default_rng(29)
        m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        u = polar_unitary(m)
        assert np.linalg.norm(u.conj().T @ u - np.eye(3)) < 1e-9
        # the retraction fixes unitary matrices
        v = rand_unitary(rng, 3)
        assert np.linalg.norm(polar_unitary(v) - v) < 1e-9

    def test_json_matrices(self):
        m = matrix_from_json([[{"re": 1, "im": 2}, 3], [0, {"im": -1}]], "matrix")
        assert m[0, 0] == 1 + 2j and m[0, 1] == 3 and m[1, 1] == -1j
        samples = samples_from_json([[[1, 0], [0, 1]]] * 2)
        assert len(samples) == 2 and samples[0].shape == (2, 2)


# -- JSON ingestion against the per-entry loop -------------------------------------

FINITE = st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.integers(-9, 9),
                   st.just(-0.0), st.integers(2 ** 53, 2 ** 70) | st.integers(-2 ** 70, -2 ** 53),
                   st.sampled_from([2 ** 64 + 1, 2 ** 1023 + 1, 2 ** 1024 - 2 ** 971]))
OBJECT = st.fixed_dictionaries({}, optional={"re": FINITE, "im": FINITE})
HUGE = st.sampled_from([10 ** 400, -10 ** 400, 2 ** 1024 - 2 ** 970])
PART = st.sampled_from([True, False, "1", None, [0.5], float("nan"), -float("inf")])
BAD = PART | HUGE | st.sampled_from(["", {"re": 1.0}, (1.0,), float("inf")])
NOT_A_LIST = st.sampled_from([5, 1.5, "x", None, True, {"0": [1.0]}, (1.0,)])


@st.composite
def sample_lists(draw):
    """Sample lists of every entry form, most of them with one fault."""
    n, r, c = draw(st.integers(1, 4)), draw(st.integers(0, 3)), draw(st.integers(0, 3))
    entry = draw(st.sampled_from([FINITE, OBJECT, FINITE | OBJECT]))
    samples = [[[draw(entry) for _ in range(c)] for _ in range(r)] for _ in range(n)]
    k, i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, 2)), draw(st.integers(0, 2))
    fault = draw(st.sampled_from([None, "entry", "part", "part", "huge", "ragged", "size",
                                  "level", "top"]))
    if fault in ("entry", "part", "huge") and r and c:
        old = samples[k][i % r][j % c]
        value = draw({"entry": BAD, "part": PART, "huge": HUGE}[fault])
        if type(old) is dict and fault != "entry":
            value = {**old, draw(st.sampled_from(["re", "im"])): value}
        samples[k][i % r][j % c] = value
    elif fault == "ragged" and r:
        row = samples[k][i % r]
        samples[k][i % r] = row[:-1] if j % 2 else row + [draw(entry)]
    elif fault == "size":
        samples[k] = samples[k][:-1] if j % 2 else samples[k] + [[draw(entry)] * c]
    elif fault == "level":
        if r:
            samples[k][i % r] = draw(NOT_A_LIST)
        else:
            samples[k] = draw(NOT_A_LIST)
    elif fault == "top":
        return draw(NOT_A_LIST)
    return samples


def outcome(read, data):
    try:
        stack = read(data)
    except ValueError as exc:
        return "refused", str(exc)
    return stack.shape, stack.dtype, stack.tobytes()


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(sample_lists())
def test_samples_from_json_matches_the_per_entry_loop(data):
    assert outcome(samples_from_json, data) == outcome(maslov_oracle.samples_from_json, data)
