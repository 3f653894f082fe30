"""Unit tests for the JSON interchange layer.

Round trips must be bit-exact for every finite double, which is compared
through the raw byte layout of the arrays rather than through allclose.
"""

import hashlib
import json

import numpy as np
import pytest

from optevo import (
    DensityMatrix,
    PureState,
    SerializationError,
    Trajectory,
    Units,
    projector,
    sample_trajectory,
)
from optevo.sampling import random_pure_state
from optevo.serialization import (
    MATRIX_KINDS,
    file_digest,
    load_document,
    matrix_from_json,
    matrix_to_json,
    save_document,
    state_from_json,
    state_to_json,
    trajectory_from_json,
    trajectory_to_json,
)

SIGMA_Y = np.array([[0.0, -1j], [1j, 0.0]])


def bit_equal(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _arrays(traj):
    return [s.amplitudes if traj.kind == "pure" else s.matrix for s in traj.states]


class TestMatrixDocuments:
    def test_roundtrip_preserves_bits(self, rng):
        m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        # Mix in signed zeros and extreme exponents.
        m[0, 0] = complex(-0.0, 1e-200)
        m[1, 2] = complex(1e200, -0.0)
        doc = matrix_to_json(m, "hermitian")
        back, kind = matrix_from_json(json.loads(json.dumps(doc)))
        assert kind == "hermitian"
        assert bit_equal(back, m)

    @pytest.mark.parametrize("kind", MATRIX_KINDS)
    def test_kind_tags_roundtrip(self, kind):
        doc = matrix_to_json(np.eye(2), kind)
        _, back = matrix_from_json(doc)
        assert back == kind

    def test_rejects_unknown_kind(self):
        with pytest.raises(SerializationError):
            matrix_to_json(np.eye(2), "symmetric")

    def test_rejects_nonfinite(self):
        m = np.array([[np.inf, 0.0], [0.0, 0.0]])
        with pytest.raises(SerializationError):
            matrix_to_json(m, "hermitian")

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda d: d.pop("rows"),
            lambda d: d.__setitem__("n", 3),
            lambda d: d.__setitem__("n", True),
            lambda d: d.__setitem__("kind", "junk"),
            lambda d: d["rows"][0].__setitem__(0, [1.0]),
            lambda d: d["rows"][0].__setitem__(0, ["a", 0.0]),
            lambda d: d["rows"][0].__setitem__(0, [True, 0.0]),
            lambda d: d["rows"].pop(),
            lambda d: d["rows"][0].__setitem__(0, [float("nan"), 0.0]),
            lambda d: d.__setitem__("rows", 2.0),
        ],
    )
    def test_rejects_malformed_documents(self, mutate):
        doc = matrix_to_json(np.eye(2), "unitary")
        mutate(doc)
        with pytest.raises(SerializationError):
            matrix_from_json(doc)

    def test_rejects_non_object(self):
        with pytest.raises(SerializationError):
            matrix_from_json([1, 2, 3])


class TestStateDocuments:
    def test_roundtrip_without_units(self, rng):
        phi = random_pure_state(rng, 5)
        back, units = state_from_json(state_to_json(phi))
        assert units is None
        assert bit_equal(back.amplitudes, phi.amplitudes)

    def test_roundtrip_with_units(self, rng):
        phi = random_pure_state(rng, 3)
        back, units = state_from_json(state_to_json(phi, Units(hbar=2.5)))
        assert units is not None and units.hbar == 2.5
        assert bit_equal(back.amplitudes, phi.amplitudes)

    def test_rejects_unnormalized(self):
        doc = {"n": 2, "amplitudes": [[1.0, 0.0], [1.0, 0.0]]}
        with pytest.raises(SerializationError):
            state_from_json(doc)

    def test_rejects_bad_units(self, rng):
        doc = state_to_json(random_pure_state(rng, 2))
        doc["units"] = {"hbar": -1.0}
        with pytest.raises(SerializationError):
            state_from_json(doc)

    def test_rejects_count_mismatch(self):
        doc = {"n": 3, "amplitudes": [[1.0, 0.0], [0.0, 0.0]]}
        with pytest.raises(SerializationError):
            state_from_json(doc)


class TestTrajectoryDocuments:
    def test_pure_roundtrip(self):
        traj = sample_trajectory(SIGMA_Y, PureState.basis_state(2, 0), np.linspace(0, 1, 5))
        doc = json.loads(json.dumps(trajectory_to_json(traj)))
        back = trajectory_from_json(doc)
        assert back.kind == "pure"
        assert bit_equal(back.times, traj.times)
        for a, b in zip(back.states, traj.states):
            assert bit_equal(a.amplitudes, b.amplitudes)
        # The generator is not part of the format.
        assert back.hamiltonian is None

    def test_density_roundtrip(self):
        rho = projector(PureState.basis_state(2, 0))
        traj = sample_trajectory(SIGMA_Y, rho, np.linspace(0, 1, 4), Units(hbar=3.0))
        back = trajectory_from_json(trajectory_to_json(traj))
        assert back.kind == "density"
        assert back.units.hbar == 3.0
        for a, b in zip(back.states, traj.states):
            assert bit_equal(a.matrix, b.matrix)

    def test_rejects_unknown_kind(self):
        traj = sample_trajectory(SIGMA_Y, PureState.basis_state(2, 0), np.linspace(0, 1, 3))
        doc = trajectory_to_json(traj)
        doc["kind"] = "mixed"
        with pytest.raises(SerializationError):
            trajectory_from_json(doc)
        doc["kind"] = ["pure"]
        with pytest.raises(SerializationError):
            trajectory_from_json(doc)

    def test_rejects_header_mismatch(self):
        traj = sample_trajectory(SIGMA_Y, PureState.basis_state(2, 0), np.linspace(0, 1, 3))
        doc = trajectory_to_json(traj)
        doc["n"] = 4
        with pytest.raises(SerializationError):
            trajectory_from_json(doc)

    def test_rejects_length_mismatch(self):
        traj = sample_trajectory(SIGMA_Y, PureState.basis_state(2, 0), np.linspace(0, 1, 3))
        doc = trajectory_to_json(traj)
        doc["times"] = doc["times"][:-1]
        with pytest.raises(SerializationError):
            trajectory_from_json(doc)

    def test_decoded_states_keep_their_bytes(self):
        rho = projector(PureState.basis_state(3, 1))
        for start in (PureState.from_vector([1.0, 1j, -0.5]), rho):
            traj = sample_trajectory(np.diag([1.0, 0.3, -2.0]), start, np.linspace(0, 2, 9))
            back = trajectory_from_json(json.loads(json.dumps(trajectory_to_json(traj))))
            assert bit_equal(back.samples, traj.samples)
            assert [s.tobytes() for s in _arrays(back)] == [s.tobytes() for s in _arrays(traj)]

    def test_names_the_denormalized_sample(self):
        traj = sample_trajectory(SIGMA_Y, PureState.basis_state(2, 0), np.linspace(0, 1, 6))
        doc = trajectory_to_json(traj)
        doc["states"][4] = [[0.75, 0.0], [0.0, 0.0]]
        with pytest.raises(SerializationError, match=r"^sample 4: state norm 0\.75 "):
            trajectory_from_json(doc)

    def test_names_the_nonhermitian_sample(self):
        rho = projector(PureState.basis_state(2, 0))
        traj = sample_trajectory(SIGMA_Y, rho, np.linspace(0, 1, 5))
        doc = trajectory_to_json(traj)
        doc["states"][3] = [[[0.5, 0.0], [0.25, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]
        with pytest.raises(
            SerializationError, match=r"^sample 3: density matrix is not Hermitian: .* = 0\.35"
        ):
            trajectory_from_json(doc)

    def test_sampleless_document_decodes_empty(self):
        doc = {"times": [], "states": [], "kind": "density", "n": 3}
        assert trajectory_from_json(doc).kind == "empty"

    def test_empty_trajectory_does_not_encode(self):
        # It has no dimension, so any document written for it would be
        # rejected on load.
        with pytest.raises(SerializationError):
            trajectory_to_json(Trajectory(np.array([]), (), None))

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda d: d.__setitem__("states", None),
            lambda d: d.__setitem__("units", 1.0),
            lambda d: d["units"].__setitem__("hbar", 0.0),
            lambda d: d.__setitem__("n", True),
            lambda d: d.__setitem__("times", ["0.0", "1.0"]),
            lambda d: d["states"][0][0].__setitem__(0, [1.0]),
            lambda d: d["states"][0][0].__setitem__(0, ["a", 0.0]),
            lambda d: d["states"][0][0].__setitem__(0, [True, 0.0]),
            lambda d: d["states"][0].pop(),
            lambda d: d["states"][0][0].__setitem__(0, [float("nan"), 0.0]),
        ],
    )
    def test_rejects_malformed_documents(self, mutate):
        # n = 1, so a bool n would match the samples' dimension.
        rho = DensityMatrix(np.eye(1))
        doc = trajectory_to_json(Trajectory(np.array([0.0, 1.0]), (rho, rho), None))
        trajectory_from_json(json.loads(json.dumps(doc)))
        mutate(doc)
        with pytest.raises(SerializationError):
            trajectory_from_json(doc)


BIG = "1" + "0" * 400


@pytest.mark.parametrize(
    "decode, text",
    [
        (matrix_from_json, '{"n": 1, "kind": "hermitian", "rows": [[[%s, 0]]]}' % BIG),
        (state_from_json, '{"n": 1, "amplitudes": [[%s, 0]]}' % BIG),
        (state_from_json, '{"n": 1, "amplitudes": [[1, 0]], "units": {"hbar": %s}}' % BIG),
        (trajectory_from_json, '{"times": [0], "states": [[[%s, 0]]], "kind": "pure", "n": 1}' % BIG),
        (trajectory_from_json, '{"times": [%s], "states": [[[1, 0]]], "kind": "pure", "n": 1}' % BIG),
    ],
    ids=["matrix", "state", "state-hbar", "trajectory-state", "trajectory-time"],
)
def test_oversized_integer_literals_are_rejected(decode, text):
    with pytest.raises(SerializationError):
        decode(json.loads(text))


class TestFiles:
    def test_save_load_roundtrip(self, tmp_path):
        path = str(tmp_path / "doc.json")
        doc = {"a": [1.5, -0.0], "b": "text"}
        save_document(doc, path)
        assert load_document(path) == doc

    def test_save_rejects_nonfinite(self, tmp_path):
        with pytest.raises(ValueError):
            save_document({"x": float("nan")}, str(tmp_path / "bad.json"))

    def test_failed_save_writes_nothing(self, tmp_path):
        doc = {"a": [1.0] * 5000 + [float("nan")]}
        fresh = tmp_path / "fresh.json"
        with pytest.raises(ValueError):
            save_document(doc, str(fresh))
        assert not fresh.exists()
        kept = tmp_path / "kept.json"
        kept.write_text("{}\n")
        with pytest.raises(ValueError):
            save_document(doc, str(kept))
        assert kept.read_text() == "{}\n"

    def test_trajectory_bytes_are_pinned(self, tmp_path):
        # Assembled by hand so the bits do not depend on the BLAS build.
        pure = Trajectory(
            np.array([-1e-300, -0.0, 5e-324, 1e300]),
            (
                PureState([1.0, -0.0]),
                PureState([complex(-0.0, 1.0), complex(5e-324, -1e-300)]),
                PureState([complex(0.6, -0.0), complex(-0.8, 1e-300)]),
                PureState([complex(-1e-300, 5e-324), complex(0.0, -1.0)]),
            ),
            None,
            Units(hbar=0.5),
        )
        tiny = complex(5e-324, -1e-300)
        density = Trajectory(
            np.array([0.0, 0.25]),
            (
                DensityMatrix(np.array([[1.0, tiny], [tiny.conjugate(), complex(-0.0, -0.0)]])),
                DensityMatrix(np.array([[0.5, complex(-0.0, -0.5)], [complex(-0.0, 0.5), 0.5]])),
            ),
            None,
            Units(hbar=1e300),
        )
        expected = [
            b'{"times":[-1e-300,-0.0,5e-324,1e+300],"states":[[[1.0,0.0],[-0.0,0.0]],'
            b'[[-0.0,1.0],[5e-324,-1e-300]],[[0.6,-0.0],[-0.8,1e-300]],'
            b'[[-1e-300,5e-324],[0.0,-1.0]]],"kind":"pure","n":2,"units":{"hbar":0.5}}\n',
            b'{"times":[0.0,0.25],"states":[[[[1.0,0.0],[5e-324,-1e-300]],'
            b'[[5e-324,1e-300],[-0.0,-0.0]]],[[[0.5,0.0],[-0.0,-0.5]],[[-0.0,0.5],[0.5,0.0]]]],'
            b'"kind":"density","n":2,"units":{"hbar":1e+300}}\n',
        ]
        path = tmp_path / "traj.json"
        for traj, want in zip((pure, density), expected):
            save_document(trajectory_to_json(traj), str(path))
            assert path.read_bytes() == want

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(SerializationError):
            load_document(str(tmp_path / "absent.json"))

    def test_load_invalid_syntax(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(SerializationError):
            load_document(str(path))

    def test_load_integer_past_digit_limit(self, tmp_path):
        # The interpreter refuses to parse integers of more than 4300 digits.
        path = tmp_path / "huge.json"
        path.write_text("[1" + "0" * 5000 + "]")
        with pytest.raises(SerializationError):
            load_document(str(path))

    def test_file_digest_oracle(self, tmp_path):
        path = tmp_path / "blob.bin"
        payload = b"interchange"
        path.write_bytes(payload)
        assert file_digest(str(path)) == hashlib.sha256(payload).hexdigest()
