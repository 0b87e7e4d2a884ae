"""The mmap snapshot format: round-trips and corruption handling.

``write_snapshot``/``read_snapshot`` trade the compressed ``.npz`` for
an aligned binary layout read through ``np.memmap``.  Round-trips must
be exact (the arrays ARE the model), ``load_store`` must adopt the
header digests unchanged, and every corruption — foreign magic,
truncated header, tampered JSON, out-of-bounds array records, flipped
payload bytes — must surface as :class:`~repro.errors.ModelError`,
never a raw ``ValueError``/``KeyError``/``OSError``.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.core.snapshot_io import (
    MAGIC,
    SnapshotFile,
    load_model,
    load_store,
    read_snapshot,
    verify_digests,
    write_snapshot,
)
from repro.core.rtf import params_signature
from repro.errors import ModelError


@pytest.fixture(scope="module")
def model(tiny_system):
    return tiny_system.model


@pytest.fixture()
def snapshot_path(tmp_path, model):
    path = tmp_path / "model.snap"
    write_snapshot(path, model)
    return path


class TestRoundTrip:
    @pytest.mark.parametrize("mmap", [True, False])
    def test_load_model_is_exact(self, snapshot_path, model, mmap):
        loaded = load_model(snapshot_path, model.network, mmap=mmap)
        assert loaded.slots == model.slots
        for t in model.slots:
            orig, got = model.slot(t), loaded.slot(t)
            assert np.array_equal(orig.mu, got.mu)
            assert np.array_equal(orig.sigma, got.sigma)
            assert np.array_equal(orig.rho, got.rho)

    def test_mmap_views_are_read_only(self, snapshot_path, model):
        loaded = load_model(snapshot_path, model.network, mmap=True)
        mu = loaded.slot(model.slots[0]).mu
        assert not mu.flags.writeable

    def test_load_store_adopts_header_digests(self, snapshot_path, model):
        store = load_store(snapshot_path, model.network)
        snapshot = store.current()
        assert snapshot.version == 1
        for t in model.slots:
            assert snapshot.digest(t) == params_signature(model.slot(t))

    def test_loaded_store_propagates_like_the_original(
        self, snapshot_path, tiny_system, model
    ):
        slot = model.slots[0]
        observed = {0: 30.0, 5: 42.0}
        store = load_store(snapshot_path, model.network)
        from repro.core.gsp import GSPEngine

        loaded = GSPEngine(model.network).propagate(
            store.current().slot(slot), observed
        )
        original = GSPEngine(model.network).propagate(model.slot(slot), observed)
        assert np.array_equal(loaded.speeds, original.speeds)

    def test_without_propagation_arrays(self, tmp_path, model):
        path = tmp_path / "lean.snap"
        write_snapshot(path, model, include_propagation=False)
        snapshot = read_snapshot(path, model.network)
        assert not snapshot.has_propagation
        with pytest.raises(ModelError, match="propagation"):
            snapshot.propagation_arrays(model.slots[0])
        # load_store still works — it just derives lazily later.
        store = load_store(path, model.network)
        assert store.version == 1

    def test_verify_digests_passes_on_clean_file(self, snapshot_path, model):
        verify_digests(read_snapshot(snapshot_path, model.network))


class TestFaultInjection:
    def test_foreign_magic_rejected(self, snapshot_path, model):
        data = snapshot_path.read_bytes()
        snapshot_path.write_bytes(b"NOTSNAP!" + data[len(MAGIC):])
        with pytest.raises(ModelError, match="magic"):
            read_snapshot(snapshot_path, model.network)

    def test_truncated_before_header_length(self, snapshot_path, model):
        snapshot_path.write_bytes(snapshot_path.read_bytes()[: len(MAGIC) + 3])
        with pytest.raises(ModelError, match="truncated"):
            read_snapshot(snapshot_path, model.network)

    def test_header_length_beyond_file_rejected(self, snapshot_path, model):
        data = bytearray(snapshot_path.read_bytes())
        data[len(MAGIC): len(MAGIC) + 8] = np.uint64(2**40).tobytes()
        snapshot_path.write_bytes(bytes(data))
        with pytest.raises(ModelError, match="header length"):
            read_snapshot(snapshot_path, model.network)

    def test_garbled_header_json_rejected(self, snapshot_path, model):
        data = bytearray(snapshot_path.read_bytes())
        data[len(MAGIC) + 8: len(MAGIC) + 24] = b"\xff" * 16
        snapshot_path.write_bytes(bytes(data))
        with pytest.raises(ModelError, match="header"):
            read_snapshot(snapshot_path, model.network)

    def test_truncated_payload_rejected(self, snapshot_path, model):
        # Cutting the file mid-payload leaves array records pointing
        # outside the file — caught at open, not at first array access.
        data = snapshot_path.read_bytes()
        snapshot_path.write_bytes(data[: len(data) // 2])
        with pytest.raises(ModelError, match="outside"):
            SnapshotFile(snapshot_path)

    def test_network_mismatch_rejected(self, snapshot_path):
        other = repro.line_network(9)
        with pytest.raises(ModelError, match="different network"):
            read_snapshot(snapshot_path, other)

    def test_tampered_payload_fails_digest_verification(self, tmp_path, model):
        path = tmp_path / "tampered.snap"
        # Parameter arrays only: the final bytes belong to a
        # digest-covered array, so the flip must be detected.
        write_snapshot(path, model, include_propagation=False)
        data = bytearray(path.read_bytes())
        data[-8:] = b"\x00" * 8
        path.write_bytes(bytes(data))
        snapshot = read_snapshot(path, model.network)
        with pytest.raises(ModelError, match="digest"):
            verify_digests(snapshot)

    def test_flipped_propagation_array_fails_verification(self, tmp_path, model):
        path = tmp_path / "arrays.snap"
        write_snapshot(path, model, include_propagation=True)
        slot = model.slots[0]
        record = read_snapshot(path, model.network).header["arrays"][
            f"edge_precision_{slot}"
        ]
        data = bytearray(path.read_bytes())
        offset = int(record["offset"])
        value = np.frombuffer(bytes(data[offset : offset + 8]), dtype="<f8")[0]
        data[offset : offset + 8] = np.array([value * 2.0], dtype="<f8").tobytes()
        path.write_bytes(bytes(data))
        snapshot = read_snapshot(path, model.network)
        # μ/σ/ρ still hash to their digests: only the arrays are wrong.
        assert params_signature(snapshot.slot_params(slot)) == snapshot.digests[slot]
        with pytest.raises(ModelError, match=f"slot {slot} array 'edge_precision'"):
            verify_digests(snapshot)

    def test_arrays_unverifiable_without_a_network(self, snapshot_path):
        with pytest.raises(ModelError, match="read_snapshot"):
            verify_digests(SnapshotFile(snapshot_path))

    def test_unwritable_destination_rejected(self, tmp_path, model):
        with pytest.raises(ModelError, match="cannot write"):
            write_snapshot(tmp_path / "no" / "such" / "dir" / "m.snap", model)

    def test_missing_file_rejected(self, tmp_path, model):
        with pytest.raises(ModelError, match="cannot read"):
            read_snapshot(tmp_path / "absent.snap", model.network)
