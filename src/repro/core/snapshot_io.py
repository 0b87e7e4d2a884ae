"""mmap-backed snapshot serialization for near zero-copy cold starts.

:meth:`~repro.core.rtf.RTFModel.save` writes a compressed ``.npz``:
compact on disk, but a cold start pays decompression plus a full copy of
every array — and :class:`~repro.core.store.ModelStore` then pays a
second full pass hashing each slot into its digest.  This module trades
disk compactness for load latency with an aligned binary layout read
through ``np.memmap``:

* a JSON header carries the format tag, the network fingerprint, the
  slot list, per-slot parameter digests, and one ``{dtype, shape,
  offset, nbytes}`` record per array;
* every array blob starts on a 64-byte boundary, so a memory-mapped
  view is cache-line (and SIMD-lane) aligned and pages in lazily on
  first touch instead of being copied eagerly;
* the precomputed digests let :func:`load_store` skip the SHA-1 pass
  over the parameter arrays, and the persisted propagation arrays are
  seeded straight into the store's artifact cache, where each slot's GSP
  structure is compiled from them.

File layout::

    magic "RPSNAP01" | uint64-LE header length | JSON header | pad to 64
    | array blob | pad to 64 | array blob | ...

All failures surface as :class:`~repro.errors.ModelError` — a truncated
file, a foreign magic, a tampered header, or a fingerprint from a
different network never escapes as a raw ``ValueError``/``KeyError``.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Dict, Optional, Tuple, Union

import numpy as np

from repro.core.rtf import RTFModel, RTFSlot, network_fingerprint, params_signature
from repro.core.store import ModelStore
from repro.errors import ModelError
from repro.network.graph import TrafficNetwork
from repro.obs import DEFAULT_TIME_BUCKETS, get_metrics

#: First 8 bytes of every snapshot file.
MAGIC = b"RPSNAP01"

#: ``format`` field of the JSON header.
FORMAT = "repro.snapshot/v1"

#: Array blobs start on multiples of this (cache line / SIMD lane).
ALIGNMENT = 64

#: Per-slot parameter arrays, persisted in this order.
_PARAM_ARRAYS = ("mu", "sigma", "rho")

#: Per-slot derived propagation arrays (optional section), in the order
#: :meth:`repro.core.rtf.RTFSlot.propagation_arrays` returns them.
_PROPAGATION_ARRAYS = ("prior_precision", "prior_pull", "edge_precision", "edge_mu")


def _align(offset: int) -> int:
    return (offset + ALIGNMENT - 1) // ALIGNMENT * ALIGNMENT


def _array_key(name: str, slot: int) -> str:
    return f"{name}_{slot}"


def write_snapshot(
    path: Union[str, Path],
    model: RTFModel,
    *,
    include_propagation: bool = True,
) -> None:
    """Write a model as an aligned, mmap-loadable snapshot file.

    Args:
        path: Destination file (overwritten).
        model: The fitted parameters to persist.
        include_propagation: Also persist each slot's derived GSP
            precision arrays so :func:`load_store` can seed the
            artifact cache without re-deriving them.

    Raises:
        ModelError: When the destination cannot be written.
    """
    network = model.network
    arrays: Dict[str, np.ndarray] = {}
    digests: Dict[str, str] = {}
    for t in model.slots:
        params = model.slot(t)
        digests[str(t)] = params_signature(params).hex()
        arrays[_array_key("mu", t)] = np.ascontiguousarray(params.mu, dtype=np.float64)
        arrays[_array_key("sigma", t)] = np.ascontiguousarray(
            params.sigma, dtype=np.float64
        )
        arrays[_array_key("rho", t)] = np.ascontiguousarray(params.rho, dtype=np.float64)
        if include_propagation:
            for name, arr in zip(_PROPAGATION_ARRAYS, params.propagation_arrays(network)):
                arrays[_array_key(name, t)] = np.ascontiguousarray(
                    arr, dtype=np.float64
                )

    header: Dict[str, object] = {
        "format": FORMAT,
        "network_fingerprint": network_fingerprint(network).tobytes().hex(),
        "slots": [int(t) for t in model.slots],
        "digests": digests,
        "propagation": bool(include_propagation),
        "arrays": {},
    }
    # Two-pass offset assignment: header length shifts the data region,
    # and the header embeds absolute offsets, so sizes must settle first.
    # JSON lengths are stable here because the offsets only grow when the
    # header does, and the second pass starts from the first pass's size.
    records: Dict[str, Dict[str, object]] = {}
    header_blob = b""
    for _ in range(8):
        offset = _align(len(MAGIC) + 8 + len(header_blob))
        records = {}
        for key, arr in arrays.items():
            offset = _align(offset)
            records[key] = {
                "dtype": arr.dtype.str,
                "shape": list(arr.shape),
                "offset": offset,
                "nbytes": arr.nbytes,
            }
            offset += arr.nbytes
        header["arrays"] = records
        trial = json.dumps(header, sort_keys=True).encode("utf-8")
        if len(trial) == len(header_blob):
            header_blob = trial
            break
        header_blob = trial
    else:  # pragma: no cover - offsets converge in two passes in practice
        raise ModelError("snapshot header layout did not converge")

    try:
        with open(Path(path), "wb") as fh:
            fh.write(MAGIC)
            fh.write(np.uint64(len(header_blob)).tobytes())
            fh.write(header_blob)
            position = len(MAGIC) + 8 + len(header_blob)
            for key, arr in arrays.items():
                target = int(records[key]["offset"])  # type: ignore[arg-type]
                fh.write(b"\0" * (target - position))
                fh.write(arr.tobytes())
                position = target + arr.nbytes
    except OSError as exc:
        raise ModelError(f"cannot write snapshot {path}: {exc}") from exc
    metrics = get_metrics()
    if metrics.enabled:
        metrics.counter("store.snapshot_io.writes").inc()


def _read_header(path: Path) -> Tuple[Dict[str, object], int]:
    """Parse and validate the header; returns ``(header, file size)``."""
    try:
        size = path.stat().st_size
        with open(path, "rb") as fh:
            magic = fh.read(len(MAGIC))
            if magic != MAGIC:
                raise ModelError(
                    f"{path} is not a repro snapshot (bad magic {magic!r})"
                )
            length_bytes = fh.read(8)
            if len(length_bytes) != 8:
                raise ModelError(f"snapshot {path} is truncated (no header length)")
            header_len = int(np.frombuffer(length_bytes, dtype="<u8")[0])
            if header_len <= 0 or len(MAGIC) + 8 + header_len > size:
                raise ModelError(
                    f"snapshot {path} header length {header_len} exceeds file size"
                )
            header_blob = fh.read(header_len)
    except OSError as exc:
        raise ModelError(f"cannot read snapshot {path}: {exc}") from exc
    try:
        header = json.loads(header_blob.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ModelError(f"snapshot {path} has a corrupted header: {exc}") from exc
    if not isinstance(header, dict) or header.get("format") != FORMAT:
        raise ModelError(
            f"snapshot {path} has format {header.get('format')!r}, "
            f"expected {FORMAT!r}"
        )
    return header, size


def _validate_record(
    path: Path, key: str, record: object, size: int
) -> Tuple[np.dtype, Tuple[int, ...], int, int]:
    if not isinstance(record, dict):
        raise ModelError(f"snapshot {path}: array record {key!r} is not an object")
    try:
        dtype = np.dtype(record["dtype"])
        shape = tuple(int(d) for d in record["shape"])
        offset = int(record["offset"])
        nbytes = int(record["nbytes"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelError(
            f"snapshot {path}: malformed array record {key!r}: {exc}"
        ) from exc
    expected = dtype.itemsize * int(np.prod(shape, dtype=np.int64)) if shape else 0
    if nbytes != expected or any(d < 0 for d in shape):
        raise ModelError(
            f"snapshot {path}: array {key!r} claims {nbytes} bytes for "
            f"shape {shape} of {dtype}"
        )
    if offset < 0 or offset % ALIGNMENT != 0 or offset + nbytes > size:
        raise ModelError(
            f"snapshot {path}: array {key!r} at offset {offset} "
            f"(+{nbytes} bytes) falls outside the {size}-byte file"
        )
    return dtype, shape, offset, nbytes


class SnapshotFile:
    """Parsed view of one snapshot file (header + lazy array access)."""

    def __init__(self, path: Union[str, Path], *, mmap: bool = True) -> None:
        self.path = Path(path)
        self.header, self._size = _read_header(self.path)
        slots = self.header.get("slots")
        digests = self.header.get("digests")
        records = self.header.get("arrays")
        if (
            not isinstance(slots, list)
            or not isinstance(digests, dict)
            or not isinstance(records, dict)
        ):
            raise ModelError(f"snapshot {self.path} has a corrupted header")
        try:
            self.slots: Tuple[int, ...] = tuple(int(t) for t in slots)
            self.digests: Dict[int, bytes] = {
                int(t): bytes.fromhex(h) for t, h in digests.items()
            }
        except (TypeError, ValueError) as exc:
            raise ModelError(
                f"snapshot {self.path} has a corrupted header: {exc}"
            ) from exc
        if sorted(self.digests) != sorted(self.slots):
            raise ModelError(
                f"snapshot {self.path}: digest table does not cover the slot list"
            )
        self.has_propagation = bool(self.header.get("propagation"))
        self._records = {
            key: _validate_record(self.path, key, record, self._size)
            for key, record in records.items()
        }
        for t in self.slots:
            names = _PARAM_ARRAYS + (
                _PROPAGATION_ARRAYS if self.has_propagation else ()
            )
            for name in names:
                if _array_key(name, t) not in self._records:
                    raise ModelError(
                        f"snapshot {self.path}: missing array "
                        f"{_array_key(name, t)!r}"
                    )
        self._mmap = mmap
        #: The network :meth:`check_network` accepted (for verify_digests).
        self._network: Optional[TrafficNetwork] = None
        self._buffer: Optional[np.memmap] = None
        if mmap:
            try:
                self._buffer = np.memmap(self.path, dtype=np.uint8, mode="r")
            except (OSError, ValueError) as exc:
                raise ModelError(
                    f"cannot memory-map snapshot {self.path}: {exc}"
                ) from exc

    def check_network(self, network: TrafficNetwork) -> None:
        """Reject a file written for a different road graph.

        Raises:
            ModelError: On a fingerprint mismatch.
        """
        stored = self.header.get("network_fingerprint")
        expected = network_fingerprint(network).tobytes().hex()
        if stored != expected:
            raise ModelError(
                f"snapshot {self.path} was saved for a different network "
                f"(fingerprint mismatch: expected {network.n_roads} roads / "
                f"{network.n_edges} edges)"
            )
        self._network = network

    def array(self, name: str, slot: int) -> np.ndarray:
        """One persisted array — a read-only mmap view when enabled.

        Raises:
            ModelError: When the array is not in the file.
        """
        key = _array_key(name, slot)
        record = self._records.get(key)
        if record is None:
            raise ModelError(f"snapshot {self.path}: missing array {key!r}")
        dtype, shape, offset, nbytes = record
        if self._buffer is not None:
            view = self._buffer[offset : offset + nbytes].view(dtype).reshape(shape)
            return view
        try:
            with open(self.path, "rb") as fh:
                fh.seek(offset)
                data = fh.read(nbytes)
        except OSError as exc:
            raise ModelError(f"cannot read snapshot {self.path}: {exc}") from exc
        if len(data) != nbytes:
            raise ModelError(f"snapshot {self.path} is truncated at array {key!r}")
        arr = np.frombuffer(data, dtype=dtype).reshape(shape)
        arr.setflags(write=False)
        return arr

    def slot_params(self, slot: int) -> RTFSlot:
        """One slot's parameters backed by the file's arrays."""
        return RTFSlot(
            slot=slot,
            mu=self.array("mu", slot),
            sigma=self.array("sigma", slot),
            rho=self.array("rho", slot),
        )

    def propagation_arrays(
        self, slot: int
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """One slot's persisted GSP precision arrays.

        Raises:
            ModelError: When the file was written without propagation
                arrays (``include_propagation=False``).
        """
        if not self.has_propagation:
            raise ModelError(
                f"snapshot {self.path} was written without propagation arrays"
            )
        return (
            self.array("prior_precision", slot),
            self.array("prior_pull", slot),
            self.array("edge_precision", slot),
            self.array("edge_mu", slot),
        )


def read_snapshot(
    path: Union[str, Path], network: TrafficNetwork, *, mmap: bool = True
) -> SnapshotFile:
    """Open and validate a snapshot file against a network.

    Raises:
        ModelError: On any corruption or a network mismatch.
    """
    snapshot = SnapshotFile(path, mmap=mmap)
    snapshot.check_network(network)
    return snapshot


def load_model(
    path: Union[str, Path], network: TrafficNetwork, *, mmap: bool = True
) -> RTFModel:
    """Load an :class:`RTFModel` whose arrays view the file directly."""
    snapshot = read_snapshot(path, network, mmap=mmap)
    return RTFModel(network, [snapshot.slot_params(t) for t in snapshot.slots])


def load_store(
    path: Union[str, Path],
    network: TrafficNetwork,
    *,
    mmap: bool = True,
    max_artifacts: int = 512,
) -> ModelStore:
    """Cold-start a :class:`ModelStore` from a snapshot file.

    Three savings over ``RTFModel.load`` + ``ModelStore(...)``:

    * parameter arrays are read-only mmap views (no decompress/copy);
    * the store adopts the file's per-slot digests instead of re-hashing
      every parameter array;
    * persisted propagation arrays are seeded into the artifact cache,
      so each slot's GSP structure is compiled from them instead of
      re-deriving them from μ/σ/ρ (:func:`verify_digests` checks them
      against the parameters).

    Raises:
        ModelError: On any corruption or a network mismatch.
    """
    start = time.perf_counter()
    snapshot = read_snapshot(path, network, mmap=mmap)
    model = RTFModel(network, [snapshot.slot_params(t) for t in snapshot.slots])
    store = ModelStore(model, max_artifacts, digests=dict(snapshot.digests))
    if snapshot.has_propagation:
        for t in snapshot.slots:
            store.seed_propagation(snapshot.digests[t], snapshot.propagation_arrays(t))
    elapsed = time.perf_counter() - start
    metrics = get_metrics()
    if metrics.enabled:
        labels = {"mmap": "true" if mmap else "false"}
        metrics.counter("store.snapshot_io.loads", labels).inc()
        metrics.histogram(
            "store.snapshot_io.load_seconds", DEFAULT_TIME_BUCKETS, labels
        ).observe(elapsed)
    return store


def verify_digests(snapshot: SnapshotFile) -> None:
    """Recompute every slot digest and persisted array; compare.

    :func:`load_store` trusts the header digests and the persisted
    propagation arrays for speed; this is the paranoid full check for
    operators validating a file after transfer.  Each slot's μ/σ/ρ must
    hash to its header digest and, when the file carries propagation
    arrays, those must equal the arrays re-derived from μ/σ/ρ on the
    network the file was opened for (:func:`read_snapshot`).

    Raises:
        ModelError: When any slot's content does not match its digest,
            its propagation arrays do not match its parameters, or the
            file has propagation arrays but was opened without a network.
    """
    network = snapshot._network
    if snapshot.has_propagation and network is None:
        raise ModelError(
            f"snapshot {snapshot.path}: open it with read_snapshot(path, "
            f"network) to verify its propagation arrays"
        )
    for t in snapshot.slots:
        params = snapshot.slot_params(t)
        if params_signature(params) != snapshot.digests[t]:
            raise ModelError(
                f"snapshot {snapshot.path}: slot {t} content does not match "
                f"its header digest (file tampered or corrupted)"
            )
        if snapshot.has_propagation and network is not None:
            derived = params.propagation_arrays(network)
            persisted = snapshot.propagation_arrays(t)
            for name, want, got in zip(_PROPAGATION_ARRAYS, derived, persisted):
                if not np.array_equal(want, got):
                    raise ModelError(
                        f"snapshot {snapshot.path}: slot {t} array {name!r} "
                        f"does not match its parameters (file tampered or "
                        f"corrupted)"
                    )
