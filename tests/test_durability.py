"""The durable chunk store: framing, commit protocol, salvage, FaultyIO.

The crash-point *campaigns* (kill at every boundary, resume, compare
digests) live in ``tests/test_torture.py`` and the ``repro torture`` CLI;
this file pins down the layer-by-layer contracts those campaigns build
on: record framing and CRC checks, the atomic tmp-write/fsync/rename
commit, salvage keeping exactly the longest valid committed prefix, and
the fault-injection I/O layer behaving as documented.
"""

import errno
import json
import os

import numpy as np
import pytest

from repro.analysis import ActScenario
from repro.core.errors import CheckpointError, RunInterrupted
from repro.robustness import (
    CountingCancelToken,
    RobustnessWarning,
    load_store_state,
    run_monte_carlo_chunked,
)
from repro.robustness.durability import (
    CP_ATOMIC_RENAME,
    CP_ATOMIC_TMP_FSYNC,
    CP_ATOMIC_TMP_WRITE,
    CP_CHUNK_FSYNC,
    CP_CHUNK_WRITE,
    CP_COMMITTED,
    CRASH_POINTS,
    DurableChunkStore,
    atomic_write_json,
)
from repro.robustness.faultinject import (
    IO_FAULT_CRASH,
    IO_FAULT_DROP_FSYNC,
    IO_FAULT_EIO,
    IO_FAULT_ENOSPC,
    IO_FAULT_TORN,
    CrashPoint,
    FaultyIO,
    IOFault,
)

BASE = ActScenario()


def _arrays(start, stop, offset=0.0):
    rows = np.arange(start, stop, dtype=np.float64) + offset
    return {"total": rows, "embodied": rows * 2.0}


def _fresh_store(path, chunks=3, rows_per_chunk=4):
    """A committed store with ``chunks`` appended records."""
    store = DurableChunkStore(str(path), kind="unit", fingerprint="fp-1")
    store.create({"completed": 0})
    for index in range(chunks):
        start = index * rows_per_chunk
        store.append(start, start + rows_per_chunk, _arrays(start, start + rows_per_chunk))
    store.commit({"completed": chunks * rows_per_chunk})
    store.close()
    return chunks * rows_per_chunk


class TestAtomicWrite:
    def test_round_trip_and_no_temp_residue(self, tmp_path):
        path = tmp_path / "payload.json"
        atomic_write_json(path, {"benchmark": "engine", "value": 7})
        assert json.loads(path.read_text()) == {"benchmark": "engine", "value": 7}
        assert not os.path.exists(f"{path}.tmp")

    def test_crash_at_every_point_leaves_old_or_new(self, tmp_path):
        path = tmp_path / "payload.json"
        atomic_write_json(path, {"version": 1})
        for point in (CP_ATOMIC_TMP_WRITE, CP_ATOMIC_TMP_FSYNC, CP_ATOMIC_RENAME):
            for occurrence in (1, 2):
                io = FaultyIO([IOFault(IO_FAULT_CRASH, point, occurrence=occurrence)])
                try:
                    atomic_write_json(path, {"version": 2}, io=io)
                except CrashPoint:
                    pass
                # Whatever instant the crash hit, the file parses and is
                # one of the two complete payloads — never a mixture.
                payload = json.loads(path.read_text())
                assert payload in ({"version": 1}, {"version": 2})
                atomic_write_json(path, {"version": 1})

    def test_crash_point_registry_names_are_described(self):
        assert len(CRASH_POINTS) >= 15
        for name, description in CRASH_POINTS.items():
            assert name and description


class TestChunkStoreRoundTrip:
    def test_replay_restores_committed_rows(self, tmp_path):
        path = tmp_path / "store.log"
        total = _fresh_store(path)
        state = load_store_state(path)
        assert state.meta["completed"] == total
        assert not state.report.lossy
        series = {
            "total": np.zeros(total),
            "embodied": np.zeros(total),
        }
        covered = state.replay(series)
        assert covered == total
        np.testing.assert_array_equal(series["total"], np.arange(total, dtype=np.float64))
        np.testing.assert_array_equal(series["embodied"], np.arange(total) * 2.0)

    def test_later_records_overwrite_earlier_rows(self, tmp_path):
        path = tmp_path / "store.log"
        store = DurableChunkStore(str(path), kind="unit", fingerprint="fp-1")
        store.create({})
        store.append(0, 4, _arrays(0, 4))
        store.append(0, 4, _arrays(0, 4, offset=100.0))  # quarantine heal
        store.commit({"completed": 4})
        store.close()
        state = load_store_state(path)
        series = {"total": np.zeros(4), "embodied": np.zeros(4)}
        state.replay(series)
        np.testing.assert_array_equal(series["total"], np.arange(4) + 100.0)

    def test_append_without_open_raises(self, tmp_path):
        store = DurableChunkStore(
            str(tmp_path / "s.log"), kind="unit", fingerprint="fp"
        )
        with pytest.raises(CheckpointError) as excinfo:
            store.append(0, 4, _arrays(0, 4))
        assert excinfo.value.reason == "corrupt"

    def test_uncommitted_appends_are_invisible(self, tmp_path):
        path = tmp_path / "store.log"
        store = DurableChunkStore(str(path), kind="unit", fingerprint="fp-1")
        store.create({"completed": 0})
        store.append(0, 4, _arrays(0, 4))  # write-ahead, never committed
        store.close()
        state = load_store_state(path)
        assert len(state.chunks) == 0
        assert state.report.uncommitted_bytes > 0
        assert not state.report.chunks_quarantined

    def test_missing_log_raises_missing(self, tmp_path):
        with pytest.raises(CheckpointError) as excinfo:
            load_store_state(tmp_path / "absent.log")
        assert excinfo.value.reason == "missing"


class TestSalvage:
    def test_corruption_keeps_longest_valid_prefix(self, tmp_path):
        path = tmp_path / "store.log"
        _fresh_store(path, chunks=3)
        clean = load_store_state(path)
        second_start = len(path.read_bytes()) // 3  # somewhere in record 1
        data = bytearray(path.read_bytes())
        # Flip a byte inside the second record's span, not the first's.
        boundary = _record_end(data, 1)
        data[boundary + 20] ^= 0xFF
        path.write_bytes(bytes(data))
        del second_start
        state = load_store_state(path)
        report = state.report
        assert report.lossy
        assert len(state.chunks) == 1
        assert state.chunks[0].start == clean.chunks[0].start
        np.testing.assert_array_equal(
            state.chunks[0].arrays["total"], clean.chunks[0].arrays["total"]
        )
        # Records 1 and 2 were committed and are now lost: quarantined.
        assert set(report.chunks_quarantined) >= {1, 2}
        assert report.committed_rows == 4
        assert "quarantined" in report.summary()

    def test_torn_committed_tail_is_reported(self, tmp_path):
        path = tmp_path / "store.log"
        _fresh_store(path, chunks=2)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - 10])  # tear the last record
        state = load_store_state(path)
        assert state.report.torn_bytes > 0
        assert state.report.lossy
        assert len(state.chunks) == 1

    def test_damaged_manifest_falls_back_to_log_scan(self, tmp_path):
        path = tmp_path / "store.log"
        _fresh_store(path, chunks=2)
        manifest = tmp_path / "store.log.manifest"
        manifest.write_bytes(b"{definitely not json")
        state = load_store_state(path)
        assert state.meta is None
        assert not state.report.manifest_ok
        assert len(state.chunks) == 2  # the records themselves are fine

    def test_open_resume_trims_and_extends_cleanly(self, tmp_path):
        path = tmp_path / "store.log"
        _fresh_store(path, chunks=2, rows_per_chunk=4)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - 10])  # torn committed tail
        state = load_store_state(path)
        assert len(state.chunks) == 1
        store = DurableChunkStore(str(path), kind="unit", fingerprint="fp-1")
        store.open_resume(state)
        store.append(4, 8, _arrays(4, 8))
        store.commit({"completed": 8})
        store.close()
        healed = load_store_state(path)
        assert not healed.report.lossy
        assert len(healed.chunks) == 2
        series = {"total": np.zeros(8), "embodied": np.zeros(8)}
        assert healed.replay(series) == 8
        np.testing.assert_array_equal(series["total"], np.arange(8, dtype=np.float64))


def _record_end(data: bytes, keep: int) -> int:
    """Byte offset one past the first ``keep`` records (test-local walk)."""
    offset = 0
    for _ in range(keep):
        header_len = int.from_bytes(data[offset + 4 : offset + 8], "little")
        header_end = offset + 8 + header_len
        payload_len = int.from_bytes(data[header_end : header_end + 8], "little")
        offset = header_end + 8 + payload_len + 4
    return offset


class TestFaultyIO:
    def test_recorder_traces_crash_points(self, tmp_path):
        io = FaultyIO()
        store = DurableChunkStore(
            str(tmp_path / "s.log"), kind="unit", fingerprint="fp", io=io
        )
        store.create({})
        store.append(0, 4, _arrays(0, 4))
        store.commit({"completed": 4})
        store.close()
        assert io.points_reached[CP_CHUNK_WRITE] >= 1
        assert io.points_reached[CP_COMMITTED] == 2  # create + commit
        assert io.trace.count(CP_CHUNK_FSYNC) == 1

    def test_crash_is_a_base_exception(self, tmp_path):
        io = FaultyIO([IOFault(IO_FAULT_CRASH, CP_CHUNK_WRITE)])
        store = DurableChunkStore(
            str(tmp_path / "s.log"), kind="unit", fingerprint="fp", io=io
        )
        store.create({})
        with pytest.raises(CrashPoint) as excinfo:
            store.append(0, 4, _arrays(0, 4))
        assert not isinstance(excinfo.value, Exception)
        assert excinfo.value.point == CP_CHUNK_WRITE

    @pytest.mark.parametrize(
        "kind,expected_errno",
        [(IO_FAULT_ENOSPC, errno.ENOSPC), (IO_FAULT_EIO, errno.EIO)],
    )
    def test_error_faults_carry_their_errno(self, tmp_path, kind, expected_errno):
        io = FaultyIO([IOFault(kind, CP_CHUNK_FSYNC)])
        store = DurableChunkStore(
            str(tmp_path / "s.log"), kind="unit", fingerprint="fp", io=io
        )
        store.create({})
        with pytest.raises(OSError) as excinfo:
            store.append(0, 4, _arrays(0, 4))
        assert excinfo.value.errno == expected_errno

    def test_torn_write_keeps_only_the_prefix(self, tmp_path):
        path = tmp_path / "s.log"
        io = FaultyIO(
            [IOFault(IO_FAULT_TORN, CP_CHUNK_WRITE, occurrence=1, tear_bytes=7)]
        )
        store = DurableChunkStore(
            str(path), kind="unit", fingerprint="fp", io=io
        )
        store.create({})
        with pytest.raises(CrashPoint):
            store.append(0, 4, _arrays(0, 4))
        # Only the 7-byte prefix of the record's first piece survived.
        assert len(path.read_bytes()) == 7
        state = load_store_state(path)
        assert len(state.chunks) == 0  # the tear never framed a record

    def test_dropped_fsync_plus_crash_loses_the_lied_about_bytes(self, tmp_path):
        path = tmp_path / "s.log"
        io = FaultyIO(
            [
                IOFault(IO_FAULT_DROP_FSYNC, CP_CHUNK_FSYNC, occurrence=1),
                IOFault(IO_FAULT_CRASH, CP_COMMITTED, occurrence=2),
            ]
        )
        store = DurableChunkStore(
            str(path), kind="unit", fingerprint="fp", io=io
        )
        store.create({})
        with pytest.raises(CrashPoint):
            store.append(0, 4, _arrays(0, 4))
            store.commit({"completed": 4})
        # The fsync lied, the power cut took the chunk bytes with it.
        assert len(path.read_bytes()) == 0
        state = load_store_state(path)
        assert len(state.chunks) == 0


class TestCheckpointIntegration:
    def _interrupted(self, path, **overrides):
        kwargs = dict(
            draws=512, seed=5, chunk_rows=64, checkpoint=path,
            cancel=CountingCancelToken(stop_after_checks=3),
        )
        kwargs.update(overrides)
        with pytest.raises(RunInterrupted):
            run_monte_carlo_chunked(BASE, **kwargs)

    def test_corrupt_resume_error_carries_salvage_summary(self, tmp_path):
        path = tmp_path / "mc.ckpt"
        path.write_bytes(b"\x00" * 64)  # unframeable garbage, no manifest
        with pytest.raises(CheckpointError) as excinfo:
            run_monte_carlo_chunked(
                BASE, draws=128, checkpoint=path, resume=True
            )
        error = excinfo.value
        assert error.reason == "corrupt"
        assert error.salvage
        assert "salvage" in str(error)

    def test_fingerprint_folds_sharded_chunk_rows(self, tmp_path):
        # Under a resolved policy the chunk is the sampling unit, so a
        # different chunk_rows is a different run: resume must refuse.
        path = tmp_path / "mc.ckpt"
        self._interrupted(path, policy=1)
        with pytest.raises(CheckpointError) as excinfo:
            run_monte_carlo_chunked(
                BASE, draws=512, seed=5, chunk_rows=32,
                checkpoint=path, resume=True, policy=1,
            )
        assert excinfo.value.reason == "mismatch"

    def test_salvaged_resume_warns_and_matches_bitwise(self, tmp_path):
        path = tmp_path / "mc.ckpt"
        uninterrupted = run_monte_carlo_chunked(
            BASE, draws=512, seed=5, chunk_rows=64
        )
        self._interrupted(path)
        data = bytearray(path.read_bytes())
        data[_record_end(data, 1) + 24] ^= 0xFF  # corrupt the 2nd record
        path.write_bytes(bytes(data))
        with pytest.warns(RobustnessWarning, match="quarantined"):
            resumed = run_monte_carlo_chunked(
                BASE, draws=512, seed=5, chunk_rows=64,
                checkpoint=path, resume=True,
            )
        np.testing.assert_array_equal(uninterrupted.samples, resumed.samples)

