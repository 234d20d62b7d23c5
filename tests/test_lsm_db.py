"""Integration tests for the LSM engine over the in-memory env, including
a model-based property test against a plain dict."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ReproError
from repro.lsm import DB, DBConfig, MemEnv
from repro.sim import Simulator


def make_db(manifest_required=True, **config_overrides):
    sim = Simulator()
    env = MemEnv(sim, read_latency=1e-6, write_latency=1e-6,
                 manifest_required=manifest_required)
    defaults = dict(block_size=1024, write_buffer_bytes=16 * 1024,
                    sstable_data_bytes=16 * 1024)
    defaults.update(config_overrides)
    return sim, env, DB(env, DBConfig(**defaults), sim)


def key(i):
    return f"{i:012d}".encode()


class TestBasicOperations:
    def test_put_get(self):
        __, __e, db = make_db()
        db.put(b"alpha", b"1")
        assert db.get(b"alpha") == b"1"
        assert db.get(b"beta") is None

    def test_overwrite(self):
        __, __e, db = make_db()
        db.put(b"k", b"old")
        db.put(b"k", b"new")
        assert db.get(b"k") == b"new"

    def test_delete(self):
        __, __e, db = make_db()
        db.put(b"k", b"v")
        db.delete(b"k")
        assert db.get(b"k") is None

    def test_empty_key_rejected(self):
        # Once flushed, an empty key would read as block padding and
        # hide every entry after it in its block.
        __, __e, db = make_db()
        db.put(b"a", b"1")
        with pytest.raises(ReproError, match="DB.put: key must not be empty"):
            db.put(b"", b"x")
        with pytest.raises(ReproError,
                           match="DB.delete: key must not be empty"):
            db.delete(b"")
        db.flush()
        db.wait_idle()
        assert db.get(b"a") == b"1"
        assert db.stats.puts == 1 and db.stats.deletes == 0

    def test_get_after_flush(self):
        __, __e, db = make_db()
        for i in range(100):
            db.put(key(i), str(i).encode())
        db.flush()
        db.wait_idle()
        assert db.level_sizes()[0] >= 1 or sum(db.level_sizes()) >= 1
        for i in range(100):
            assert db.get(key(i)) == str(i).encode()

    def test_delete_shadows_flushed_value(self):
        __, __e, db = make_db()
        db.put(b"k", b"v")
        db.flush()
        db.wait_idle()
        db.delete(b"k")
        assert db.get(b"k") is None
        db.flush()
        db.wait_idle()
        assert db.get(b"k") is None

    def test_overwrite_across_levels(self):
        """The newest version must win regardless of where it lives."""
        __, __e, db = make_db()
        for round_ in range(5):
            for i in range(60):
                db.put(key(i), f"{round_}-{i}".encode())
            db.flush()
            db.wait_idle()
        for i in range(60):
            assert db.get(key(i)) == f"4-{i}".encode()


class TestCompaction:
    def test_compaction_triggers_and_reduces_l0(self):
        sim, __, db = make_db(l0_compaction_trigger=3)
        for round_ in range(6):
            for i in range(60):
                db.put(key(i), bytes([round_]) * 16)
            db.flush()
        db.wait_idle()
        assert db.stats.compactions >= 1
        assert len(db.levels[0]) < 3

    def test_three_levels_emerge_under_load(self):
        """The paper's fill leaves L0, L1, L2 populated."""
        sim, __, db = make_db(l0_compaction_trigger=2,
                              level_size_multiplier=2)
        for round_ in range(25):
            for i in range(200):
                db.put(key((round_ * 200 + i) * 7 % 4000),
                       bytes([round_]) * 64)
            db.flush()
        db.wait_idle()
        populated = [bool(tables) for tables in db.levels]
        assert sum(populated) >= 3

    def test_compaction_preserves_all_data(self):
        sim, __, db = make_db(l0_compaction_trigger=2)
        expected = {}
        for round_ in range(8):
            for i in range(80):
                value = f"{round_}:{i}".encode()
                db.put(key(i), value)
                expected[key(i)] = value
            db.flush()
        db.wait_idle()
        for k, v in expected.items():
            assert db.get(k) == v

    def test_tombstones_dropped_at_bottom(self):
        sim, __, db = make_db(l0_compaction_trigger=2)
        for i in range(60):
            db.put(key(i), b"v")
        db.flush()
        for i in range(60):
            db.delete(key(i))
        db.flush()
        for __r in range(4):
            for i in range(60, 120):
                db.put(key(i), b"w")
            db.flush()
        db.wait_idle()
        assert db.scan() == 60   # only the live keys remain visible
        for i in range(60):
            assert db.get(key(i)) is None


class TestScan:
    def test_scan_returns_sorted_unique(self):
        __, __e, db = make_db()
        seen = []
        for i in range(100):
            db.put(key(i % 40), str(i).encode())
        db.flush()
        db.wait_idle()
        count = db.scan(on_entry=lambda k, __v: seen.append(k))
        assert count == 40
        assert seen == sorted(seen)
        assert len(set(seen)) == 40

    def test_scan_merges_memtable_and_disk(self):
        __, __e, db = make_db()
        db.put(key(1), b"disk")
        db.flush()
        db.wait_idle()
        db.put(key(2), b"mem")
        collected = {}
        db.scan(on_entry=lambda k, v: collected.update({k: v}))
        assert collected == {key(1): b"disk", key(2): b"mem"}

    def test_scan_limit(self):
        __, __e, db = make_db()
        for i in range(50):
            db.put(key(i), b"v")
        assert db.scan(limit=10) == 10


class TestStallsAndRecovery:
    def test_write_stalls_recorded_under_pressure(self):
        sim, env, db = make_db(l0_compaction_trigger=2,
                               l0_slowdown_trigger=2, l0_stop_trigger=3,
                               write_buffer_bytes=4 * 1024)
        for i in range(600):
            db.put(key(i), b"x" * 64)
        db.wait_idle()
        assert db.stats.slowdown_puts > 0 or db.stats.stall_seconds > 0

    def test_reopen_from_manifest(self):
        sim, env, db = make_db()
        for i in range(200):
            db.put(key(i), str(i).encode())
        db.close()
        db2 = DB.open(env, DBConfig(block_size=1024,
                                    write_buffer_bytes=16 * 1024,
                                    sstable_data_bytes=16 * 1024), sim)
        for i in range(200):
            assert db2.get(key(i)) == str(i).encode()

    def test_manifest_governs_visibility(self):
        """A table written but never logged in the MANIFEST is invisible
        after reopen — the POSIX-env behaviour LightLSM does away with."""
        sim, env, db = make_db()
        for i in range(50):
            db.put(key(i), b"v")
        db.close()
        env.manifest.clear()     # simulate a lost MANIFEST
        db2 = DB.open(env, DBConfig(block_size=1024,
                                    write_buffer_bytes=16 * 1024,
                                    sstable_data_bytes=16 * 1024), sim)
        assert db2.get(key(0)) is None

    def test_rate_limiter_slows_background_io(self):
        sim_fast, __, fast = make_db()
        sim_slow, __e, slow = make_db(rate_limit_bytes_per_sec=20 * 1024)
        for db, sim in ((fast, sim_fast), (slow, sim_slow)):
            for i in range(300):
                db.put(key(i), b"x" * 128)
            db.flush()
            db.wait_idle()
        assert slow.limiter.total_wait > 0


@settings(max_examples=20, deadline=None)
@given(st.lists(st.tuples(st.booleans(), st.integers(0, 30),
                          st.binary(min_size=1, max_size=32)),
                min_size=1, max_size=120))
def test_db_matches_dict_model(operations):
    """Model-based property: the DB behaves like a dict under any
    interleaving of puts, deletes and flushes."""
    __, __e, db = make_db(write_buffer_bytes=2 * 1024)
    model = {}
    for is_put, key_index, value in operations:
        k = key(key_index)
        if is_put:
            db.put(k, value)
            model[k] = value
        else:
            db.delete(k)
            model.pop(k, None)
    db.flush()
    db.wait_idle()
    for k, v in model.items():
        assert db.get(k) == v
    for key_index in range(31):
        k = key(key_index)
        if k not in model:
            assert db.get(k) is None
    collected = {}
    db.scan(on_entry=lambda k, v: collected.update({k: v}))
    assert collected == model
