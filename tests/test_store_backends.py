"""Cross-backend ``ResultStore`` contract: every backend, one behaviour.

The backends differ in *where* bytes live (one JSONL file, a SQLite
table) — never in what a consumer observes.  These tests pin that: the
parametrised contract class runs every store through the same appends,
sweeps (serial, parallel, chaos-injected), and reads, and asserts
identical stable payloads; migration round-trips between the backends
losslessly; and each backend's crash/race edge cases (torn lines,
duplicate headers, racing header writers) degrade the same way.
"""

import json
import subprocess
import threading

import pytest

from repro.campaigns import (
    CampaignGrid,
    CampaignRecord,
    CampaignRunner,
    CampaignSpec,
    CampaignStore,
    migrate_store,
    open_store,
    sniff_backend,
)
from repro.campaigns.store import (
    BACKEND_NAMES,
    SIDECAR_LEDGER,
    SIDECAR_TELEMETRY,
    SqliteStore,
)
from repro.errors import ReproError
from repro.faults import FaultPlan

#: One store path convention per backend, matching the factory's fresh-path
#: suffix sniffing — opening these with backend=None must pick the backend
#: the test built them with.
_PATHS = {"jsonl": "s.jsonl", "sqlite": "s.sqlite"}


def _make(tmp_path, backend):
    return open_store(tmp_path / _PATHS[backend], backend=backend)


def _stable(records):
    """Canonical comparison form: stable payloads, sorted, as one string."""
    return json.dumps(
        sorted(
            (r.stable_payload() for r in records),
            key=lambda p: p["spec"]["app"] + str(p["spec"])
        ),
        sort_keys=True,
    )


def _full(records):
    """Full payloads (attempt metadata included), keyed by campaign ID."""
    return {r.campaign_id: r.to_payload() for r in records}


@pytest.fixture(scope="module")
def small_grid():
    return CampaignGrid(
        apps=("redis", "gromacs"), seeds=(0, 1), scale="test", eval_runs=10
    )


@pytest.fixture(scope="module")
def serial_records(small_grid):
    return CampaignRunner(jobs=1).run(small_grid.specs()).records


@pytest.mark.parametrize("backend", BACKEND_NAMES)
class TestContract:
    """The observable behaviour every backend must share."""

    def test_round_trip(self, tmp_path, backend, small_grid, serial_records):
        store = _make(tmp_path, backend)
        assert not store.exists()
        store.write_grid(small_grid)
        for record in serial_records:
            store.append(record)
        assert store.exists()
        grid, records = store.load()
        assert grid == small_grid
        assert _full(records) == _full(serial_records)
        assert len(store) == len(serial_records)
        assert store.completed_ids() == {
            r.campaign_id for r in serial_records if r.ok
        }
        found = store.lookup(small_grid.specs())
        assert set(found) == {r.campaign_id for r in serial_records}

    def test_fresh_store_reads_empty(self, tmp_path, backend):
        store = _make(tmp_path, backend)
        assert not store.exists()
        assert store.load() == (None, [])
        assert store.read_grid() is None
        assert store.completed_ids() == set()
        assert store.lookup([CampaignSpec(app="redis", scale="test")]) == {}
        assert len(store) == 0
        # Reading must stay read-only: no store materialises on disk.
        assert not store.exists()

    def test_last_write_wins_per_id(self, tmp_path, backend, serial_records):
        from dataclasses import replace

        store = _make(tmp_path, backend)
        done = serial_records[0]
        failed = replace(done, status="failed", error="boom", evaluation=None,
                         result=None)
        store.append(failed)
        assert store.completed_ids() == set()
        store.append(done)
        assert len(store) == 1
        assert store.records()[0].status == "done"
        assert store.completed_ids() == {done.campaign_id}

    def test_grid_header_keeps_first(self, tmp_path, backend, small_grid):
        store = _make(tmp_path, backend)
        other = CampaignGrid(apps=("lammps",), seeds=(9,), scale="test")
        store.write_grid(small_grid)
        store.write_grid(other)
        assert store.read_grid() == small_grid

    def test_runner_serial_matches_baseline(
        self, tmp_path, backend, small_grid, serial_records
    ):
        store = _make(tmp_path, backend)
        report = CampaignRunner(jobs=1, store=store).run(
            small_grid.specs(), grid=small_grid
        )
        assert _stable(report.records) == _stable(serial_records)
        assert _stable(store.records()) == _stable(serial_records)
        assert store.read_grid() == small_grid

    def test_runner_parallel_matches_baseline(
        self, tmp_path, backend, small_grid, serial_records
    ):
        store = _make(tmp_path, backend)
        report = CampaignRunner(jobs=2, store=store).run(small_grid.specs())
        assert _stable(report.records) == _stable(serial_records)
        assert _stable(store.records()) == _stable(serial_records)

    def test_runner_chaos_matches_baseline(
        self, tmp_path, backend, small_grid, serial_records
    ):
        """Injected transient faults + retries land the same final records."""
        store = _make(tmp_path, backend)
        plan = FaultPlan(rate=1.0, kinds=("transient",), max_faults=3, seed=5)
        report = CampaignRunner(
            jobs=2, store=store, fault_plan=plan, max_retries=4, backoff=0.001
        ).run(small_grid.specs())
        assert report.retries > 0
        assert _stable(report.records) == _stable(serial_records)
        assert _stable(store.records()) == _stable(serial_records)

    def test_resume_skips_done(self, tmp_path, backend, small_grid):
        store = _make(tmp_path, backend)
        specs = list(small_grid.specs())
        CampaignRunner(jobs=1, store=store).run(specs[:2])
        resumed = _make(tmp_path, backend)
        report = CampaignRunner(jobs=1, store=resumed).run(specs)
        assert report.skipped == 2
        assert report.executed == 2
        assert len(resumed) == 4

    def test_open_store_sniffs_existing(self, tmp_path, backend, serial_records):
        store = _make(tmp_path, backend)
        store.append(serial_records[0])
        store.close()
        reopened = open_store(store.path)
        assert reopened.backend == backend
        assert len(reopened) == 1

    def test_torn_final_write_loses_only_the_tail(
        self, tmp_path, backend, serial_records
    ):
        """A crash mid-append must not take committed records with it."""
        store = _make(tmp_path, backend)
        for record in serial_records:
            store.append(record)
        store.close()
        if backend == "jsonl":
            # Cut inside a multi-byte UTF-8 character, the worst tear.
            with open(store.path, "ab") as handle:
                handle.write(b'{"kind": "campaign_record", "status\xc3')
        else:
            return  # SQLite: a torn transaction rolls back; nothing to tear
        fresh = open_store(store.path)
        assert _full(fresh.records()) == _full(serial_records)


class TestMigration:
    def test_round_trip_through_every_backend(
        self, tmp_path, small_grid, serial_records
    ):
        """jsonl -> sqlite -> jsonl, losslessly, header included."""
        origin = _make(tmp_path, "jsonl")
        origin.write_grid(small_grid)
        for record in serial_records:
            origin.append(record)
        chain = [origin]
        for backend, name in (("sqlite", "hop.sqlite"), ("jsonl", "hop.jsonl")):
            destination = open_store(tmp_path / name, backend=backend)
            copied = migrate_store(chain[-1], destination)
            assert copied == len(serial_records)
            chain.append(destination)
        for store in chain[1:]:
            assert store.read_grid() == small_grid
            assert _full(store.records()) == _full(serial_records)

    def test_migrated_jsonl_is_byte_identical(
        self, tmp_path, small_grid, serial_records
    ):
        """jsonl -> sqlite -> jsonl reproduces the original file's bytes."""
        origin = CampaignStore(tmp_path / "a.jsonl")
        origin.write_grid(small_grid)
        for record in serial_records:
            origin.append(record)
        middle = open_store(tmp_path / "b.sqlite", backend="sqlite")
        migrate_store(origin, middle)
        back = CampaignStore(tmp_path / "c.jsonl")
        migrate_store(middle, back)
        assert back.path.read_bytes() == origin.path.read_bytes()

    def test_refuses_missing_source(self, tmp_path):
        with pytest.raises(ReproError, match="no store"):
            migrate_store(
                open_store(tmp_path / "absent.jsonl"),
                open_store(tmp_path / "out.jsonl"),
            )

    def test_refuses_nonempty_destination(self, tmp_path, serial_records):
        source = _make(tmp_path, "jsonl")
        source.append(serial_records[0])
        busy = open_store(tmp_path / "busy.sqlite", backend="sqlite")
        busy.append(serial_records[1])
        with pytest.raises(ReproError, match="not empty"):
            migrate_store(source, busy)

    def test_refuses_self_migration(self, tmp_path, serial_records):
        source = _make(tmp_path, "jsonl")
        source.append(serial_records[0])
        with pytest.raises(ReproError, match="same store"):
            migrate_store(source, open_store(source.path))


class TestSniffing:
    def test_fresh_paths_sniff_by_suffix(self, tmp_path):
        assert sniff_backend(tmp_path / "new.jsonl") == "jsonl"
        assert sniff_backend(tmp_path / "new.txt") == "jsonl"
        assert sniff_backend(tmp_path / "new.d") == "jsonl"
        assert sniff_backend(tmp_path / "new.sqlite") == "sqlite"
        assert sniff_backend(tmp_path / "new.sqlite3") == "sqlite"
        assert sniff_backend(tmp_path / "new.db") == "sqlite"

    def test_existing_content_beats_suffix(self, tmp_path, serial_records):
        """A store renamed across suffix conventions keeps working."""
        store = open_store(tmp_path / "x.sqlite", backend="sqlite")
        store.append(serial_records[0])
        store.close()
        disguised = tmp_path / "x.jsonl"
        store.path.rename(disguised)
        assert sniff_backend(disguised) == "sqlite"
        assert len(open_store(disguised)) == 1

    def test_unknown_backend_rejected(self, tmp_path):
        with pytest.raises(ReproError, match="unknown store backend"):
            open_store(tmp_path / "s.jsonl", backend="parquet")

    def test_sqlite_rejects_garbage_file(self, tmp_path):
        path = tmp_path / "not-a-db.sqlite"
        path.write_bytes(b"SQLite format 3\x00 but then nonsense")
        with pytest.raises(ReproError, match="not a usable SQLite"):
            open_store(path).records()


class TestRemovedShardedLayout:
    def test_directory_converts_with_the_command_the_error_names(
        self, tmp_path, small_grid, serial_records
    ):
        """A directory store of the removed sharded backend is refused with
        one line whose command rebuilds it as an equivalent JSONL store."""
        reference = CampaignStore(tmp_path / "reference.jsonl")
        reference.write_grid(small_grid)
        for record in serial_records:
            reference.append(record)
        header, *lines = reference.path.read_text().splitlines()

        # The on-disk layout that backend wrote: the grid header alone in
        # grid.jsonl, records spread over shard files — every shard here
        # ending in a tail torn inside a multi-byte UTF-8 character.
        old = tmp_path / "sweep.d"
        old.mkdir()
        (old / "meta.json").write_text('{"kind": "sharded_store"}\n')
        (old / "grid.jsonl").write_text(header + "\n")
        for index in range(2):
            shard_lines = "".join(line + "\n" for line in lines[index::2])
            (old / f"shard-{index:02d}.jsonl").write_bytes(
                shard_lines.encode("utf-8") + b'{"kind": "campaign_rec\xc3'
            )

        with pytest.raises(ReproError) as refused:
            open_store(old)
        message = str(refused.value)
        assert "\n" not in message
        assert str(old) in message and "sharded" in message
        command = message.split("with: ", 1)[1]
        assert command.startswith("awk 1 ")
        subprocess.run(command, shell=True, check=True, cwd=tmp_path)

        converted = open_store(tmp_path / "sweep.jsonl")
        assert converted.backend == "jsonl"
        assert converted.read_grid() == small_grid
        assert _full(converted.records()) == _full(serial_records)


class TestEdgeCases:
    def test_file_backends_keep_sibling_sidecars(self, tmp_path):
        store = CampaignStore(tmp_path / "s.jsonl")
        assert store.sidecar_path(SIDECAR_LEDGER).name == "s.jsonl.ledger"
        sq = SqliteStore(tmp_path / "s.sqlite")
        assert sq.sidecar_path(SIDECAR_TELEMETRY).name == "s.sqlite.telemetry"

    @pytest.mark.parametrize("backend", BACKEND_NAMES)
    def test_store_path_without_parent_dir(
        self, tmp_path, backend, serial_records
    ):
        store = open_store(
            tmp_path / "deep" / "nested" / _PATHS[backend], backend=backend
        )
        store.append(serial_records[0])
        assert len(store) == 1

    def test_grid_header_after_record_lines(
        self, tmp_path, small_grid, serial_records
    ):
        """A header appended late (old stores, hand-edits) is still found."""
        store = CampaignStore(tmp_path / "s.jsonl")
        for record in serial_records:
            store.append(record)
        store._append_line(
            {"kind": "campaign_grid", "version": 1, "grid": small_grid.to_dict()}
        )
        assert store.read_grid() == small_grid
        assert CampaignStore(store.path).read_grid() == small_grid

    def test_duplicate_headers_keep_first(self, tmp_path, small_grid):
        store = CampaignStore(tmp_path / "s.jsonl")
        other = CampaignGrid(apps=("lammps",), seeds=(7,), scale="test")
        store._append_line(
            {"kind": "campaign_grid", "version": 1, "grid": small_grid.to_dict()}
        )
        store._append_line(
            {"kind": "campaign_grid", "version": 1, "grid": other.to_dict()}
        )
        assert store.read_grid() == small_grid
        grid, _ = store.load()
        assert grid == small_grid


class TestHeaderRace:
    def test_racing_writers_record_one_header(self, tmp_path, small_grid):
        """N threads race write_grid on a fresh store; exactly one line wins."""
        path = tmp_path / _PATHS["jsonl"]
        barrier = threading.Barrier(8)

        def writer():
            store = open_store(path, backend="jsonl")
            barrier.wait()
            store.write_grid(small_grid)

        threads = [threading.Thread(target=writer) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        lines = [line for line in path.read_text().splitlines() if line.strip()]
        assert len(lines) == 1
        assert open_store(path).read_grid() == small_grid


class TestSnapshotMemoisation:
    def test_repeated_reads_parse_once(self, tmp_path, serial_records):
        store = CampaignStore(tmp_path / "s.jsonl")
        for record in serial_records:
            store.append(record)
        parses = []
        original = CampaignStore._load_uncached

        def counting(self):
            parses.append(1)
            return original(self)

        store._load_uncached = counting.__get__(store)
        store.completed_ids()
        store.lookup([])
        len(store)
        store.load()
        store.read_grid()
        assert len(parses) == 1

    def test_own_append_invalidates(self, tmp_path, serial_records):
        store = CampaignStore(tmp_path / "s.jsonl")
        store.append(serial_records[0])
        assert len(store) == 1
        store.append(serial_records[1])
        assert len(store) == 2

    def test_external_append_invalidates(self, tmp_path, serial_records):
        """Another process's append is seen via the file-stat token."""
        store = CampaignStore(tmp_path / "s.jsonl")
        store.append(serial_records[0])
        assert len(store) == 1  # snapshot now warm
        other = CampaignStore(store.path)
        other.append(serial_records[1])
        assert len(store) == 2

    def test_sqlite_reads_are_always_direct(self, tmp_path, serial_records):
        store = SqliteStore(tmp_path / "s.sqlite")
        store.append(serial_records[0])
        assert store._freshness_token() is None
        store.load()
        assert store._snapshot is None
