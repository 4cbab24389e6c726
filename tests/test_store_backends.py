"""The ``CampaignStore`` contract, and the refusal of removed layouts.

The contract class runs the store through appends, sweeps (serial,
parallel, chaos-injected) and reads, and asserts the records a consumer
sees; the edge cases pin how crashes and races degrade (torn lines,
duplicate headers, racing header writers).  Stores of the removed
backends — a sharded directory, a SQLite database — are refused with one
line whose command converts them, and these tests run that command.
"""

import json
import shlex
import sqlite3
import subprocess
import threading
from pathlib import Path

import pytest

from repro.campaigns import (
    CampaignGrid,
    CampaignRecord,
    CampaignRunner,
    CampaignSpec,
    CampaignStore,
    SweepOptions,
    open_store,
)
from repro.campaigns.store import SIDECAR_LEDGER, SIDECAR_TELEMETRY
from repro.errors import ReproError
from repro.faults import FaultPlan


def _make(tmp_path):
    return open_store(tmp_path / "s.jsonl")


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
    runner = CampaignRunner(SweepOptions(jobs=1))
    return runner.run(small_grid.specs()).records


class TestContract:
    """The observable behaviour of a store."""

    def test_round_trip(self, tmp_path, small_grid, serial_records):
        store = _make(tmp_path)
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

    def test_fresh_store_reads_empty(self, tmp_path):
        store = _make(tmp_path)
        assert not store.exists()
        assert store.load() == (None, [])
        assert store.read_grid() is None
        assert store.completed_ids() == set()
        assert store.lookup([CampaignSpec(app="redis", scale="test")]) == {}
        assert len(store) == 0
        # Reading must stay read-only: no store materialises on disk.
        assert not store.exists()

    def test_last_write_wins_per_id(self, tmp_path, serial_records):
        from dataclasses import replace

        store = _make(tmp_path)
        done = serial_records[0]
        failed = replace(done, status="failed", error="boom", evaluation=None,
                         result=None)
        store.append(failed)
        assert store.completed_ids() == set()
        store.append(done)
        assert len(store) == 1
        assert store.records()[0].status == "done"
        assert store.completed_ids() == {done.campaign_id}

    def test_grid_header_keeps_first(self, tmp_path, small_grid):
        store = _make(tmp_path)
        other = CampaignGrid(apps=("lammps",), seeds=(9,), scale="test")
        store.write_grid(small_grid)
        store.write_grid(other)
        assert store.read_grid() == small_grid

    def test_runner_serial_matches_baseline(
        self, tmp_path, small_grid, serial_records
    ):
        store = _make(tmp_path)
        report = CampaignRunner(SweepOptions(jobs=1), store=store).run(
            small_grid.specs(), grid=small_grid
        )
        assert _stable(report.records) == _stable(serial_records)
        assert _stable(store.records()) == _stable(serial_records)
        assert store.read_grid() == small_grid

    def test_runner_parallel_matches_baseline(
        self, tmp_path, small_grid, serial_records
    ):
        store = _make(tmp_path)
        runner = CampaignRunner(SweepOptions(jobs=2), store=store)
        report = runner.run(small_grid.specs())
        assert _stable(report.records) == _stable(serial_records)
        assert _stable(store.records()) == _stable(serial_records)

    def test_runner_chaos_matches_baseline(
        self, tmp_path, small_grid, serial_records
    ):
        """Injected transient faults + retries land the same final records."""
        store = _make(tmp_path)
        plan = FaultPlan(rate=1.0, kinds=("transient",), max_faults=3, seed=5)
        options = SweepOptions(
            jobs=2, fault_plan=plan, max_retries=4, backoff=0.001
        )
        report = CampaignRunner(options, store=store).run(small_grid.specs())
        assert report.retries > 0
        assert _stable(report.records) == _stable(serial_records)
        assert _stable(store.records()) == _stable(serial_records)

    def test_resume_skips_done(self, tmp_path, small_grid):
        store = _make(tmp_path)
        specs = list(small_grid.specs())
        CampaignRunner(SweepOptions(jobs=1), store=store).run(specs[:2])
        resumed = _make(tmp_path)
        report = CampaignRunner(SweepOptions(jobs=1), store=resumed).run(specs)
        assert report.skipped == 2
        assert report.executed == 2
        assert len(resumed) == 4

    def test_open_store_sniffs_existing(self, tmp_path, serial_records):
        store = _make(tmp_path)
        store.append(serial_records[0])
        reopened = open_store(store.path)
        assert isinstance(reopened, CampaignStore)
        assert len(reopened) == 1

    def test_torn_final_write_loses_only_the_tail(
        self, tmp_path, serial_records
    ):
        """A crash mid-append must not take committed records with it."""
        store = _make(tmp_path)
        for record in serial_records:
            store.append(record)
        # Cut inside a multi-byte UTF-8 character, the worst tear.
        with open(store.path, "ab") as handle:
            handle.write(b'{"kind": "campaign_record", "status\xc3')
        fresh = open_store(store.path)
        assert _full(fresh.records()) == _full(serial_records)


class TestNonStoreFiles:
    """An existing file is a store only if it already reads as one."""

    @pytest.mark.parametrize("content", [
        b"# Notes\n\nplain text\n",
        b"plain text, no newline",
        b"[1, 2]\n",
        b'{"kind": "campaign"}\n',
        b'{\n  "kind": "campaign",\n  "version": 1\n}\n',
    ], ids=["text", "text-no-newline", "json-array", "other-kind",
            "pretty-printed-archive"])
    def test_refused_before_anything_is_written(self, tmp_path, content):
        path = tmp_path / "notes.md"
        path.write_bytes(content)
        with pytest.raises(ReproError, match="is not a campaign store") as err:
            open_store(path)
        assert str(path) in str(err.value) and "\n" not in str(err.value)
        assert path.read_bytes() == content

    def test_torn_first_write_still_opens_as_a_store(
        self, tmp_path, serial_records
    ):
        path = tmp_path / "s.jsonl"
        line = json.dumps(serial_records[0].to_payload(), sort_keys=True)
        path.write_text(line[: len(line) // 2])
        store = open_store(path)
        assert store.load() == (None, [])

    def test_empty_file_opens_as_a_fresh_store(self, tmp_path, serial_records):
        path = tmp_path / "s.jsonl"
        path.touch()
        store = open_store(path)
        store.append(serial_records[0])
        assert len(open_store(path)) == 1


#: One JSON line nested past the decoder's limit on every interpreter CI
#: runs: the recursion limit through Python 3.11, the C recursion limit
#: (10,000 on Linux release builds) on 3.12.
_DEEP_LINE = b"[" * 100_000 + b"]" * 100_000 + b"\n"


class TestDeeplyNestedLine:
    """A line nested past the JSON decoder's limit is damage, as a torn
    line is: readers skip it, and as a first line it is no store."""

    def test_report_and_status_read_past_it(
        self, tmp_path, small_grid, serial_records, capsys
    ):
        from repro.cli import main

        printed = {}
        for name, tail in (("clean", b""), ("deep", _DEEP_LINE)):
            directory = tmp_path / name
            directory.mkdir()
            store = CampaignStore(directory / "s.jsonl")
            store.write_grid(small_grid)
            store.append(serial_records[0])
            with open(store.path, "ab") as handle:
                handle.write(tail)
            for command in ("report", "status"):
                assert main([command, str(store.path)]) == 0
                printed[name, command] = capsys.readouterr().out.replace(
                    str(directory), "<dir>"
                )
        for command in ("report", "status"):
            assert printed["deep", command] == printed["clean", command]
        assert len(open_store(tmp_path / "deep" / "s.jsonl")) == 1

    def test_first_line_is_no_campaign_store(self, tmp_path):
        path = tmp_path / "s.jsonl"
        path.write_bytes(_DEEP_LINE)
        with pytest.raises(ReproError, match="is not a campaign store"):
            open_store(path)
        assert path.read_bytes() == _DEEP_LINE


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
        assert isinstance(converted, CampaignStore)
        assert converted.read_grid() == small_grid
        assert _full(converted.records()) == _full(serial_records)


#: The tables the removed SQLite backend wrote, as it created them.
_SQLITE_SCHEMA = """
CREATE TABLE store_meta (key TEXT PRIMARY KEY, value TEXT NOT NULL);
CREATE TABLE campaign_records (
    campaign_id TEXT PRIMARY KEY,
    status      TEXT NOT NULL,
    payload     TEXT NOT NULL
);
CREATE INDEX campaign_records_status ON campaign_records(status);
"""


class TestRemovedSqliteBackend:
    def test_fresh_sqlite_suffix_is_a_jsonl_store(self, tmp_path, serial_records):
        """No suffix selects a backend any more: a fresh ``.sqlite`` path
        becomes a JSONL store."""
        store = open_store(tmp_path / "new.sqlite")
        store.append(serial_records[0])
        assert json.loads(store.path.read_text())["id"] == (
            serial_records[0].campaign_id
        )

    @pytest.mark.parametrize("name", ["old.sqlite", "old.jsonl"])
    def test_database_converts_with_the_command_the_error_names(
        self, tmp_path, name, small_grid, serial_records
    ):
        """A database of the removed SQLite backend is refused with one line
        whose command exports it as the JSONL store it mirrors, byte for
        byte — into a new file even when the database is named ``*.jsonl``,
        which a shell redirect onto itself would truncate."""
        reference = CampaignStore(tmp_path / "reference.jsonl")
        reference.write_grid(small_grid)
        for record in serial_records:
            reference.append(record)
        header, *lines = reference.path.read_text().splitlines()

        old = tmp_path / name
        db = sqlite3.connect(old)
        db.execute("PRAGMA journal_mode=WAL")
        db.executescript(_SQLITE_SCHEMA)
        db.execute(
            "INSERT INTO store_meta VALUES (?, ?)", ("campaign_grid", header)
        )
        for line in lines:
            payload = json.loads(line)
            db.execute(
                "INSERT INTO campaign_records VALUES (?, ?, ?)",
                (payload["id"], payload["status"], line),
            )
        db.commit()
        db.close()
        before = old.read_bytes()

        with pytest.raises(ReproError) as refused:
            open_store(old)
        message = str(refused.value)
        assert "\n" not in message
        assert str(old) in message and "SQLite" in message
        command = message.split("with: ", 1)[1]
        subprocess.run(command, shell=True, check=True, cwd=tmp_path)

        target = Path(shlex.split(command)[-1])
        assert target != old
        assert old.read_bytes() == before
        assert target.read_bytes() == reference.path.read_bytes()
        assert _full(open_store(target).records()) == _full(serial_records)


class TestEdgeCases:
    def test_file_backends_keep_sibling_sidecars(self, tmp_path):
        store = CampaignStore(tmp_path / "s.jsonl")
        assert store.sidecar_path(SIDECAR_LEDGER).name == "s.jsonl.ledger"
        assert store.sidecar_path(SIDECAR_TELEMETRY).name == "s.jsonl.telemetry"

    def test_store_path_without_parent_dir(self, tmp_path, serial_records):
        store = open_store(tmp_path / "deep" / "nested" / "s.jsonl")
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
        path = tmp_path / "s.jsonl"
        barrier = threading.Barrier(8)

        def writer():
            store = open_store(path)
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
