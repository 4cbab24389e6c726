"""End-to-end and per-layer benchmark of the DarwinGame reproduction.

Run from the root of a checkout (the directory holding ``src/repro``)::

    python3 perfbench/run.py --workload tune_bench --seed 0 --seconds 30 --trace 0

Workloads (one client, at most two worker processes each):

* ``tune_bench`` -- in a fresh process, ``DarwinGame.tune`` on the
  bench-scale redis space on an m5.8xlarge, cycling through six campaigns
  whose tuner/env seeds ``--seed`` shifts (seed 0 starts with the baseline
  ``DarwinGameConfig(seed=1)`` / ``CloudEnvironment(seed=7)``).
* ``sweep_cli`` -- the cold CLI sweep ``python -m repro -q sweep`` of four
  apps x two seeds at test scale, serial, into a fresh store each time.
* ``serve_jobs`` -- ``repro serve --telemetry`` as a subprocess and one
  keep-alive client in a closed loop: POST a 16-campaign grid with
  ``jobs: 2``, poll until done, then a fixed round-robin of reads.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run (see ``tracer.py``).  Operation times are
reported as ``op_norm``: wall time over the loop time of a host probe
running beside the workload (see ``probe.py``), because the shared host's
load moves raw wall times by a third from minute to minute.  Every line
before the last is a human-readable stats dump, raw times included; the
last line is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``.
"""

from __future__ import annotations

import argparse
import hashlib
import http.client
import json
import os
import resource
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracer as tracing  # noqa: E402
from probe import HostProbe  # noqa: E402

PY = sys.executable
ROOT = Path.cwd()

APPS = ("redis", "gromacs", "ffmpeg", "lammps")
TEST_SCALE = "test"
EVAL_RUNS = 50
SERVE_JOBS = 2
SETUP_SAMPLES = 3
#: serve_jobs read phase: status, a results page, report, /metrics.
READ_ROUNDS = 4
POLL_INTERVAL_S = 0.05
CHILD_TIMEOUT_S = 170

#: (name, unit) of every end-to-end metric (``--trace 0``).
END_TO_END = (
    ("setup_s", "s"),
    ("op_norm", "probe"),
    ("peak_rss_mb", "MB"),
    ("norm_time", "x"),
    ("norm_worst", "x"),
    ("core_hours", "core-h"),
)

#: (name, unit) of every per-layer metric (``--trace 1``) — the layers
#: all three workloads exercise.  Layers only some workloads reach
#: (runner, store, API reads, telemetry, HTTP, dispatch) are printed in
#: the stats dump of the workloads that reach them.
PER_LAYER = (
    ("import.s", "s"),
    ("apps.surface.s", "s"),
    ("apps.surface.calls", "count"),
    ("core.schedule.self_s", "s"),
    ("core.executor.rounds", "count"),
    ("core.executor.games", "count"),
    ("core.executor.regional_s", "s"),
    ("core.executor.global_s", "s"),
    ("core.executor.playoffs_s", "s"),
    ("core.executor.final_s", "s"),
    ("core.early_term_frac", "frac"),
    ("cloud.kernel.s", "s"),
    ("cloud.kernel.sample_s", "s"),
    ("cloud.kernel.scan_self_s", "s"),
    ("cloud.kernel.games_per_s", "1/s"),
    ("core.records.s", "s"),
    ("core.records.calls", "count"),
    ("core.records.players", "count"),
    ("core.evaluations", "count"),
    ("cloud.eval.s", "s"),
    ("trace.overhead_s", "s"),
)

ENGINE_LAYERS = (
    "import", "core.tune", "core.play", "cloud.kernel", "cloud.sample",
    "apps.surface", "core.records", "cloud.eval",
)
RUNNER_LAYERS = ("campaigns.execute", "store.append")
SERVICE_LAYERS = ("store.read", "telemetry.replay", "http.request")


class BenchError(RuntimeError):
    """The workload could not run to a result."""


# -- small helpers -------------------------------------------------------


class Stats:
    """Collects the stats dump and the operation/failure counts."""

    def __init__(self, workload: str):
        self.workload = workload
        self.lines = []
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def note(self, name: str, value, unit: str, comment: str = "") -> None:
        text = f"{value:.6g}" if isinstance(value, float) else str(value)
        line = f"{self.workload}.{name:<28} {text:>14} {unit:<7}"
        self.lines.append(line + (f"  # {comment}" if comment else ""))

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)
        return ok


def median(values):
    return float(statistics.median(values))


def p90(values):
    if len(values) < 2:
        return float(values[0])
    return float(statistics.quantiles(values, n=10, method="inclusive")[8])


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH", "")) if p
    )
    # Measure what a user's repeated CLI calls pay: cached bytecode.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def run_child(args, timeout: float = CHILD_TIMEOUT_S) -> dict:
    """Run ``child.py`` to completion; its last stdout line is JSON."""
    proc = subprocess.run(
        [PY, str(HERE / "child.py"), *map(str, args)],
        cwd=ROOT, env=child_env(), capture_output=True, text=True,
        timeout=timeout,
    )
    if proc.returncode != 0:
        raise BenchError(
            f"child {args[0]} exited {proc.returncode}: {proc.stderr[-2000:]}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def read_store(path: Path) -> list:
    """Stable payloads of a JSONL store, in campaign-ID order."""
    by_id = {}
    for line in path.read_text().splitlines():
        if not line.strip():
            continue
        payload = json.loads(line)
        if payload.get("kind") != "campaign_record":
            continue
        for key in ("attempts", "traceback"):
            payload.pop(key, None)
        by_id[payload["id"]] = payload
    return [by_id[k] for k in sorted(by_id)]


def digest(records: list) -> str:
    blob = json.dumps(records, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def campaign_quality(records: list, optimal: dict) -> list:
    """(optimal time, evaluation, core-hours) of each stored campaign."""
    return [
        (optimal[r["spec"]["app"]], r["evaluation"], r["core_hours"])
        for r in records
    ]


def end_to_end(stats: Stats, op: str, setups, ops, probe: HostProbe,
               peak_rss_mb, campaigns):
    """The end-to-end metrics from a run's samples.

    ``ops`` holds ``(start, wall seconds)`` of each operation.  ``op_norm``
    is the median over operations of the wall time divided by the host
    probe's loop time during that operation, which cancels the host's load
    drift (the raw median and p90 are in the stats dump).  Quality comes
    from the noise-free oracle: each chosen configuration's evaluated mean
    and slowest time over the optimal true time, averaged over campaigns.
    """
    walls = [wall for _, wall in ops]
    loops = [probe.loop_time(start, start + wall) for start, wall in ops]
    ratios = [wall / loop for wall, loop in zip(walls, loops)]
    stats.note(f"{op}_p50_s", median(walls), "s", f"median of {len(walls)}")
    stats.note(f"{op}_p90_s", p90(walls), "s")
    stats.note("probe_loop_s", median(loops), "s",
               f"{len(probe.samples())} probe samples")
    norm = [e["mean_time"] / opt for opt, e, _ in campaigns]
    stats.note("gap_pct", 100.0 * (statistics.fmean(norm) - 1.0), "%",
               f"mean of {len(campaigns)} campaigns, evaluated mean time")
    stats.note("cov_pct", statistics.fmean(e["cov_percent"] for _, e, _ in campaigns),
               "%", "mean evaluation CoV")
    return {
        "setup_s": median(setups),
        "op_norm": median(ratios),
        "peak_rss_mb": peak_rss_mb,
        "norm_time": statistics.fmean(norm),
        "norm_worst": statistics.fmean(e["max_time"] / opt for opt, e, _ in campaigns),
        "core_hours": statistics.fmean(h for _, _, h in campaigns),
    }


def check_records(stats: Stats, records: list, expected: int, what: str) -> bool:
    ok = len(records) == expected and all(r["status"] == "done" for r in records)
    return stats.check(ok, f"{what}: {len(records)} records, expected {expected} done")


def keep_going(started: float, iterations: int, seconds: float, minimum: int) -> bool:
    """Start another iteration only if it should end within ``seconds``."""
    if iterations < minimum:
        return True
    elapsed = time.perf_counter() - started
    return elapsed * (iterations + 1) / iterations <= seconds


# -- tune_bench ----------------------------------------------------------


def tune_bench(stats: Stats, seed: int, seconds: float, trace: bool, work: Path):
    if trace:
        spans_dir = work / "spans"
        out = run_child([
            "tune", "--seed", seed, "--seconds", seconds, "--trace",
            "--spans-dir", spans_dir, "--run-id", f"tune_bench-{seed}",
        ])
        plain, traced = out["runs"]
        stats.check(_outcome(plain) == _outcome(traced),
                    "traced tune differs from the untraced tune")
        overhead = traced["wall_s"] - plain["wall_s"]
        stats.note("untraced_tune_s", plain["wall_s"], "s")
        stats.note("traced_tune_s", traced["wall_s"], "s")
        return layer_metrics(stats, spans_dir, overhead, ENGINE_LAYERS)

    setups = [run_child(["setup"])["setup_s"] for _ in range(SETUP_SAMPLES - 1)]
    probe = HostProbe(work / "probe.txt")
    try:
        out = run_child(["tune", "--seed", seed, "--seconds", seconds])
    finally:
        probe.stop()
    setups.append(out["setup_s"])
    runs = out["runs"]
    first = {}
    for run in runs:
        base = first.setdefault(run["campaign"], run)
        stats.check(_outcome(run) == _outcome(base),
                    f"campaign {run['campaign']} changed between repeats")
    campaigns = list(first.values())
    optimal = out["optimal"]
    base = campaigns[0]
    stats.note("base.evaluations", base["evaluations"], "count", "first campaign")
    stats.note("base.core_hours", base["core_hours"], "core-h", "first campaign")
    stats.note("base.gap_pct", 100.0 * (base["true_time"] / optimal - 1.0), "%",
               "first campaign, winner's true time")
    return end_to_end(
        stats, "tune", setups, [(r["start"], r["wall_s"]) for r in runs], probe,
        out["peak_rss_mb"],
        [(optimal, c["evaluation"], c["core_hours"]) for c in campaigns],
    )


def _outcome(run: dict) -> tuple:
    return (run["best_index"], run["evaluations"], run["core_hours"],
            run["evaluation"])


# -- sweep_cli -----------------------------------------------------------


def sweep_argv(seed: int, store: Path) -> list:
    return [
        "-q", "sweep", "--apps", ",".join(APPS),
        "--seeds", f"{2 * seed},{2 * seed + 1}",
        "--scale", TEST_SCALE, "--eval-runs", str(EVAL_RUNS),
        "--store", str(store),
    ]


def timed_run(cmd, timeout: float = CHILD_TIMEOUT_S):
    """``(start, wall seconds, completed process)`` of one subprocess."""
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                          text=True, timeout=timeout)
    return t0, time.perf_counter() - t0, proc


def sweep_cli(stats: Stats, seed: int, seconds: float, trace: bool, work: Path):
    expected = len(APPS) * 2
    if trace:
        _, plain_wall, plain = timed_run(
            [PY, "-m", "repro", *sweep_argv(seed, work / "plain.jsonl")])
        spans_dir = work / "spans"
        _, traced_wall, traced = timed_run([
            PY, str(HERE / "child.py"), "cli", "--spans-dir", str(spans_dir),
            "--run-id", f"sweep_cli-{seed}",
            "--spawned-at", repr(time.perf_counter()), "--",
            *sweep_argv(seed, work / "traced.jsonl"),
        ])
        for name, proc in (("untraced", plain), ("traced", traced)):
            if proc.returncode != 0:
                raise BenchError(f"{name} sweep exited {proc.returncode}: "
                                 f"{proc.stderr[-2000:]}")
        a, b = read_store(work / "plain.jsonl"), read_store(work / "traced.jsonl")
        check_records(stats, b, expected, "traced sweep")
        stats.check(digest(a) == digest(b), "traced sweep store differs")
        stats.note("untraced_sweep_s", plain_wall, "s")
        stats.note("traced_sweep_s", traced_wall, "s")
        return layer_metrics(stats, spans_dir, traced_wall - plain_wall,
                             ENGINE_LAYERS + RUNNER_LAYERS)

    setups = [timed_run([PY, "-c", "import repro"])[1] for _ in range(SETUP_SAMPLES)]
    ops, digests, records = [], set(), None
    probe = HostProbe(work / "probe.txt")
    try:
        started = time.perf_counter()
        while keep_going(started, len(ops), seconds, minimum=3):
            store = work / f"sweep-{len(ops)}.jsonl"
            start, wall, proc = timed_run([PY, "-m", "repro", *sweep_argv(seed, store)])
            ops.append((start, wall))
            if not stats.check(proc.returncode == 0,
                               f"sweep exited {proc.returncode}: {proc.stderr[-500:]}"):
                continue
            got = read_store(store)
            if check_records(stats, got, expected, "sweep"):
                digests.add(digest(got))
                records = got
    finally:
        probe.stop()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    stats.check(len(digests) == 1, f"{len(digests)} distinct sweep stores")
    if records is None:
        raise BenchError("no sweep completed")
    optimal = run_child(["oracle", "--apps", ",".join(APPS), "--scale", TEST_SCALE])
    return end_to_end(stats, "sweep", setups, ops, probe, peak_rss_mb,
                      campaign_quality(records, optimal))


# -- serve_jobs ----------------------------------------------------------


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class Server:
    """One ``repro serve`` subprocess on a free port."""

    def __init__(self, work: Path, name: str, spans_dir=None):
        self.port = free_port()
        self.data_root = work / f"{name}.d"
        argv = ["-q", "serve", "--telemetry", "--port", str(self.port),
                "--data-root", str(self.data_root)]
        self.started = time.perf_counter()
        if spans_dir is None:
            cmd = [PY, "-m", "repro", *argv]
        else:
            cmd = [PY, str(HERE / "child.py"), "cli", "--spans-dir", str(spans_dir),
                   "--run-id", name, "--spawned-at", repr(self.started), "--", *argv]
        self.log = open(work / f"{name}.log", "wb")
        self.proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(),
                                     stdout=self.log, stderr=subprocess.STDOUT)

    def wait_ready(self, timeout: float = 60.0) -> float:
        """Seconds from launch until ``/healthz`` answers 200."""
        deadline = self.started + timeout
        while time.perf_counter() < deadline:
            if self.proc.poll() is not None:
                raise BenchError(f"server exited {self.proc.returncode}")
            try:
                conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=5)
                try:
                    conn.request("GET", "/healthz")
                    if conn.getresponse().status == 200:
                        return time.perf_counter() - self.started
                finally:
                    conn.close()
            except OSError:
                time.sleep(0.01)
        raise BenchError("server did not answer /healthz")

    def vm_hwm_mb(self) -> float:
        for line in Path(f"/proc/{self.proc.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise BenchError("no VmHWM for the server")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.log.close()


class Client:
    """One keep-alive connection; every request tagged with its number."""

    def __init__(self, port: int):
        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
        self.sent = 0

    def request(self, method: str, path: str, tenant: str, payload=None):
        self.sent += 1
        headers = {"X-Repro-Tenant": tenant, "X-Bench-Request": str(self.sent)}
        body = None
        if payload is not None:
            body = json.dumps(payload).encode()
            headers["Content-Type"] = "application/json"
        t0 = time.perf_counter()
        self.conn.request(method, path, body=body, headers=headers)
        response = self.conn.getresponse()
        data = response.read()
        latency = time.perf_counter() - t0
        return response.status, data, latency, str(self.sent)

    def close(self) -> None:
        self.conn.close()


def serve_grid(seed: int) -> dict:
    return {
        "apps": list(APPS), "seeds": [2 + 2 * seed, 3 + 2 * seed],
        "scenarios": ["steady", "bursty"], "scale": TEST_SCALE,
        "eval_runs": EVAL_RUNS,
    }


def _valid_body(path: str, data: bytes) -> bool:
    if path == "/metrics":
        lines = [l for l in data.decode().splitlines() if l and not l.startswith("#")]
        return bool(lines) and all(len(l.rsplit(" ", 1)) == 2 for l in lines)
    try:
        return isinstance(json.loads(data), dict)
    except ValueError:
        return False


def serve_iteration(stats: Stats, server: Server, client: Client, seed: int,
                    tenant: str) -> dict:
    """POST, poll to done, then the read round-robin; returns timings."""
    t0 = time.perf_counter()
    status, data, _, _ = client.request(
        "POST", "/v1/sweeps", tenant,
        {"grid": serve_grid(seed), "options": {"jobs": SERVE_JOBS}},
    )
    if not stats.check(status == 202, f"POST answered {status}"):
        raise BenchError(f"submission refused: {data[:300]!r}")
    job_id = json.loads(data)["job"]["id"]
    state = "queued"
    while state in ("queued", "running"):
        if time.perf_counter() - t0 > CHILD_TIMEOUT_S:
            raise BenchError("served job did not finish")
        time.sleep(POLL_INTERVAL_S)
        status, data, _, _ = client.request("GET", f"/v1/sweeps/{job_id}", tenant)
        stats.check(status == 200 and _valid_body("", data),
                    f"poll answered {status}")
        state = json.loads(data)["job"]["state"]
    job_s = time.perf_counter() - t0
    stats.check(state == "done", f"served job ended {state}")

    routes = (
        lambda k: f"/v1/sweeps/{job_id}",
        lambda k: f"/v1/sweeps/{job_id}/results?offset={4 * (k % 4)}&limit=4",
        lambda k: f"/v1/sweeps/{job_id}/report",
        lambda k: "/metrics",
    )
    reads = []
    for k in range(READ_ROUNDS):
        for route in routes:
            path = route(k)
            status, data, latency, tag = client.request("GET", path, tenant)
            stats.check(200 <= status < 300 and _valid_body(path, data),
                        f"GET {path} answered {status}")
            reads.append((tag, latency))
    records = read_store(server.data_root / tenant / f"{job_id}.jsonl")
    check_records(stats, records, 2 * len(APPS) * 2, "served job")
    return {"start": t0, "job_s": job_s, "reads": reads, "records": records,
            "wall_s": time.perf_counter() - t0}


def serve_jobs(stats: Stats, seed: int, seconds: float, trace: bool, work: Path):
    servers, probe = [], None

    def launch(name: str, spans_dir=None) -> Server:
        server = Server(work, name, spans_dir)
        servers.append(server)
        return server

    try:
        if trace:
            return _serve_traced(stats, seed, work, launch)
        setups = []
        for k in range(SETUP_SAMPLES - 1):
            first = launch(f"setup{k}")
            setups.append(first.wait_ready())
            first.stop()
        server = launch("server")
        setups.append(server.wait_ready())
        client = Client(server.port)
        iterations, digests = [], set()
        probe = HostProbe(work / "probe.txt")
        started = time.perf_counter()
        while keep_going(started, len(iterations), seconds, minimum=3):
            result = serve_iteration(stats, server, client, seed,
                                     f"bench{len(iterations)}")
            iterations.append(result)
            digests.add(digest(result["records"]))
        client.close()
        peak_rss_mb = server.vm_hwm_mb()
    finally:
        if probe is not None:
            probe.stop()
        for server in servers:
            server.stop()
    stats.check(len(digests) == 1, f"{len(digests)} distinct served stores")
    optimal = run_child(["oracle", "--apps", ",".join(APPS), "--scale", TEST_SCALE])
    jobs = [(it["start"], it["job_s"]) for it in iterations]
    reads = [latency for it in iterations for _, latency in it["reads"]]
    stats.note("http_p50_ms", 1000.0 * median(reads), "ms", f"{len(reads)} reads")
    stats.note("http_p90_ms", 1000.0 * p90(reads), "ms")
    return end_to_end(stats, "job", setups, jobs, probe, peak_rss_mb,
                      campaign_quality(iterations[-1]["records"], optimal))


def _serve_traced(stats: Stats, seed: int, work: Path, launch):
    results = {}
    spans_dir = work / "spans"
    for name, spans in (("untraced", None), ("traced", spans_dir)):
        server = launch(name, spans)
        server.wait_ready()
        client = Client(server.port)
        results[name] = serve_iteration(stats, server, client, seed, "bench0")
        client.close()
        server.stop()
    plain, traced = results["untraced"], results["traced"]
    stats.check(digest(plain["records"]) == digest(traced["records"]),
                "traced served store differs")
    stats.note("untraced_iteration_s", plain["wall_s"], "s")
    stats.note("traced_iteration_s", traced["wall_s"], "s")
    return layer_metrics(
        stats, spans_dir, traced["wall_s"] - plain["wall_s"],
        ENGINE_LAYERS + RUNNER_LAYERS + SERVICE_LAYERS,
        job_s=traced["job_s"], reads=traced["reads"],
    )


# -- per-layer metrics from spans ----------------------------------------


def layer_metrics(stats: Stats, spans_dir: Path, overhead: float, expected,
                  job_s=None, reads=None) -> dict:
    by_pid = tracing.load_spans(spans_dir)
    if not by_pid:
        raise BenchError(f"no span files under {spans_dir}")
    spans, own = [], {}
    for pid, rows in by_pid.items():
        names = {s["id"]: s["name"] for s in rows}
        selfs = tracing.self_times(rows)
        for s in rows:
            s["pid"] = pid
            s["dur"] = s["end"] - s["start"]
            s["parent_name"] = names.get(s["parent"])
            own[(pid, s["id"])] = selfs[s["id"]]
        spans.extend(rows)

    def named(name, outermost=False):
        return [s for s in spans if s["name"] == name
                and not (outermost and s["parent_name"] == name)]

    def total(name, outermost=False):
        return sum(s["dur"] for s in named(name, outermost))

    def self_total(name):
        return sum(own[(s["pid"], s["id"])] for s in named(name))

    for layer in expected:
        if not named(layer):
            raise BenchError(f"traced layer {layer} recorded no spans")

    plays = named("core.play")
    games = sum(s["attrs"]["games"] for s in plays)
    early = sum(s["attrs"]["early"] for s in plays)
    by_label = {}
    for s in plays:
        label = s["attrs"]["label"]
        by_label[label] = by_label.get(label, 0.0) + s["dur"]
    kernel_s = total("cloud.kernel")
    kernel_games = sum(s["attrs"]["games"] for s in named("cloud.kernel"))
    tunes = named("core.tune")
    metrics = {
        "import.s": total("import"),
        "apps.surface.s": total("apps.surface", outermost=True),
        "apps.surface.calls": len(named("apps.surface")),
        "core.schedule.self_s": self_total("core.tune"),
        "core.executor.rounds": len(plays),
        "core.executor.games": games,
        "core.executor.regional_s": by_label.get("regional", 0.0),
        "core.executor.global_s": by_label.get("global", 0.0),
        "core.executor.playoffs_s": by_label.get("playoffs", 0.0),
        "core.executor.final_s": by_label.get("final", 0.0),
        "core.early_term_frac": early / games if games else 0.0,
        "cloud.kernel.s": kernel_s,
        "cloud.kernel.sample_s": total("cloud.sample"),
        "cloud.kernel.scan_self_s": self_total("cloud.kernel"),
        "cloud.kernel.games_per_s": kernel_games / kernel_s if kernel_s else 0.0,
        "core.records.s": total("core.records", outermost=True),
        "core.records.calls": len(named("core.records", outermost=True)),
        "core.records.players": sum(s["attrs"]["players"] for s in tunes),
        "core.evaluations": sum(s["attrs"]["evaluations"] for s in tunes),
        "cloud.eval.s": total("cloud.eval"),
        "trace.overhead_s": overhead,
    }
    for name, unit in PER_LAYER:
        stats.note(name, metrics[name], unit)
    stats.note("core.tune.s", total("core.tune"), "s", f"{len(tunes)} tunes")

    extra = []
    if "campaigns.execute" in expected:
        extra += [
            ("campaigns.execute.s", total("campaigns.execute"), "s"),
            ("campaigns.execute.count", len(named("campaigns.execute")), "count"),
            ("store.append.s", total("store.append"), "s"),
            ("store.append.count", len(named("store.append")), "count"),
        ]
    if "http.request" in expected:
        extra += [
            ("store.read.s", total("store.read", outermost=True), "s"),
            ("telemetry.replay.s", total("telemetry.replay"), "s"),
        ]
        server_ms = {s["attrs"]["tag"]: 1000.0 * s["dur"]
                     for s in named("http.request")}
        tags = [tag for tag, _ in reads if tag in server_ms]
        if len(tags) != len(reads):
            raise BenchError("read requests without a server span")
        transport = [1000.0 * latency - server_ms[tag] for tag, latency in reads]
        server_pid = named("import")[0]["pid"]
        worker_s = sum(s["dur"] for s in named("campaigns.execute")
                       if s["pid"] != server_pid)
        extra += [
            ("http.server_ms", median([server_ms[t] for t in tags]), "ms"),
            ("http.transport_ms", median(transport), "ms"),
            ("dispatch.busy_frac", worker_s / (SERVE_JOBS * job_s), "frac"),
        ]
    for name, value, unit in extra:
        stats.note(name, value, unit)
    stats.note("trace.processes", len(by_pid), "count", "span files")
    return metrics


# -- entry point ---------------------------------------------------------

#: Workloads whose program runs on one core.  They are pinned, with the
#: host probe, to one CPU, so that the probe times the very core the
#: program runs on (the serve workload uses every core and is not pinned).
SINGLE_CORE = ("tune_bench", "sweep_cli")


def pin_to_one_core() -> None:
    """Pin this process, and so every child it starts, to one CPU."""
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpus[-1]})


WORKLOADS = {
    "tune_bench": tune_bench,
    "sweep_cli": sweep_cli,
    "serve_jobs": serve_jobs,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no src/repro under {ROOT}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    work = ROOT / ".perfbench" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    stats = Stats(args.workload)
    if args.workload in SINGLE_CORE:
        pin_to_one_core()
    try:
        values = WORKLOADS[args.workload](
            stats, args.seed, args.seconds, bool(args.trace), work
        )
    except (BenchError, subprocess.SubprocessError, OSError, tracing.MissingTarget):
        traceback.print_exc()
        return 1
    finally:
        if args.trace:
            kept = ROOT / ".perfbench" / f"spans-{args.workload}"
            shutil.rmtree(kept, ignore_errors=True)
            if (work / "spans").is_dir():
                shutil.move(str(work / "spans"), str(kept))
        shutil.rmtree(work, ignore_errors=True)

    catalogue = PER_LAYER if args.trace else END_TO_END
    if not args.trace:
        for name, unit in END_TO_END:
            stats.note(name, values[name], unit)
    for problem in stats.problems:
        print(f"FAILED CHECK: {problem}")
    print("\n".join(stats.lines))
    print(json.dumps({
        "correct": stats.failed == 0,
        "attempted": max(stats.attempted, 1),
        "failed": stats.failed,
        "metrics": {
            name: {"value": values[name], "unit": unit} for name, unit in catalogue
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
