#!/usr/bin/env python
"""Drive a tuning sweep through the stable facade, both ways.

The same grid is submitted twice — once in-process via
:func:`repro.submit_grid`, once over HTTP against a ``repro serve``
daemon — and the example shows the two stores hold bit-identical
records, because the CLI, the daemon, and library callers all share one
code path through :mod:`repro.api`.

Run with::

    python examples/service_client.py [--url http://host:port] [--scale test]

Without ``--url`` the example starts a private in-process daemon on an
ephemeral port, which makes it self-contained; point it at a long-lived
``repro serve`` to exercise a real deployment instead.
"""

import argparse
import contextlib
import json
import tempfile
import time
import urllib.request
from pathlib import Path

from repro import CampaignGrid, submit_grid
from repro.campaigns import open_store
from repro.service import ReproService, ServiceConfig, TENANT_HEADER


def run_in_process(grid, store_path):
    """The library path: submit, then read status/results/report back."""
    job = submit_grid(grid, store=str(store_path))
    report = job.result()
    print(f"in-process: job {job.job_id} {job.state}, "
          f"executed {report.executed}, skipped {report.skipped}")
    for record in job.results(limit=3):
        print(f"  {record.campaign_id}: ok={record.ok} "
              f"core_hours={record.core_hours:.3f}")
    snap = job.status()
    print(f"  status: {snap.done}/{snap.total} done, {snap.failed} failed")
    print(f"  by-scenario report: {len(job.report(view='by-scenario').rows)} "
          f"row(s)")


def call(base, method, path, body=None, tenant="example"):
    """One JSON round-trip against the daemon."""
    request = urllib.request.Request(base + path, method=method)
    request.add_header(TENANT_HEADER, tenant)
    data = None
    if body is not None:
        data = json.dumps(body).encode("utf-8")
        request.add_header("Content-Type", "application/json")
    with urllib.request.urlopen(request, data=data, timeout=60) as response:
        raw = response.read()
        if "json" in response.headers.get("Content-Type", ""):
            return json.loads(raw)
        return raw.decode("utf-8")


def run_over_http(base, grid):
    """The service path: POST the grid, poll, page results, fetch views."""
    job = call(base, "POST", "/v1/sweeps", {"grid": grid.to_dict()})["job"]
    print(f"http: submitted {job['id']} (state={job['state']})")

    while job["state"] not in ("done", "failed", "cancelled"):
        time.sleep(0.2)
        job = call(base, "GET", f"/v1/sweeps/{job['id']}")["job"]
    print(f"http: job {job['id']} {job['state']}, "
          f"{job['status']['done']}/{job['status']['total']} done")

    page = call(base, "GET", f"/v1/sweeps/{job['id']}/results?limit=3")
    print(f"http: {page['total']} records, first page of {page['count']}:")
    for record in page["records"]:
        print(f"  {record['id']}: status={record['status']} "
              f"core_hours={record['core_hours']:.3f}")

    report = call(base, "GET", f"/v1/sweeps/{job['id']}/report?view=summary")
    print(f"http: summary report with {len(report['report']['rows'])} row(s)")
    metrics = call(base, "GET", "/metrics")
    jobs_lines = [l for l in metrics.splitlines()
                  if l.startswith("service_jobs")]
    print("http: /metrics job gauges:", "; ".join(jobs_lines))
    return job["store"]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--url", default=None,
                        help="base URL of a running `repro serve` daemon; "
                             "default starts a private in-process one")
    parser.add_argument("--scale", default="test", help="space scale preset")
    args = parser.parse_args()

    grid = CampaignGrid(
        apps=("redis",), strategies=("DarwinGame",), seeds=(0, 1),
        scale=args.scale, eval_runs=10,
    )

    with contextlib.ExitStack() as stack:
        workdir = Path(stack.enter_context(tempfile.TemporaryDirectory()))
        if args.url is None:
            service = stack.enter_context(ReproService(ServiceConfig(
                port=0, data_root=workdir / "serve.d",
            )))
            base = service.url
            print(f"started private daemon at {base}")
        else:
            base = args.url.rstrip("/")

        library_store = workdir / "library.jsonl"
        run_in_process(grid, library_store)
        served_store = run_over_http(base, grid)

        def stable(path):
            return sorted(
                json.dumps(r.stable_payload(), sort_keys=True)
                for r in open_store(str(path)).records()
            )

        if stable(library_store) == stable(served_store):
            print("stores are bit-identical: one facade, one code path")
        else:
            raise SystemExit("stores diverge — this is a bug, please report")


if __name__ == "__main__":
    main()
