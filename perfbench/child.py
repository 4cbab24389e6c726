"""Fresh-process side of the benchmark: one JSON object on the last line.

Modes (``python perfbench/child.py <mode> ...``, with ``src`` on
``PYTHONPATH``):

* ``setup``  -- time ``import repro``, ``make_application("redis")`` and
  the surface warm-up, then exit (a tune_bench set-up sample).
* ``tune``   -- the tune_bench loop: set up, then tune the workload's
  campaigns in full cycles for ``--seconds``; with ``--trace`` instead
  tune the first campaign once untraced and once traced.
* ``oracle`` -- the noise-free optimum of each application.
* ``cli``    -- the traced launcher: install the layer wrappers, then run
  ``repro.cli.main(argv)`` in this process, so forked ``--jobs`` workers
  inherit them; every process writes its spans when it ends.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

#: Campaigns per tune_bench cycle; the quality metrics average over them.
TUNE_CAMPAIGNS = 6


def tune_seeds(seed: int, j: int):
    """(tuner seed, env seed) of campaign ``j``; seed 0, j 0 is the
    baseline ``DarwinGameConfig(seed=1)`` on ``CloudEnvironment(seed=7)``."""
    shift = TUNE_CAMPAIGNS * seed + j
    return 1 + shift, 7 + shift


def _emit(payload: dict) -> None:
    payload["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    )
    print(json.dumps(payload), flush=True)


def _setup():
    """import, make_application, surface warm-up.

    Returns the app, the set-up seconds and when ``import repro`` ended.
    """
    import repro  # noqa: F401

    imported = time.perf_counter()
    from repro.apps.registry import make_application

    app = make_application("redis")
    app.export_surfaces()
    return app, time.perf_counter() - _T0, imported


def _tune_once(app, seed: int, j: int) -> dict:
    from repro.cloud.environment import CloudEnvironment
    from repro.cloud.vm import VMSpec
    from repro.core.config import DarwinGameConfig
    from repro.core.tournament import DarwinGame

    tuner_seed, env_seed = tune_seeds(seed, j)
    env = CloudEnvironment(VMSpec.preset("m5.8xlarge"), seed=env_seed)
    tuner = DarwinGame(DarwinGameConfig(seed=tuner_seed))
    t0 = time.perf_counter()
    result = tuner.tune(app, env)
    wall = time.perf_counter() - t0
    evaluation = env.measure_choice(app, result.best_index, runs=100)
    true_time = float(app.true_time([result.best_index])[0])
    return {
        "campaign": j,
        "start": t0,
        "wall_s": wall,
        "best_index": result.best_index,
        "evaluations": result.evaluations,
        "core_hours": result.core_hours,
        "true_time": true_time,
        "evaluation": {
            "mean_time": evaluation.mean_time,
            "max_time": evaluation.max_time,
            "cov_percent": evaluation.cov_percent,
        },
    }


def cmd_setup(args) -> None:
    _, setup_s, _ = _setup()
    _emit({"setup_s": setup_s})


def cmd_tune(args) -> None:
    app, setup_s, imported = _setup()
    optimal = app.optimal.true_time
    runs = []
    if args.trace:
        import tracer as tracing

        runs.append(_tune_once(app, args.seed, 0))
        tracer = tracing.Tracer(Path(args.spans_dir), args.run_id)
        tracer.record("import", _T0, imported)
        tracing.install(tracer, service=False)
        runs.append(_tune_once(app, args.seed, 0))
        tracer.flush()
    else:
        t_loop = time.perf_counter()
        cycles = 0
        while True:
            for j in range(TUNE_CAMPAIGNS):
                runs.append(_tune_once(app, args.seed, j))
            cycles += 1
            elapsed = time.perf_counter() - t_loop
            if cycles >= 2 and elapsed * (cycles + 1) / cycles > args.seconds:
                break
    _emit({"setup_s": setup_s, "optimal": optimal, "runs": runs})


def cmd_oracle(args) -> None:
    from repro.apps.registry import make_application

    _emit({
        name: make_application(name, args.scale).optimal.true_time
        for name in args.apps.split(",")
    })


def cmd_cli(args) -> None:
    import tracer as tracing

    tracer = tracing.Tracer(Path(args.spans_dir), args.run_id)
    import repro  # noqa: F401
    import repro.cli

    tracer.record("import", args.spawned_at, time.perf_counter())
    tracing.install(tracer, service=True)
    code = repro.cli.main(args.argv)
    tracer.flush()
    sys.exit(code)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    sub.add_parser("setup")
    p_tune = sub.add_parser("tune")
    p_tune.add_argument("--seed", type=int, required=True)
    p_tune.add_argument("--seconds", type=float, required=True)
    p_tune.add_argument("--trace", action="store_true")
    p_tune.add_argument("--spans-dir")
    p_tune.add_argument("--run-id", default="")
    p_oracle = sub.add_parser("oracle")
    p_oracle.add_argument("--apps", required=True)
    p_oracle.add_argument("--scale", default="test")
    p_cli = sub.add_parser("cli")
    p_cli.add_argument("--spans-dir", required=True)
    p_cli.add_argument("--run-id", required=True)
    p_cli.add_argument("--spawned-at", type=float, required=True)
    p_cli.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    if args.mode == "cli" and args.argv[:1] == ["--"]:
        args.argv = args.argv[1:]
    {"setup": cmd_setup, "tune": cmd_tune, "oracle": cmd_oracle,
     "cli": cmd_cli}[args.mode](args)


if __name__ == "__main__":
    main()
