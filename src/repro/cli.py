"""Command-line entry point: ``repro-experiments``.

Regenerates the paper's figures/statistics as text, or runs a
spec-file-described scenario end to end:

.. code-block:: console

    $ repro-experiments --list
    $ repro-experiments fig5 fig6
    $ repro-experiments            # everything
    $ repro-experiments --scenario spec.json --until 30
    $ repro-experiments serve --scenario spec.json --port 8080
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.experiments.runner import EXPERIMENTS, run_all


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description=(
            "Regenerate the evaluation of 'Real-Time Energy Monitoring in "
            "IoT-enabled Mobile Devices' (DATE 2020)."
        ),
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        help=f"experiments to run (default: all). Available: {sorted(EXPERIMENTS)}",
    )
    parser.add_argument(
        "--list", action="store_true", help="list available experiments and exit"
    )
    parser.add_argument(
        "--out",
        metavar="DIR",
        help="also write each experiment's output to DIR/<name>.txt",
    )
    parser.add_argument(
        "--scenario",
        metavar="SPEC_JSON",
        help=(
            "build the ScenarioSpec in this JSON file, run it and print the "
            "snapshot as JSON (ignores experiment names)"
        ),
    )
    parser.add_argument(
        "--until",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help="simulated time to run a --scenario world to (default: 30)",
    )
    parser.add_argument(
        "--workers",
        default="1",
        metavar="N",
        help=(
            "run experiments across N worker processes (outputs are "
            "identical for any N; 'auto' or 0 detects the usable CPU "
            "count; default: 1)"
        ),
    )
    parser.add_argument(
        "--vector",
        action="store_true",
        help=(
            "enable the vectorized fleet actor for a --scenario run "
            "(array-backed steady-state devices; requires transport "
            "'direct'; output is byte-identical to the scalar path)"
        ),
    )
    parser.add_argument(
        "--obs-dir",
        metavar="DIR",
        help=(
            "capture observability artifacts (spans.jsonl, metrics.prom, "
            "metrics.jsonl, profile.json, manifest.json) into DIR"
        ),
    )
    return parser


def run_scenario_file(
    path: str,
    until: float,
    obs_dir: str | None = None,
    vector: bool = False,
) -> dict:
    """Build the spec in ``path``, run it and return the snapshot.

    With ``obs_dir``, observability is force-enabled for the run (a
    spec's own ``obs`` block still wins) and the artifact directory is
    written there.  With ``vector``, the vectorized fleet actor is
    force-enabled on top of the spec's own ``vector`` block.
    """
    import dataclasses

    from repro.runtime import ObsSpec, ScenarioSpec, build

    spec = ScenarioSpec.from_json(Path(path).read_text())
    if vector and not spec.vector.enabled:
        spec = dataclasses.replace(
            spec, vector=dataclasses.replace(spec.vector, enabled=True)
        )
    if obs_dir is None:
        scenario = build(spec)
        scenario.run_until(until)
        return scenario.snapshot()
    from repro.obs import capture

    with capture(ObsSpec(enabled=True)) as session:
        scenario = build(spec)
        scenario.run_until(until)
        snapshot = scenario.snapshot()
    session.write(obs_dir)
    return snapshot


def build_serve_parser() -> argparse.ArgumentParser:
    """The ``serve`` subcommand's parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro-experiments serve",
        description=(
            "Serve an aggregator over HTTP: membership, batched report "
            "ingestion, alert long-polling, ledger sync and metrics."
        ),
    )
    parser.add_argument(
        "--scenario",
        metavar="SPEC_JSON",
        help=(
            "ScenarioSpec JSON file to serve (default: the paper testbed "
            "with no simulated device entries)"
        ),
    )
    parser.add_argument(
        "--host", default=None, metavar="ADDR",
        help="bind address (default: the spec's serve block, 127.0.0.1)",
    )
    parser.add_argument(
        "--port", type=int, default=None, metavar="PORT",
        help="bind port; 0 picks an ephemeral one (default: the spec's)",
    )
    parser.add_argument(
        "--network", default=None, metavar="NAME",
        help="aggregator network to serve (default: the spec's first)",
    )
    parser.add_argument(
        "--for", dest="duration", type=float, default=None, metavar="SECONDS",
        help="serve for this many wall seconds then exit (default: forever)",
    )
    parser.add_argument(
        "--verbose", action="store_true", help="log each HTTP request"
    )
    return parser


def run_serve(argv: list[str]) -> int:
    """``serve`` subcommand: host a world over HTTP until interrupted."""
    import time

    from repro.runtime import ScenarioSpec
    from repro.serve import AggregatorService, ServeRunner

    args = build_serve_parser().parse_args(argv)
    if args.scenario:
        spec = ScenarioSpec.from_json(Path(args.scenario).read_text())
    else:
        from repro.workloads.scenarios import paper_testbed_spec

        spec = paper_testbed_spec(enter_devices=False)
    service = AggregatorService(spec, network=args.network)
    host = args.host if args.host is not None else spec.serve.host
    port = args.port if args.port is not None else spec.serve.port
    runner = ServeRunner(service, host=host, port=port, verbose=args.verbose)
    runner.start()
    bound_host, bound_port = runner.address
    print(f"serving {service.healthz()['network']} on http://{bound_host}:{bound_port}")
    sys.stdout.flush()
    try:
        if args.duration is not None:
            time.sleep(args.duration)
        else:
            while True:
                time.sleep(3600)
    except KeyboardInterrupt:
        pass
    finally:
        runner.stop()
        service.close()
    print("serve: clean shutdown")
    return 0


def _parse_workers(value: str) -> int | None:
    """``--workers``: a positive count, or ``'auto'``/``'0'`` (``None``: detect)."""
    if value == "auto":
        return None
    if not value.isdecimal():
        raise SystemExit(
            f"--workers must be a non-negative integer or 'auto', got {value!r}"
        )
    return int(value) or None


def main(argv: list[str] | None = None) -> int:
    """CLI main; returns the process exit code."""
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "serve":
        return run_serve(argv[1:])
    args = build_parser().parse_args(argv)
    if args.list:
        for name in EXPERIMENTS:
            print(name)
        return 0
    if args.scenario:
        snapshot = run_scenario_file(
            args.scenario,
            args.until,
            obs_dir=args.obs_dir,
            vector=args.vector,
        )
        text = json.dumps(snapshot, indent=2, default=str)
        print(text)
        if args.out:
            out_dir = Path(args.out)
            out_dir.mkdir(parents=True, exist_ok=True)
            (out_dir / "scenario_snapshot.json").write_text(text + "\n")
        return 0
    names = args.experiments or None
    outputs = run_all(
        names, workers=_parse_workers(args.workers), obs_dir=args.obs_dir
    )
    out_dir = Path(args.out) if args.out else None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
    for name, text in outputs.items():
        print(f"=== {name} {'=' * max(0, 60 - len(name))}")
        print(text)
        print()
        if out_dir is not None:
            (out_dir / f"{name}.txt").write_text(text + "\n")
    # The claims table prints every entry, then fails the run if one missed.
    return 1 if "[FAIL]" in outputs.get("validate", "") else 0


if __name__ == "__main__":
    sys.exit(main())
