"""E7 — the committed ledger-sync curve and the pruning bound.

Writes ``BENCH_ledger.json``: the Danzi delay-vs-traffic curve (header
batch size sweep, see :mod:`repro.experiments.ledger_sync`) and the
pruning bound: a million-report ledger that retains <= 10% of its
blocks in memory while receipts, including against pruned blocks,
still verify.  The paper's claims themselves are checked by
``repro-experiments validate``.

    PYTHONPATH=src python benchmarks/bench_ledger.py --out BENCH_ledger.json
    PYTHONPATH=src python benchmarks/bench_ledger.py --smoke --out /tmp/b.json
    PYTHONPATH=src python benchmarks/bench_ledger.py --validate BENCH_ledger.json
"""

import argparse
import json
import sys
from pathlib import Path

from repro.chain import Blockchain, InMemoryBlockStore


def run_pruning_case(
    blocks: int,
    records_per_block: int,
    checkpoint_interval: int,
    pruning_depth: int,
    receipt_every: int,
) -> dict:
    """Grow a ledger under pruning; prove receipts survive it.

    Receipts are issued while their blocks are still retained (a real
    device asks near the tip), then *all* of them — including those
    whose blocks have since been pruned — are verified two ways at the
    end: against the pruned chain's header view, and fully offline
    against a lightweight client's header chain synced from genesis.
    """
    from repro.chain import HeaderChain
    from repro.chain.receipts import issue_receipt

    chain = Blockchain(
        InMemoryBlockStore(),
        checkpoint_interval=checkpoint_interval,
        pruning_depth=pruning_depth,
    )
    receipts = []
    for b in range(blocks):
        records = [
            {"device": f"d{i % 50}", "device_uid": f"u{i % 50}",
             "sequence": b * records_per_block + i, "measured_at": float(b),
             "energy_mwh": 0.001 * (i % 97)}
            for i in range(records_per_block)
        ]
        chain.append("agg1", float(b), records)
        if b % receipt_every == 0:
            receipts.append(issue_receipt(chain, b, b % records_per_block))

    light = HeaderChain()
    while light.height < chain.height:
        applied = light.extend(chain.headers(light.height, 256))
        if applied == 0:
            raise RuntimeError("header sync stalled")

    verified = sum(
        1
        for r in receipts
        if r.verify(chain) and light.verify_receipt(r)
    )
    pruned_receipts = sum(1 for r in receipts if r.block_height < chain.pruned_below)
    return {
        "reports": blocks * records_per_block,
        "blocks_total": chain.height,
        "blocks_retained": chain.retained_blocks,
        "retained_fraction": round(chain.retained_blocks / chain.height, 4),
        "checkpoints": len(chain.checkpoints),
        "receipts_sampled": len(receipts),
        "receipts_verified": verified,
        "receipts_against_pruned_blocks": pruned_receipts,
    }


def main(argv: list[str] | None = None) -> int:
    from repro.experiments.ledger_sync import run_ledger_sync, validate_bench

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="small world and short chain (the CI configuration)",
    )
    parser.add_argument(
        "--out", metavar="JSON", help="write/update this BENCH_ledger.json file"
    )
    parser.add_argument(
        "--validate", metavar="JSON",
        help="schema-check an existing BENCH_ledger.json and exit",
    )
    args = parser.parse_args(argv)

    if args.validate:
        problems = validate_bench(json.loads(Path(args.validate).read_text()))
        for problem in problems:
            print(f"INVALID {problem}", file=sys.stderr)
        print(f"{args.validate}: {'INVALID' if problems else 'ok'}")
        return 1 if problems else 0

    config = "smoke" if args.smoke else "full"
    if args.smoke:
        # Horizon fits two periodic rounds of the largest batch (the
        # bootstrap round usually precedes block production).
        batch_sizes, horizon, world = (1, 4, 16), 40.0, (1, 2)
        pruning_shape = dict(
            blocks=200, records_per_block=100, checkpoint_interval=20,
            pruning_depth=10, receipt_every=10,
        )
    else:
        batch_sizes, horizon, world = (1, 4, 16, 64), 150.0, (2, 3)
        pruning_shape = dict(
            blocks=1000, records_per_block=1000, checkpoint_interval=50,
            pruning_depth=50, receipt_every=25,
        )

    points = run_ledger_sync(
        batch_sizes=batch_sizes, horizon_s=horizon,
        n_networks=world[0], devices_per_network=world[1],
    )
    for p in points:
        print(
            f"batch {p.batch_size:3d}: {p.bytes_per_block_per_device:8.2f} "
            f"bytes/block/device, mean delay {p.mean_delay_s:6.3f}s, "
            f"offline receipts {p.receipts_verified_offline}/{p.receipts_requested}"
        )

    pruning = run_pruning_case(**pruning_shape)
    print(
        f"pruning: {pruning['reports']:,} reports, retained "
        f"{pruning['blocks_retained']}/{pruning['blocks_total']} blocks "
        f"({pruning['retained_fraction']:.1%}), receipts verified "
        f"{pruning['receipts_verified']}/{pruning['receipts_sampled']} "
        f"({pruning['receipts_against_pruned_blocks']} against pruned blocks)"
    )

    cases = {
        "delay_vs_traffic": [p.to_dict() for p in points],
        "pruning": pruning,
    }
    problems = validate_bench({"suite": "ledger", "configs": {config: cases}})
    for problem in problems:
        print(f"INVALID {problem}", file=sys.stderr)

    if args.out:
        path = Path(args.out)
        data = {"suite": "ledger", "configs": {}}
        if path.exists():
            data = json.loads(path.read_text())
            data.setdefault("configs", {})
        data["suite"] = "ledger"
        data["configs"][config] = cases
        path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
        print(f"wrote {args.out} [{config}]")

    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
