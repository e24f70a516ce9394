#!/usr/bin/env python3
"""Future work made runnable: consensus among devices, no aggregator.

§IV of the paper plans "addition of consensus among devices to realize a
completely decentralized [architecture] without any reliance on the
aggregator".  This demo runs that extension on the simulated mesh:
devices form a validator set, each independently checks proposed record
batches against its own observation predicate, and blocks commit only
past a 2/3 quorum — so a single fraudulent proposer cannot write
fabricated data.

Run:  python examples/consensus_demo.py
"""

from repro.chain import Blockchain, NetworkedPoaConsensus, NetworkedValidator, audit_chain
from repro.ids import AggregatorId
from repro.net import BackhaulLink, BackhaulMesh
from repro.sim import Simulator

VALIDATORS = 5


def honest_batch(sequence: int) -> list[dict]:
    return [
        {"device": f"d{i}", "device_uid": f"uid{i}", "sequence": sequence,
         "measured_at": float(sequence), "energy_mwh": 0.01 + 0.001 * i}
        for i in range(4)
    ]


def main() -> None:
    sim = Simulator(seed=0)
    mesh = BackhaulMesh(sim)
    chain = Blockchain(authorized=set())

    # Each device-validator refuses batches with implausible energy.
    def plausible(records: list[dict]) -> bool:
        return all(0.0 <= float(r["energy_mwh"]) < 1.0 for r in records)

    validators = [
        NetworkedValidator(sim, AggregatorId(f"device-{i}"), mesh, check=plausible)
        for i in range(VALIDATORS)
    ]
    for i, a in enumerate(validators):
        for b in validators[i + 1:]:
            mesh.connect(BackhaulLink(a.node_id, b.node_id, latency_s=0.001))
    consensus = NetworkedPoaConsensus(sim, validators, chain)

    def run_round(records: list[dict]) -> tuple[bool, float]:
        outcome: list[tuple[bool, float]] = []
        consensus.propose(records, lambda committed, latency: outcome.append((committed, latency)))
        sim.run()
        return outcome[0]

    print("=== honest rounds ===")
    for t in range(5):
        proposer = validators[t % VALIDATORS].node_id.name
        committed, latency = run_round(honest_batch(t))
        print(f"round {t}: proposer {proposer} -> "
              f"{'committed' if committed else 'rejected'} in {latency * 1000:.1f} ms")

    print("\n=== a fraudulent proposal ===")
    forged = honest_batch(99)
    forged[0]["energy_mwh"] = 1e6  # fabricated consumption
    committed, _ = run_round(forged)
    print(f"fraud round: {'committed' if committed else 'REJECTED by quorum'}")

    print(f"\nchain height: {chain.height} (fraud never stored)")
    print(f"audit clean: {audit_chain(chain).clean}")
    print(f"mesh messages across {consensus.rounds_started} rounds: "
          f"{mesh.messages_sent} (2(n-1) = {2 * (VALIDATORS - 1)} per round)")
    print("\ncost comparison: the trusted-aggregator chain of the main "
          "architecture needs 0 consensus messages per block; full "
          "decentralization sends the proposal out and the votes back, "
          "2(n-1) mesh messages per round "
          "(repro-experiments validate, entry A5, measures n = 2..16).")


if __name__ == "__main__":
    main()
