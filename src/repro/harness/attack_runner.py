"""Full-cluster attack experiments (Fig. 1 and §VI-D).

These builders construct mixed honest/Byzantine deployments on the Fig. 1
topology and report whether the front-run landed in the committed order.
They are used by ``benchmarks/bench_fig1_frontrunning.py`` and the
``examples/frontrunning_attack.py`` walk-through.
"""

from __future__ import annotations

from typing import List, Optional

from repro.attacks.pompe_attacks import (
    ATTACK_MARKER,
    CherryPickingOrdererNode,
    VICTIM_MARKER,
    batch_contains,
)
from repro.core.node import LyraNode
from repro.core.types import Batch, InstanceId, Transaction
from repro.harness.config import ExperimentConfig
from repro.harness.factory import build_cluster
from repro.sim.engine import MILLISECONDS
from repro.workload.clients import OpenLoopClient


def _fig1_outcome_cls():
    from repro.attacks.frontrun import Fig1Outcome

    return Fig1Outcome


def _fig1_cluster(
    scenario, protocol, attacker_cls, *, seed, duration_us, alice_start_us
):
    """The Fig. 1 deployment on the shared cluster core: jitter- and
    skew-free links, one-transaction batches, Mallory at pid 1, and Alice
    sending one victim transaction from the Tokyo replica's region."""
    config = ExperimentConfig(
        n_nodes=scenario.n,
        regions=scenario.regions(),
        seed=seed,
        delta_us=200 * MILLISECONDS,
        jitter=0.0,
        clock_skew_max_us=0,
        batch_size=1,
        batch_timeout_us=20 * MILLISECONDS,
        lambda_us=5 * MILLISECONDS,
        warmup_rounds=3,
        warmup_spacing_us=200 * MILLISECONDS,
        clients_per_node=0,
        duration_us=duration_us,
    )
    cluster = build_cluster(
        config, protocol=protocol, node_classes={1: attacker_cls}
    )
    alice = OpenLoopClient(
        cluster.topology.place(scenario.victim_region),
        cluster.sim,
        0,
        interval_us=1_000_000,
        start_at_us=alice_start_us,
        count=1,
        body=VICTIM_MARKER,
    )
    cluster.clients.append(alice)
    cluster.network.register(alice, replica=False)
    return cluster


# ----------------------------------------------------------------------
# Pompē: clear-text ordering — the attack is expected to SUCCEED.
# ----------------------------------------------------------------------
def run_pompe_attack(scenario, *, seed: int = 7, duration_us: int = 12_000_000):
    Fig1Outcome = _fig1_outcome_cls()
    cluster = _fig1_cluster(
        scenario,
        "pompe",
        CherryPickingOrdererNode,
        seed=seed,
        duration_us=duration_us,
        alice_start_us=1_000_000,
    )
    # Record executed batches at the victim's replica.
    executed: List[Batch] = []
    victim_node = cluster.nodes[0]
    hook = victim_node.on_executed

    def record(cert):
        hook(cert)
        executed.append(cert.batch)

    victim_node.on_executed = record
    cluster.run()

    victim_pos = attacker_pos = None
    for idx, batch in enumerate(executed):
        if batch_contains(batch, VICTIM_MARKER) and victim_pos is None:
            victim_pos = idx
        if batch_contains(batch, ATTACK_MARKER) and attacker_pos is None:
            attacker_pos = idx
    succeeded = (
        attacker_pos < victim_pos
        if victim_pos is not None and attacker_pos is not None
        else None
    )
    attacker = cluster.nodes[1]
    return Fig1Outcome(
        attack_succeeded=succeeded,
        victim_position=victim_pos,
        attacker_position=attacker_pos,
        attacker_observed_plaintext=attacker.attack.observed_at_us is not None,
        detail=(
            f"observed at {attacker.attack.observed_at_us}us, "
            f"attacked at {attacker.attack.attacked_at_us}us, "
            f"executed order: victim@{victim_pos} attacker@{attacker_pos}"
        ),
    )


# ----------------------------------------------------------------------
# Lyra: commit-reveal — the attack is expected to FAIL.
# ----------------------------------------------------------------------
class LyraBackdatingAttacker(LyraNode):
    """The strongest Mallory against Lyra: she cannot read ciphertexts, so
    she waits for the reveal and then tries to inject a front-running
    transaction with a *backdated* sequence-number prediction set.  The
    validation function (Equation 1) rejects it at every correct replica.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.observed_plaintext_at: Optional[int] = None
        self.attacked_at: Optional[int] = None
        self.attack_iid: Optional[InstanceId] = None
        self.attack_decision: Optional[int] = None
        self.victim_seq: Optional[int] = None
        self._attack_nonce = 0

    def _on_execute(self, entry, plaintext: bytes) -> None:
        super()._on_execute(entry, plaintext)
        if self.observed_plaintext_at is not None:
            return
        try:
            batch = Batch.deserialize(
                entry.instance.proposer, entry.instance.batch_no, plaintext
            )
        except ValueError:
            return
        if not batch_contains(batch, VICTIM_MARKER):
            return
        # First moment Mallory can READ the victim's payload: post-commit.
        self.observed_plaintext_at = self.sim.now
        self.victim_seq = entry.seq
        self._launch_backdated(entry.seq)

    def _launch_backdated(self, victim_seq: int) -> None:
        self.attacked_at = self.sim.now
        tx = Transaction(self.pid, self._attack_nonce, ATTACK_MARKER)
        self._attack_nonce += 1
        iid = InstanceId(self.pid, self._batch_counter)
        self._batch_counter += 1
        self.attack_iid = iid
        batch = Batch(self.pid, iid.batch_no, (tx,))
        cipher = self.obf.encrypt(batch.serialize(), self.rng, self.pid)
        # Claim every replica perceived the transaction just before the
        # victim's sequence number — a lie by now, hence rejected.
        preds = tuple(victim_seq - 1_000 for _ in range(self.n))
        self._s_ref[iid] = victim_seq - 1_000
        self._instance(iid).propose(cipher, preds)

    def _on_decide(self, iid, v, m) -> None:
        if iid == self.attack_iid:
            self.attack_decision = v
        super()._on_decide(iid, v, m)


def run_lyra_attack(scenario, *, seed: int = 7, duration_us: int = 12_000_000):
    Fig1Outcome = _fig1_outcome_cls()
    cluster = _fig1_cluster(
        scenario,
        "lyra",
        LyraBackdatingAttacker,
        seed=seed,
        duration_us=duration_us,
        alice_start_us=1_500_000,  # after warm-up
    )
    cluster.run()
    nodes = cluster.nodes

    attacker: LyraBackdatingAttacker = nodes[1]  # type: ignore[assignment]
    victim_pos = attacker_pos = None
    # Identify positions via executed plaintexts at node 0.
    for idx, entry in enumerate(nodes[0].commit.output_log):
        plaintext = nodes[0].commit._plaintexts.get(entry.instance)
        if plaintext is None:
            continue
        try:
            batch = Batch.deserialize(
                entry.instance.proposer, entry.instance.batch_no, plaintext
            )
        except ValueError:
            continue
        if batch_contains(batch, VICTIM_MARKER) and victim_pos is None:
            victim_pos = idx
        if batch_contains(batch, ATTACK_MARKER) and attacker_pos is None:
            attacker_pos = idx
    succeeded = (
        attacker_pos < victim_pos
        if victim_pos is not None and attacker_pos is not None
        else (False if victim_pos is not None else None)
    )
    return Fig1Outcome(
        attack_succeeded=succeeded,
        victim_position=victim_pos,
        attacker_position=attacker_pos,
        attacker_observed_plaintext=attacker.observed_plaintext_at is not None,
        attacker_rejected=attacker.attack_decision == 0,
        detail=(
            f"plaintext visible at {attacker.observed_plaintext_at}us "
            f"(post-commit), backdated attack decision="
            f"{attacker.attack_decision}, victim@{victim_pos} "
            f"attacker@{attacker_pos}"
        ),
    )


__all__ = ["run_pompe_attack", "run_lyra_attack", "LyraBackdatingAttacker"]
