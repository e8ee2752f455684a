"""Sharded chaos harness: proving cross-shard 2PC under failure.

Builds on :mod:`repro.server.netchaos`: each shard group is one
:class:`~repro.server.netchaos.ClusterHarness` (primary + replicas with
chaos-proxied replication links, sync-replicated so an acknowledged
write is on a replica by definition), and a coordinator daemon fronts
them — reached by the workload client directly, reaching each shard
group through its own :class:`~repro.server.netchaos.ChaosProxy` so the
coordinator↔shard links can be partitioned independently of the
intra-group replication links.

The workload is cross-shard ``mset`` batches, each deliberately touching
**every** shard group (root names are picked against the ring until each
group owns at least one).  The harness records which batches were
*acknowledged* (an ``ok`` response with ``committed: true`` — a
``twopc_aborted`` rejection, a timeout or a dead socket is not an ack)
and which were merely *attempted*; after every scenario it settles the
deployment (restart whatever died, heal every link, wait for the
coordinator's resolver to drain all in-doubt state) and asserts:

1. **no acked batch lost** — every root of every acknowledged batch is
   readable, with the acknowledged value, on its owning shard group;
2. **atomicity** — every *attempted* batch is all-or-nothing: either
   every shard applied its slice or none did.  A half-applied batch is
   exactly the torn write 2PC exists to prevent;
3. **no residue** — no shard holds ``__2pc__:*`` staging and the
   coordinator holds no undrained decision record once settled;
4. the per-group replication invariants of the underlying harnesses
   (single primary, convergence, clean fsck).

:func:`scenario_negative_control` disables the decision-record fsync
(``durable_decisions=False``) and crashes the coordinator between the
two phase-two deliveries (``mid-decide``): on restart nothing proves the
commit happened, recovery presumes abort, and the shard that already
applied disagrees with the one that rolled back — invariant 2 must
catch the half-applied batch.  CI runs this inverted (``! sim.py
sharding --negative-control``): a passing negative control means the
detector is blind.

This is the ``sharding`` suite of :mod:`repro.sim`: ``scripts/sim.py
sharding`` / ``make sharding-sim``.
"""

from __future__ import annotations

import os
import time

from repro.server.client import (
    ClientError,
    RetryPolicy,
    ServerError,
    connect,
)
from repro.server.daemon import ReproServer, ServerConfig
from repro.server.netchaos import ChaosError, ChaosProxy, ClusterHarness
from repro.server.sharding.ring import ShardTopology
from repro.sim import scenarios, wait_until

__all__ = [
    "NEGATIVE_CONTROL",
    "ShardedHarness",
    "build_scenarios",
    "scenario_negative_control",
]


class ShardedHarness:
    """N shard groups + one coordinator, every link fault-injectable."""

    def __init__(
        self,
        root: str,
        shards: int = 2,
        replicas_per_shard: int = 1,
        durable_decisions: bool = True,
        lock_timeout: float = 5.0,
    ):
        self.root = root
        os.makedirs(root, exist_ok=True)
        self.lock_timeout = lock_timeout
        self.durable_decisions = durable_decisions
        #: per-group replication harnesses (they own kill/restart/promote
        #: and the per-group invariants)
        self.groups: list[ClusterHarness] = [
            ClusterHarness(
                os.path.join(root, f"g{sid}"),
                replicas=replicas_per_shard,
                sync_replicas=1,
                lock_timeout=lock_timeout,
            )
            for sid in range(shards)
        ]
        #: coordinator → shard-group links, one proxy per group node so a
        #: whole group (or just its primary) can be cut off independently
        self.coord_proxies: list[dict[str, ChaosProxy]] = []
        shard_endpoints: list[list[tuple[str, int]]] = []
        for group in self.groups:
            proxies: dict[str, ChaosProxy] = {}
            endpoints: list[tuple[str, int]] = []
            for name, server in group.servers.items():
                proxy = ChaosProxy(("127.0.0.1", server.port))
                proxies[name] = proxy
                endpoints.append(("127.0.0.1", proxy.port))
            self.coord_proxies.append(proxies)
            shard_endpoints.append(endpoints)
        self.shard_endpoints = shard_endpoints
        self.topology = ShardTopology.build(shard_endpoints)
        self.coordinator = self._spawn_coordinator()
        #: batch index → {root: value}; every batch *submitted*, acked or not
        self.attempted: dict[int, dict[str, int]] = {}
        #: batch indices whose mset was acknowledged committed
        self.acked: set[int] = set()

    # ------------------------------------------------------------- lifecycle

    def _spawn_coordinator(self, port: int = 0) -> ReproServer:
        config = ServerConfig(
            workers=2,
            queue_size=32,
            lock_timeout=self.lock_timeout,
            pgo_interval=None,
            node_id="coordinator",
            port=port,
            coordinator=True,
            shards=self.shard_endpoints,
            twopc_timeout=10.0,
            resolver_interval=0.2,
            durable_decisions=self.durable_decisions,
        )
        server = ReproServer(os.path.join(self.root, "coordinator.tyc"), config)
        server.start()
        return server

    def crash_coordinator(self) -> None:
        self.coordinator.crash()

    def restart_coordinator(self) -> ReproServer:
        port = self.coordinator.port
        try:  # make sure the old process state is down (crash() runs in a
            self.coordinator.stop()  # background thread at a failpoint)
        except Exception:
            pass
        deadline = time.monotonic() + 15.0
        while True:
            try:
                self.coordinator = self._spawn_coordinator(port=port)
                return self.coordinator
            except OSError:
                if time.monotonic() >= deadline:
                    raise
                time.sleep(0.2)

    def arm_failpoint(self, name: str | None) -> None:
        """Arm (or clear) the coordinator's 2PC failpoint for the *next*
        cross-shard mset; the coordinator reads it at each protocol point,
        so this is a live switch."""
        self.coordinator.config.twopc_failpoint = name

    def heal_all(self) -> None:
        for proxies in self.coord_proxies:
            for proxy in proxies.values():
                proxy.heal()
        for group in self.groups:
            for proxy in group.proxies.values():
                proxy.heal()

    def teardown(self) -> None:
        try:
            self.coordinator.stop()
        except Exception:
            pass
        for group in self.groups:
            group.teardown()
        for proxies in self.coord_proxies:
            for proxy in proxies.values():
                proxy.close()

    # -------------------------------------------------------------- workload

    def batch(self, index: int) -> dict[str, int]:
        """The writes of batch ``index``: one root per shard group, names
        chosen against the ring so every group participates — a pure
        function of the topology, so re-runs are deterministic."""
        writes: dict[str, int] = {}
        owned: set[int] = set()
        attempt = 0
        while len(owned) < len(self.groups):
            name = f"x{index}n{attempt}"
            attempt += 1
            sid = self.topology.shard_for(name)
            if sid in owned:
                continue
            owned.add(sid)
            writes[name] = index * 1000 + sid
        return writes

    def write_batch(self, index: int) -> bool:
        """Submit one cross-shard mset; records the ack truthfully."""
        writes = self.batch(index)
        self.attempted[index] = writes
        try:
            with connect(
                self.coordinator.port,
                timeout=20.0,
                retry=RetryPolicy(base_delay=0.05, max_attempts=4),
            ) as db:
                result = db.mset(writes)
        except (ClientError, ServerError):
            return False  # not acknowledged: fate decided by recovery
        if not result.get("committed"):
            return False
        self.acked.add(index)
        return True

    # --------------------------------------------------------------- settling

    def _shard_staging(self, sid: int) -> list[str]:
        group = self.groups[sid]
        with connect(group.servers[group.primary_name].port, timeout=10.0) as db:
            return [r for r in db.roots() if r.startswith("__2pc__:")]

    def settle(self, timeout: float = 45.0) -> None:
        """Heal links, resurrect the coordinator if it died, then wait for
        recovery to drain every in-doubt transaction."""
        self.heal_all()
        try:
            with connect(self.coordinator.port, timeout=5.0) as db:
                db.ping()
        except (ClientError, ServerError):
            self.restart_coordinator()
        deadline = time.monotonic() + timeout
        last = "never polled"
        while time.monotonic() < deadline:
            try:
                with connect(self.coordinator.port, timeout=10.0) as db:
                    stats = db.stats()
                coord = stats.get("coordinator", {})
                staging = {
                    sid: self._shard_staging(sid)
                    for sid in range(len(self.groups))
                }
                last = f"coordinator={coord} staging={staging}"
                if (
                    coord.get("recovered")
                    and coord.get("indoubt_decisions") == 0
                    and coord.get("inflight") == 0
                    and not any(staging.values())
                ):
                    return
            except (ClientError, ServerError) as exc:
                last = f"{type(exc).__name__}: {exc}"
            time.sleep(0.1)
        raise ChaosError(f"in-doubt state did not drain in {timeout}s: {last}")

    # ------------------------------------------------------------ invariants

    def _read_root(self, sid: int, root: str):
        """Read one root directly from its owning group's primary;
        ``(found, value)``."""
        group = self.groups[sid]
        with connect(group.servers[group.primary_name].port, timeout=10.0) as db:
            try:
                return True, db.get(root)[root]
            except ServerError as exc:
                if exc.code == "not_found":
                    return False, None
                raise

    def check_atomicity(self) -> dict[str, int]:
        """Invariants 1 + 2: acked batches fully applied, every attempted
        batch all-or-nothing."""
        torn: list[str] = []
        for index, writes in sorted(self.attempted.items()):
            found: dict[str, bool] = {}
            wrong: list[str] = []
            for root, value in writes.items():
                sid = self.topology.shard_for(root)
                present, got = self._read_root(sid, root)
                found[root] = present
                if present and got != value:
                    wrong.append(f"{root}={got!r} want {value}")
            if wrong:
                torn.append(f"batch {index}: wrong values: {wrong}")
                continue
            states = set(found.values())
            if index in self.acked:
                if states != {True}:
                    missing = [r for r, p in found.items() if not p]
                    raise ChaosError(
                        f"acked batch {index} lost roots {missing}"
                    )
            elif len(states) > 1:
                torn.append(
                    f"batch {index}: half-applied "
                    f"({ {r: p for r, p in found.items()} })"
                )
        if torn:
            raise ChaosError("atomicity violated: " + "; ".join(torn))
        applied = sum(
            1
            for index in self.attempted
            if index in self.acked
            or all(
                self._read_root(self.topology.shard_for(r), r)[0]
                for r in self.attempted[index]
            )
        )
        return {"attempted": len(self.attempted), "acked": len(self.acked),
                "applied": applied}

    def check_no_residue(self) -> None:
        """Invariant 3: staging and decision roots all retired."""
        for sid in range(len(self.groups)):
            staging = self._shard_staging(sid)
            if staging:
                raise ChaosError(f"shard {sid} still in doubt: {staging}")
        with connect(self.coordinator.port, timeout=10.0) as db:
            leftover = [r for r in db.roots() if r.startswith("2pc:")]
        if leftover:
            raise ChaosError(f"coordinator kept decision records: {leftover}")

    def verify(self) -> dict:
        """Settle, then run the full invariant suite (including each
        group's replication invariants, which stop the group's servers)."""
        self.settle()
        counts = self.check_atomicity()
        self.check_no_residue()
        self.coordinator.stop()
        groups = {}
        for sid, group in enumerate(self.groups):
            primary = group.check_single_primary()
            group.wait_converged()
            group.check_fsck_clean()
            groups[f"g{sid}"] = primary
        return {**counts, "groups": groups}


# ---------------------------------------------------------------------------
# scenario families
# ---------------------------------------------------------------------------


def _wait_recovered(harness: ShardedHarness, timeout: float = 20.0) -> None:
    def recovered() -> bool:
        try:
            with connect(harness.coordinator.port, timeout=5.0) as db:
                return bool(db.topology().get("recovered"))
        except (ClientError, ServerError):
            return False

    wait_until(
        recovered, timeout, "coordinator never finished boot recovery", interval=0.1
    )


def scenario_baseline(root: str, batches: int = 6) -> dict:
    """No faults: every cross-shard batch must be acked and applied."""
    harness = ShardedHarness(root)
    try:
        _wait_recovered(harness)
        for i in range(batches):
            if not harness.write_batch(i):
                raise ChaosError(f"fault-free batch {i} was not acked")
        return harness.verify()
    finally:
        harness.teardown()


def scenario_coord_link(
    root: str, kind: str, step: int, batches: int = 6
) -> dict:
    """Cut the coordinator↔shard-0 link mid-workload, heal, settle."""
    harness = ShardedHarness(root)
    try:
        _wait_recovered(harness)
        proxies = harness.coord_proxies[0].values()
        for i in range(batches):
            if i == step:
                for proxy in proxies:
                    proxy.inject(kind)
            if i == step + 2:
                for proxy in proxies:
                    proxy.heal()
            harness.write_batch(i)
        return harness.verify()
    finally:
        harness.teardown()


def scenario_repl_link(
    root: str, kind: str, step: int, batches: int = 6
) -> dict:
    """Fault shard 0's *replication* link mid-workload (the group is
    sync-replicated, so prepares there stall or time out), heal, settle."""
    harness = ShardedHarness(root)
    try:
        _wait_recovered(harness)
        group = harness.groups[0]
        for i in range(batches):
            if i == step:
                for proxy in group.proxies.values():
                    proxy.inject(kind)
            if i == step + 2:
                for proxy in group.proxies.values():
                    proxy.heal()
            harness.write_batch(i)
        return harness.verify()
    finally:
        harness.teardown()


def scenario_shard_failover(
    root: str, crash: bool, step: int, batches: int = 6
) -> dict:
    """Kill shard 0's primary mid-workload and promote its replica; the
    coordinator must refresh the fencing term and keep committing."""
    harness = ShardedHarness(root)
    try:
        _wait_recovered(harness)
        group = harness.groups[0]
        for i in range(batches):
            if i == step:
                group.kill(group.primary_name, crash=crash)
                promoted = group.promote_best_replica()
                # re-point the coordinator-side proxies is not needed: the
                # coordinator's ClusterClient holds every group node and
                # rediscovers the new primary on not_primary
                del promoted
            harness.write_batch(i)
        return harness.verify()
    finally:
        harness.teardown()


def scenario_coordinator_crash(
    root: str, failpoint: str, step: int, batches: int = 6
) -> dict:
    """Crash the coordinator at a 2PC protocol point, restart, settle.

    ``after-prepare``: no decision record exists — recovery must presume
    abort and no shard may keep the batch.  ``after-decision`` and
    ``mid-decide``: the decision fsync happened — recovery must re-drive
    the commit until every shard applied.  Either way the crashed batch
    was never acked, so only atomicity (all-or-nothing) is at stake.
    """
    harness = ShardedHarness(root)
    try:
        _wait_recovered(harness)
        for i in range(batches):
            if i == step:
                harness.arm_failpoint(failpoint)
            acked = harness.write_batch(i)
            if i == step:
                if acked:
                    raise ChaosError(
                        f"batch {i} acked through failpoint {failpoint}"
                    )
                harness.restart_coordinator()
                _wait_recovered(harness)
        return harness.verify()
    finally:
        harness.teardown()


def scenario_post_ack_crash(root: str, batches: int = 4) -> dict:
    """Ack several batches, then crash the coordinator abruptly (no
    failpoint: mid-workload SIGKILL equivalent) and restart — acked
    batches must survive, resolver must drain whatever was in flight."""
    harness = ShardedHarness(root)
    try:
        _wait_recovered(harness)
        for i in range(batches):
            if not harness.write_batch(i):
                raise ChaosError(f"fault-free batch {i} was not acked")
        harness.crash_coordinator()
        harness.restart_coordinator()
        _wait_recovered(harness)
        for i in range(batches, batches + 2):
            harness.write_batch(i)
        return harness.verify()
    finally:
        harness.teardown()


def scenario_negative_control(root: str) -> dict:
    """Decision fsync OFF + crash between phase-two deliveries: the
    atomicity invariant MUST fail.

    Without a durable decision record the post-restart coordinator finds
    staging on the not-yet-delivered shard, presumes abort and rolls it
    back — but the first shard already applied its slice.  The batch is
    half-applied, exactly what invariant 2 detects; a clean pass here
    means the detector can no longer see torn cross-shard writes.
    """
    harness = ShardedHarness(root, durable_decisions=False)
    try:
        _wait_recovered(harness)
        if not harness.write_batch(0):
            raise ChaosError("negative control warm-up batch was not acked")
        harness.arm_failpoint("mid-decide")
        if harness.write_batch(1):
            raise ChaosError("batch acked through the mid-decide failpoint")
        harness.restart_coordinator()
        _wait_recovered(harness)
        harness.settle()
        harness.check_atomicity()  # with the fsync off this must raise
        return {"torn": False}  # nothing torn?! durability leaked in somewhere
    finally:
        harness.teardown()


def build_scenarios(quick: bool = False) -> list[tuple[str, callable]]:
    """The sweep: (name, thunk(root)) pairs."""
    found, add = scenarios()
    add("baseline", scenario_baseline)
    kinds = ["blackhole", "drop-connect", "reset"]
    steps = [2] if quick else [1, 2, 3]
    for kind in kinds:
        for step in steps:
            add(f"coord-link/{kind}/s{step}", scenario_coord_link, kind, step)
    for kind in kinds if not quick else kinds[:1]:
        for step in steps:
            add(f"repl-link/{kind}/s{step}", scenario_repl_link, kind, step)
    for crash in (False, True):
        for step in steps:
            mode = "crash" if crash else "stop"
            add(
                f"shard-failover/{mode}/s{step}",
                scenario_shard_failover,
                crash,
                step,
            )
    failpoints = ["after-prepare", "after-decision", "mid-decide"]
    for failpoint in failpoints:
        for step in steps if not quick else steps[:1]:
            add(
                f"coord-crash/{failpoint}/s{step}",
                scenario_coordinator_crash,
                failpoint,
                step,
            )
    add("post-ack-crash", scenario_post_ack_crash)
    return found


NEGATIVE_CONTROL = ("negative-control/no-durable-decision", scenario_negative_control)
