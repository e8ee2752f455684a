"""Network chaos harness: proving the replication layer under failure.

Three pieces:

* :class:`ChaosProxy` — a TCP relay the replication link is routed
  through, with injectable faults: ``blackhole`` (partition: packets
  silently stop), ``delay`` (slow link), ``truncate`` (connection cut
  mid-frame after N bytes), ``drop-connect`` (existing connections killed
  and new ones refused), ``reset`` (one-shot connection kill, immediate
  reconnect allowed);
* :class:`ClusterHarness` — one primary + N replicas on loopback, every
  replication link behind its own proxy, with a scripted write workload
  that records exactly which writes were *acknowledged* (an ``ok``
  response — a ``replication_timeout`` rejection or a dead socket is not
  an ack), node kill/restart in both roles (graceful ``stop()`` and
  SIGKILL-like ``crash()``), promotion of the most-caught-up replica, and
  the three invariant checks the sweep asserts for every scenario:

  1. **no acked write lost** — every acknowledged root binding is
     readable, with the acknowledged value, on every live node;
  2. **convergence** — all live nodes reach the primary's replication
     version with an identical logical state digest, and every image
     passes ``fsck`` clean after shutdown;
  3. **single primary** — exactly one live node reports the primary
     role, and it holds the highest term any live node has seen.

* the scenario families in :func:`build_scenarios` — link faults at every
  workload step, kill/restart of each node in each role at every step,
  and sync-replicated failover (kill the primary, promote, re-point,
  keep writing) — plus :func:`scenario_negative_control`, which disables
  fencing and demonstrates the acked-write loss the fencing term exists
  to prevent (the harness must *detect* that loss; a negative control
  that passes means the detector is broken).

This is the ``replication`` suite of :mod:`repro.sim`: ``scripts/sim.py
replication`` / ``make replication-sim``; everything runs in-process so a
few hundred scenarios finish in minutes.
"""

from __future__ import annotations

import os
import socket
import threading
import time

from repro.obs.metrics import METRICS
from repro.server.client import (
    ClientError,
    ClusterClient,
    RetryPolicy,
    ServerError,
    connect,
)
from repro.server.daemon import ReproServer, ServerConfig
from repro.sim import scenarios
from repro.store.fsck import fsck_image

__all__ = [
    "ChaosProxy",
    "ClusterHarness",
    "NEGATIVE_CONTROL",
    "build_scenarios",
    "scenario_negative_control",
]

_FAULTS = METRICS.counter("server.netchaos.faults", "faults injected")

_CHUNK = 4096


class ChaosProxy:
    """A fault-injecting TCP relay for one replication link."""

    def __init__(self, target: tuple[str, int]):
        self.target = target  # mutable: restarts may move the upstream
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind(("127.0.0.1", 0))
        self._listener.listen(16)
        self.port = self._listener.getsockname()[1]
        self._lock = threading.Lock()
        self._conns: set[socket.socket] = set()
        self._closed = False
        # fault state (all cleared by heal())
        self.drop_connect = False
        self.blackhole = False
        self.delay = 0.0
        self.truncate_after: int | None = None
        threading.Thread(
            target=self._accept_loop, name="chaos-proxy", daemon=True
        ).start()

    # ---------------------------------------------------------------- faults

    def inject(self, kind: str, **params) -> None:
        """Arm one fault; kinds double as scenario labels."""
        _FAULTS.inc()
        if kind == "blackhole":
            self.blackhole = True
        elif kind == "delay":
            self.delay = float(params.get("seconds", 0.05))
        elif kind == "truncate":
            self.truncate_after = int(params.get("after_bytes", 64))
            self.kill_connections()  # next connection hits the budget
        elif kind == "drop-connect":
            self.drop_connect = True
            self.kill_connections()
        elif kind == "reset":
            self.kill_connections()  # one-shot: reconnect succeeds
        else:
            raise ValueError(f"unknown fault kind {kind!r}")

    def heal(self) -> None:
        self.drop_connect = False
        self.blackhole = False
        self.delay = 0.0
        self.truncate_after = None

    def kill_connections(self) -> None:
        with self._lock:
            victims = list(self._conns)
            self._conns.clear()
        for sock in victims:
            # shutdown, not just close: a pump thread blocked in recv holds
            # the file description open, so close() alone would never send
            # FIN and the peers would block forever on a dead link
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                sock.close()
            except OSError:
                pass

    # --------------------------------------------------------------- pumping

    def _accept_loop(self) -> None:
        while not self._closed:
            try:
                client, _ = self._listener.accept()
            except OSError:
                return
            if self.drop_connect:
                client.close()
                continue
            try:
                upstream = socket.create_connection(self.target, timeout=5.0)
            except OSError:
                client.close()
                continue
            with self._lock:
                self._conns.add(client)
                self._conns.add(upstream)
            budget = [self.truncate_after]  # shared by both directions
            for a, b in ((client, upstream), (upstream, client)):
                threading.Thread(
                    target=self._pump, args=(a, b, budget), daemon=True
                ).start()

    def _pump(self, src: socket.socket, dst: socket.socket, budget: list) -> None:
        try:
            while True:
                chunk = src.recv(_CHUNK)
                if not chunk:
                    break
                while self.blackhole and not self._closed:
                    time.sleep(0.02)  # partition: hold the data back
                if self.delay:
                    time.sleep(self.delay)
                if budget[0] is not None:
                    if len(chunk) >= budget[0]:
                        # forward the final partial bytes, then cut the
                        # connection: the receiver holds a torn frame
                        dst.sendall(chunk[: budget[0]])
                        break
                    budget[0] -= len(chunk)
                dst.sendall(chunk)
        except OSError:
            pass
        finally:
            for sock in (src, dst):
                with self._lock:
                    self._conns.discard(sock)
                try:
                    sock.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass
                try:
                    sock.close()
                except OSError:
                    pass

    def close(self) -> None:
        self._closed = True
        try:
            self._listener.close()
        except OSError:
            pass
        self.kill_connections()


class ChaosError(AssertionError):
    """A scenario invariant was violated."""


class ClusterHarness:
    """One primary and N replicas with chaos-proxied replication links."""

    def __init__(
        self,
        root: str,
        replicas: int = 2,
        sync_replicas: int = 0,
        fence: bool = True,
        lock_timeout: float = 5.0,
    ):
        self.root = root
        os.makedirs(root, exist_ok=True)
        self.fence = fence
        self.sync_replicas = sync_replicas
        self.lock_timeout = lock_timeout
        #: acked root -> value: only ``ok`` write responses land here
        self.acked: dict[str, int] = {}
        self.servers: dict[str, ReproServer] = {}
        self.live: set[str] = set()
        self.proxies: dict[str, ChaosProxy] = {}
        self.primary_name = "primary"
        self.primary = self._spawn_primary("primary")
        for i in range(replicas):
            name = f"r{i}"
            proxy = ChaosProxy(("127.0.0.1", self.primary.port))
            self.proxies[name] = proxy
            self._spawn_replica(name, proxy.port)

    # ------------------------------------------------------------- lifecycle

    def _image(self, name: str) -> str:
        return os.path.join(self.root, f"{name}.tyc")

    def _config(self, name: str, **overrides) -> ServerConfig:
        defaults = dict(
            workers=2,
            queue_size=32,
            lock_timeout=self.lock_timeout,
            pgo_interval=None,
            node_id=name,
            fence=self.fence,
        )
        defaults.update(overrides)
        return ServerConfig(**defaults)

    def _spawn_primary(self, name: str, port: int = 0) -> ReproServer:
        server = ReproServer(
            self._image(name),
            self._config(
                name,
                port=port,
                replicate=True,
                sync_replicas=self.sync_replicas,
                replication_timeout=8.0,
            ),
        )
        server.start()
        self.servers[name] = server
        self.live.add(name)
        return server

    def _spawn_replica(self, name: str, upstream_port: int, port: int = 0) -> ReproServer:
        server = ReproServer(
            self._image(name),
            self._config(
                name, port=port, replica_of=("127.0.0.1", upstream_port)
            ),
        )
        server.start()
        self.servers[name] = server
        self.live.add(name)
        return server

    def kill(self, name: str, crash: bool = False) -> None:
        server = self.servers[name]
        if crash:
            server.crash()
        else:
            server.stop()
        self.live.discard(name)

    def restart(self, name: str) -> ReproServer:
        """Bring a killed node back in its previous role, on its old port."""
        old = self.servers[name]
        port = old.port
        if name == self.primary_name:
            server = self._spawn_primary(name, port=port)
            self.proxies_retarget(port)
        else:
            server = self._spawn_replica(name, self.proxies[name].port, port=port)
        return server

    def proxies_retarget(self, primary_port: int) -> None:
        for proxy in self.proxies.values():
            proxy.target = ("127.0.0.1", primary_port)

    def promote_best_replica(self) -> str:
        """Promote the most-caught-up live replica; re-point the others."""
        versions: dict[str, int] = {}
        for name in sorted(self.live - {self.primary_name}):
            try:
                with connect(self.servers[name].port) as db:
                    versions[name] = db.repl_status()["version"]
            except (ClientError, ServerError):
                continue
        if not versions:
            raise ChaosError("no live replica to promote")
        best = max(versions, key=lambda n: (versions[n], n))
        with connect(self.servers[best].port) as db:
            db.promote()
        self.primary_name = best
        for name in self.live - {best}:
            try:
                with connect(self.servers[name].port) as db:
                    db.follow("127.0.0.1", self.servers[best].port)
            except (ClientError, ServerError):
                pass
        return best

    def teardown(self) -> None:
        for name in list(self.servers):
            try:
                self.servers[name].stop()
            except Exception:
                pass
        for proxy in self.proxies.values():
            proxy.close()

    # -------------------------------------------------------------- workload

    def cluster_client(self) -> ClusterClient:
        endpoints = [("127.0.0.1", s.port) for s in self.servers.values()]
        return ClusterClient(
            endpoints,
            timeout=10.0,
            retry=RetryPolicy(base_delay=0.05, max_attempts=8),
        )

    def write(self, index: int, db: ClusterClient | None = None) -> bool:
        """One workload write; records it in ``acked`` only on success."""
        root, value = f"w{index}", index * 101
        try:
            if db is not None:
                db.set(root, value)
            else:
                with connect(
                    self.servers[self.primary_name].port,
                    retry=RetryPolicy(base_delay=0.05, max_attempts=4),
                ) as direct:
                    direct.set(root, value)
        except (ClientError, ServerError):
            return False  # not acknowledged: the write may or may not exist
        self.acked[root] = value
        return True

    # ----------------------------------------------------------- invariants

    def _status(self, name: str, digest: bool = False) -> dict:
        with connect(self.servers[name].port, timeout=10.0) as db:
            return db.repl_status(digest=digest)

    def wait_converged(self, timeout: float = 40.0) -> dict[str, dict]:
        """Block until every live node matches the primary's version and
        logical digest; raises :class:`ChaosError` on timeout."""
        deadline = time.monotonic() + timeout
        last: dict[str, dict] = {}
        while time.monotonic() < deadline:
            try:
                want = self._status(self.primary_name, digest=True)
                last = {self.primary_name: want}
                settled = True
                for name in sorted(self.live - {self.primary_name}):
                    got = self._status(name, digest=True)
                    last[name] = got
                    if (
                        got["version"] != want["version"]
                        or got.get("digest") != want.get("digest")
                    ):
                        settled = False
                if settled:
                    return last
            except (ClientError, ServerError):
                pass
            time.sleep(0.05)
        raise ChaosError(f"no convergence within {timeout}s: {last}")

    def check_acked_writes(self) -> int:
        """Every acknowledged write must be readable on every live node."""
        for name in sorted(self.live):
            with connect(self.servers[name].port, timeout=10.0) as db:
                roots = set(db.roots())
                missing = [r for r in self.acked if r not in roots]
                if missing:
                    raise ChaosError(f"{name} lost acked writes: {missing}")
                for root in self.acked:
                    try:
                        got = db.get(root)[root]
                    except ServerError as exc:
                        if exc.code == "not_found":
                            # vanished between the roots() listing and the
                            # read — still a lost acked write
                            raise ChaosError(
                                f"{name} lost acked write {root}: {exc}"
                            ) from exc
                        raise
                    if got != self.acked[root]:
                        raise ChaosError(
                            f"{name}: acked {root}={self.acked[root]} reads {got}"
                        )
        return len(self.acked)

    def check_single_primary(self) -> str:
        primaries: list[tuple[str, int]] = []
        max_term = 0
        for name in sorted(self.live):
            status = self._status(name)
            max_term = max(max_term, status["term"])
            if status["role"] == "primary":
                primaries.append((name, status["term"]))
        if len(primaries) != 1:
            raise ChaosError(f"want exactly one live primary, have {primaries}")
        name, term = primaries[0]
        if term < max_term:
            raise ChaosError(
                f"primary {name} at term {term} but a node has seen {max_term}"
            )
        return name

    def check_fsck_clean(self) -> None:
        """Stop everything and fsck every live node's image."""
        live = sorted(self.live)
        for name in list(self.servers):
            self.servers[name].stop()
        self.live.clear()
        for name in live:
            result = fsck_image(self._image(name))
            if not result.ok:
                raise ChaosError(
                    f"fsck {name}: "
                    + "; ".join(f.message for f in result.errors)
                )

    def verify(self) -> dict:
        """Run the full invariant suite; returns the check summary."""
        primary = self.check_single_primary()
        self.wait_converged()
        acked = self.check_acked_writes()
        self.check_fsck_clean()
        return {"primary": primary, "acked_writes": acked, "fsck": "clean"}


# ---------------------------------------------------------------------------
# scenario families
# ---------------------------------------------------------------------------


def scenario_link_fault(
    root: str,
    kind: str,
    step: int,
    both_links: bool = False,
    sync: bool = False,
    writes: int = 10,
) -> dict:
    """Fault one (or both) replication links mid-workload, heal, converge."""
    harness = ClusterHarness(root, sync_replicas=1 if sync else 0)
    try:
        targets = ["r0", "r1"] if both_links else ["r0"]
        for i in range(writes):
            if i == step:
                for name in targets:
                    harness.proxies[name].inject(kind)
            if i == step + 2:
                for name in targets:
                    harness.proxies[name].heal()
            harness.write(i)
        for proxy in harness.proxies.values():
            proxy.heal()
        return harness.verify()
    finally:
        harness.teardown()


def scenario_restart(
    root: str, node: str, crash: bool, step: int, writes: int = 10
) -> dict:
    """Kill one node mid-workload (gracefully or abruptly), restart it."""
    harness = ClusterHarness(root)
    try:
        for i in range(writes):
            if i == step:
                harness.kill(node, crash=crash)
            if i == step + 2:
                harness.restart(node)
            harness.write(i)
        if node not in harness.live:
            harness.restart(node)
        return harness.verify()
    finally:
        harness.teardown()


def scenario_failover(
    root: str, crash: bool, step: int, writes: int = 10
) -> dict:
    """Kill the primary, promote the most-caught-up replica, keep writing.

    Runs sync-replicated (``sync_replicas=1``) so an acknowledged write is
    by definition on at least one replica — which the promotion rule (the
    max-version replica wins) then guarantees survives the failover.
    """
    harness = ClusterHarness(root, sync_replicas=1)
    db = None
    try:
        db = harness.cluster_client()
        for i in range(writes):
            if i == step:
                harness.kill("primary", crash=crash)
                harness.promote_best_replica()
            harness.write(i, db=db)
        return harness.verify()
    finally:
        if db is not None:
            db.close()
        harness.teardown()


def scenario_negative_control(root: str) -> dict:
    """Fencing OFF: the acked-write invariant MUST fail.

    The deposed primary keeps its stale term-1 state; the promoted node
    (term 2) takes an acknowledged write, then is pointed back at the
    deposed primary.  Without fencing it accepts the stale snapshot, the
    acked write vanishes, and the standard
    :meth:`ClusterHarness.check_acked_writes` invariant raises — so the
    sweep reports a failure and the sim exits nonzero.  CI inverts the
    invocation (``! sim.py replication --negative-control``): a zero exit
    here would mean the detector can no longer see lost writes.
    """
    harness = ClusterHarness(root, replicas=1, sync_replicas=1, fence=False)
    try:
        for i in range(3):
            harness.write(i)
        harness.wait_converged()
        old_primary_port = harness.servers["primary"].port
        with connect(harness.servers["r0"].port) as db:
            db.promote()
        harness.primary_name = "r0"
        harness.write(99)  # acked by the term-2 primary
        if "w99" not in harness.acked:
            raise ChaosError("negative control write was not acknowledged")
        # point the new primary back at the deposed one: unfenced, it
        # accepts the stale-term snapshot and silently regresses
        with connect(harness.servers["r0"].port) as db:
            db.follow("127.0.0.1", old_primary_port)
        harness.live.discard("primary")  # judge the regressed node only
        deadline = time.monotonic() + 20.0
        while True:
            try:
                with connect(harness.servers["r0"].port) as db:
                    regressed = "w99" not in set(db.roots())
            except (ClientError, ServerError):
                regressed = False
            if regressed or time.monotonic() >= deadline:
                break
            time.sleep(0.1)
        # the standard invariant check: with fencing off it must raise
        harness.check_acked_writes()
        return {"lost": False}  # nothing lost?! fencing leaked in somewhere
    finally:
        harness.teardown()


def build_scenarios(quick: bool = False) -> list[tuple[str, callable]]:
    """The full sweep: (name, thunk(root)) pairs, ≥200 scenarios."""
    kinds = ["blackhole", "delay", "truncate", "drop-connect", "reset"]
    steps = [1, 4, 7] if quick else list(range(10))
    found, add = scenarios()
    for kind in kinds:
        for step in steps:
            add(f"link/{kind}/s{step}", scenario_link_fault, kind, step)
            add(
                f"link-both/{kind}/s{step}",
                scenario_link_fault,
                kind,
                step,
                both_links=True,
            )
    sync_steps = steps if not quick else steps[:1]
    for kind in kinds:
        for step in sync_steps:
            add(
                f"link-sync/{kind}/s{step}",
                scenario_link_fault,
                kind,
                step,
                sync=True,
            )
    restart_steps = steps if not quick else [2]
    for node in ("primary", "r0", "r1"):
        for crash in (False, True):
            for step in restart_steps:
                mode = "crash" if crash else "stop"
                add(
                    f"restart/{node}/{mode}/s{step}",
                    scenario_restart,
                    node,
                    crash,
                    step,
                )
    failover_steps = [1, 2, 3, 4, 5, 6, 7, 8] if not quick else [2]
    for crash in (False, True):
        for step in failover_steps:
            mode = "crash" if crash else "stop"
            add(f"failover/{mode}/s{step}", scenario_failover, crash, step)
    return found


NEGATIVE_CONTROL = ("negative-control/unfenced", scenario_negative_control)
