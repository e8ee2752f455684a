"""Resource-exhaustion chaos harness: proving the daemon under a dying disk.

The durability story so far covered *crashes* (:mod:`repro.store.crashsim`:
the process dies, the image must recover) and *network* failure
(:mod:`repro.server.netchaos`).  This harness covers the third way storage
fails in production: the process stays up but the disk stops cooperating —
``ENOSPC`` on a full volume, ``EDQUOT`` on a quota, ``EIO`` on a dying
device, and the quiet killer, a *failing fsync* (the kernel may drop the
dirty pages after reporting the error: retrying the fsync is not a
recovery strategy).

Every scenario runs a real :class:`~repro.server.daemon.ReproServer` on a
loopback socket with a :class:`~repro.store.faults.FaultPlan` slid under
its pager, drives a concurrent multi-session write workload while
injecting write/fsync failures (one-shot at the n-th I/O op, or a
persistent outage healed later), and asserts the survival invariants:

1. **the daemon never dies** — ``ping`` answers throughout, including
   while degraded;
2. **reads keep succeeding** — a poller reads a pre-seeded root during
   the outage; degraded mode is *read-only*, not *down*;
3. **degraded entry and exit** — a commit-path I/O failure flips the
   daemon into degraded mode (writes answer ``read_only``), and once the
   fault is healed the background probe recovers it without a restart;
4. **no acked write lost, no torn write resurrected** — after shutdown
   the image passes ``fsck`` clean and every root holds a value the
   workload actually acknowledged (or a later attempted value whose ack
   was lost in flight — never a rolled-back one below the acked floor);
5. under the **memory ceiling** writes shed busy-style and recover, and
   under **open-loop overload** introspection stays responsive while
   excess load sheds with typed errors — never a hung connection.

:func:`scenario_negative_control` disables degraded mode
(``unsafe_no_degraded``): a failed commit then leaves the heap's
in-memory table pointing at half-written state, and the *next* successful
commit publishes the torn write the client was told had failed — the
acked-values check must detect the resurrection.  CI inverts the
invocation; a passing negative control means the detector is broken.

The ``exhaustion`` suite of :mod:`repro.sim`: ``scripts/sim.py exhaustion``
/ ``make exhaustion-sim``.
"""

from __future__ import annotations

import errno
import os
import threading
import time

from repro.server.client import (
    BusyError,
    ClientError,
    ReadOnlyError,
    ServerError,
    connect,
)
from repro.server.daemon import ReproServer, ServerConfig
from repro.sim import scenarios, wait_until
from repro.store.faults import FaultPlan
from repro.store.fsck import fsck_image
from repro.store.heap import HeapError, ObjectHeap

__all__ = [
    "ExhaustError",
    "ExhaustionHarness",
    "NEGATIVE_CONTROL",
    "build_scenarios",
    "scenario_negative_control",
]


class ExhaustError(AssertionError):
    """A scenario invariant was violated."""


class ExhaustionHarness:
    """One daemon over a fault-planned image + a recorded write workload."""

    #: concurrent writer sessions (one key each)
    WRITERS = 3

    def __init__(self, root: str, **config_overrides):
        os.makedirs(root, exist_ok=True)
        self.image = os.path.join(root, "exhaust.tyc")
        self.plan = FaultPlan()
        defaults = dict(
            workers=2,
            queue_size=32,
            pgo_interval=None,
            history_interval=None,
            profile=False,
            # fast probe so recovery is observable within a scenario
            degraded_probe_interval=0.05,
            io_factory=self.plan.file_factory,
            enable_debug_ops=True,
        )
        defaults.update(config_overrides)
        self.server = ReproServer(self.image, ServerConfig(**defaults))
        self.server.start()
        #: per key: last value the server *acknowledged* (ok response)
        self.acked: dict[str, int] = {}
        #: per key: every value a set() was attempted with
        self.attempted: dict[str, set[int]] = {}
        self._record_lock = threading.Lock()
        self.read_failures: list[str] = []
        self.write_errors: list[str] = []
        # a stable pre-seeded root the read poller watches during outages
        with connect(self.server.port) as db:
            db.set("sentinel", 41)
        self.acked["sentinel"] = 41
        self.attempted["sentinel"] = {41}

    # ------------------------------------------------------------- workload

    def write(self, db, key: str, value: int, retry_window: float = 0.0) -> bool:
        """One recorded write; with a retry window, read_only/busy answers
        are retried until the window closes (modeling a patient client)."""
        with self._record_lock:
            self.attempted.setdefault(key, set()).add(value)
        deadline = time.monotonic() + retry_window
        while True:
            try:
                db.set(key, value)
            except (ReadOnlyError, BusyError) as exc:
                if time.monotonic() >= deadline:
                    with self._record_lock:
                        self.write_errors.append(f"{key}={value}: {exc}")
                    return False
                hint = exc.details.get("retry_after") or 0.05
                time.sleep(min(float(hint), 0.2))
            except (ClientError, ServerError) as exc:
                with self._record_lock:
                    self.write_errors.append(f"{key}={value}: {exc}")
                return False
            else:
                with self._record_lock:
                    self.acked[key] = value
                return True

    def run_writers(
        self, per_writer: int, inject_at: int | None = None, inject=None,
        retry_window: float = 5.0,
    ) -> None:
        """``WRITERS`` concurrent sessions, each writing an increasing
        sequence to its own key; ``inject()`` fires (once, from the main
        thread) when any writer reaches sequence ``inject_at``."""
        def writer(index: int) -> None:
            key = f"k{index}"
            with connect(self.server.port) as db:
                for seq in range(1, per_writer + 1):
                    if index == 0 and seq == inject_at and inject is not None:
                        inject()
                    self.write(db, key, seq, retry_window=retry_window)

        threads = [
            threading.Thread(target=writer, args=(i,), name=f"exhaust-writer-{i}")
            for i in range(self.WRITERS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            if thread.is_alive():
                raise ExhaustError("writer thread hung — daemon stopped answering")

    def start_read_poller(self, stop: threading.Event) -> threading.Thread:
        """Continuously read the sentinel root + ping: reads must always
        answer, degraded or not."""

        def poll() -> None:
            with connect(self.server.port) as db:
                while not stop.is_set():
                    try:
                        if db.ping().get("pong") is not True:
                            self.read_failures.append("ping answered oddly")
                        if db.get("sentinel")["sentinel"] != 41:
                            self.read_failures.append("sentinel value wrong")
                    except (ClientError, ServerError) as exc:
                        self.read_failures.append(f"{type(exc).__name__}: {exc}")
                    time.sleep(0.01)

        thread = threading.Thread(target=poll, name="exhaust-reader", daemon=True)
        thread.start()
        return thread

    # ------------------------------------------------------------ assertions

    def ping(self) -> dict:
        with connect(self.server.port) as db:
            return db.ping()

    def assert_alive(self) -> None:
        try:
            info = self.ping()
        except (ClientError, ServerError) as exc:
            raise ExhaustError(f"daemon stopped answering ping: {exc}") from exc
        if info.get("pong") is not True:
            raise ExhaustError(f"bad ping reply: {info}")

    def assert_degraded(self, expected: bool, timeout: float = 5.0) -> None:
        wait_until(
            lambda: bool(self.ping().get("degraded")) == expected,
            timeout,
            f"daemon never reached degraded={expected}",
        )

    def assert_write_rejected_read_only(self) -> None:
        with connect(self.server.port) as db:
            try:
                db.set("rejected", 1)
            except ReadOnlyError as exc:
                if not exc.details.get("reason"):
                    raise ExhaustError("read_only error carries no reason")
                return
            raise ExhaustError("write was accepted while degraded")

    def check_no_read_failures(self) -> None:
        if self.read_failures:
            raise ExhaustError(
                f"{len(self.read_failures)} read failures during the outage; "
                f"first: {self.read_failures[0]}"
            )

    def verify_image(self) -> dict:
        """Post-shutdown: fsck clean + every root holds a sane value.

        A root's final value must be ≥ the last acknowledged one and must
        be a value some attempt actually wrote: below the acked floor
        means an acked write was rolled back (lost); above it is legal
        only for a post-commit-point failure (durable but unacked); a
        value never attempted means corruption.
        """
        report = fsck_image(self.image)
        if not report.ok:
            raise ExhaustError(f"image failed fsck after the scenario: {report}")
        heap = ObjectHeap(self.image)
        try:
            final = {}
            for name in self.acked:
                try:
                    final[name] = heap.load_root(name)
                except HeapError:
                    final[name] = None
        finally:
            heap.close()
        for key, acked_value in sorted(self.acked.items()):
            value = final.get(key)
            if value is None:
                raise ExhaustError(f"acked root {key!r} missing from the image")
            if value < acked_value:
                raise ExhaustError(
                    f"acked write lost: {key!r} is {value}, "
                    f"last acked was {acked_value}"
                )
            if value not in self.attempted.get(key, set()):
                raise ExhaustError(
                    f"root {key!r} holds {value!r}, which no attempt ever wrote"
                )
        return {"roots": len(final), "acked": dict(self.acked)}

    def teardown(self) -> None:
        self.plan.heal()
        try:
            self.server.stop()
        except Exception:
            pass


# ---------------------------------------------------------------------------
# scenarios
# ---------------------------------------------------------------------------


def _finish(harness: ExhaustionHarness) -> dict:
    """Common tail: recovered daemon takes writes again, image verifies."""
    harness.assert_degraded(False, timeout=10.0)
    with connect(harness.server.port) as db:
        db.set("post-recovery", 7)
    harness.acked["post-recovery"] = 7
    harness.attempted.setdefault("post-recovery", set()).add(7)
    harness.server.stop()
    return harness.verify_image()


def scenario_one_shot(root: str, kind: str, nth: int, fault_errno: int) -> dict:
    """One write/fsync op fails mid-workload; the daemon degrades, rolls
    back cleanly, auto-recovers (the fault is one-shot) and keeps going."""
    harness = ExhaustionHarness(root)
    stop = threading.Event()
    try:
        harness.start_read_poller(stop)
        arm = (
            harness.plan.arm_write_failure
            if kind == "write"
            else harness.plan.arm_fsync_failure
        )
        harness.run_writers(
            per_writer=8,
            inject_at=3,
            inject=lambda: arm(nth, fault_errno=fault_errno),
        )
        harness.assert_alive()
        harness.check_no_read_failures()
        return _finish(harness)
    finally:
        stop.set()
        harness.teardown()


def scenario_persistent_outage(root: str, fault_errno: int) -> dict:
    """The disk goes away entirely and comes back: degraded for the whole
    outage (reads fine, writes read_only), auto-recovery after heal()."""
    harness = ExhaustionHarness(root)
    stop = threading.Event()
    try:
        harness.start_read_poller(stop)
        with connect(harness.server.port) as db:
            harness.write(db, "before", 1)
            harness.plan.exhaust(fault_errno)
            # this commit hits the dead disk: rejected, daemon degrades
            harness.write(db, "during", 1, retry_window=0.0)
        harness.assert_degraded(True)
        harness.assert_alive()
        harness.assert_write_rejected_read_only()
        # degraded for a few probe cycles: probes fail, daemon stays up
        time.sleep(0.3)
        harness.assert_degraded(True)
        harness.check_no_read_failures()
        harness.plan.heal()
        return _finish(harness)
    finally:
        stop.set()
        harness.teardown()


def scenario_memory_ceiling(root: str) -> dict:
    """A tiny heap budget: oversized load sheds busy-style with a
    retry-after hint, the watchdog squeezes the cache back under budget,
    and writes succeed again without a restart."""
    # the budget must clear the boot working set (a few KB of stdlib and
    # system objects) but be small enough that the bulk load blows it
    harness = ExhaustionHarness(
        root, mem_budget_bytes=16_384, mem_watchdog_interval=0.05,
    )
    stop = threading.Event()
    try:
        harness.start_read_poller(stop)
        saw_memory_busy = False
        with connect(harness.server.port) as db:
            for index in range(60):
                try:
                    # raw request: single-shot, so the typed rejection is
                    # observable instead of absorbed by the retry layer
                    db.request("set", root=f"bulk{index}", value="x" * 1024)
                except BusyError as exc:
                    if exc.details.get("reason") != "memory":
                        raise
                    saw_memory_busy = True
                    if exc.details.get("retry_after") is None:
                        raise ExhaustError("memory rejection has no retry_after")
                    break
        if not saw_memory_busy:
            raise ExhaustError("memory budget never rejected a write")
        # the watchdog sheds cache below budget; then writes flow again
        with connect(harness.server.port) as db:

            def write_after_shed() -> bool:
                try:
                    db.set("after-shed", 1)
                except BusyError:
                    return False
                return True

            wait_until(
                write_after_shed, 5.0,
                "writes never recovered after memory shedding", interval=0.05,
            )
        harness.acked["after-shed"] = 1
        harness.attempted.setdefault("after-shed", set()).add(1)
        harness.check_no_read_failures()
        harness.assert_alive()
        info = harness.ping()
        if info.get("degraded"):
            raise ExhaustError("memory pressure must not flip degraded mode")
        harness.server.stop()
        return harness.verify_image()
    finally:
        stop.set()
        harness.teardown()


def scenario_open_loop_overload(root: str) -> dict:
    """Open-loop flood of slow requests against a tiny pool: introspection
    (fast lane) keeps answering, excess load sheds with typed errors
    (backpressure/overloaded), nothing hangs, shutdown is clean."""
    harness = ExhaustionHarness(
        root, workers=1, queue_size=4, queue_wait_limit=0.2,
    )
    errors: dict[str, int] = {}
    errors_lock = threading.Lock()
    stop = threading.Event()
    try:
        def flooder() -> None:
            with connect(harness.server.port) as db:
                while not stop.is_set():
                    try:
                        db.request("sleep", seconds=0.15)
                    except ServerError as exc:
                        with errors_lock:
                            errors[exc.code] = errors.get(exc.code, 0) + 1
                    except ClientError:
                        return

        threads = [
            threading.Thread(target=flooder, name=f"flood-{i}", daemon=True)
            for i in range(8)
        ]
        for thread in threads:
            thread.start()
        # under full overload, ping and stats must answer promptly
        slow_pings = 0
        with connect(harness.server.port) as db:
            for _ in range(20):
                started = time.monotonic()
                db.ping()
                db.stats()
                if time.monotonic() - started > 1.0:
                    slow_pings += 1
                time.sleep(0.05)
        if slow_pings:
            raise ExhaustError(
                f"{slow_pings}/20 introspection rounds took >1s under overload"
            )
        stop.set()
        for thread in threads:
            thread.join(timeout=10)
            if thread.is_alive():
                raise ExhaustError("flooder hung — a connection wedged")
        with errors_lock:
            shed = errors.get("backpressure", 0) + errors.get("overloaded", 0)
        if not shed:
            raise ExhaustError(f"overload never shed a request (errors: {errors})")
        harness.assert_alive()
        harness.server.stop()
        report = fsck_image(harness.image)
        if not report.ok:
            raise ExhaustError("image failed fsck after the overload")
        return {"shed": shed, "errors": dict(errors)}
    finally:
        stop.set()
        harness.teardown()


def _measure_commit_writes(harness: ExhaustionHarness, db, key: str, value) -> int:
    """Count the write ops of one steady-state single-key commit."""
    plan = harness.plan
    plan.record_ops = True
    before = len(plan.op_log)
    db.set(key, value)
    writes = plan.op_log[before:].count("write")
    plan.record_ops = False
    return writes


def scenario_negative_control(root: str) -> dict:
    """Degraded mode OFF: the torn-write resurrection MUST be detected.

    A steady-state single-key commit's write sequence is: payload chain,
    table chain, (data fsync), the header-slot write, (the commit-point
    fsync), then the free-list resync — free-list record and a second
    header-slot write.  Failing the *first header-slot write* (the last
    write before the commit point — position ``W-2`` of a ``W``-write
    commit, measured on an identical steady-state commit; the last two
    writes belong to the post-commit free-list sync) leaves durable
    state untouched but the in-memory table torn.  Without
    ``rollback_to_durable`` the next successful commit publishes that
    table — resurrecting the value the client was told had failed.  The
    check must catch exactly that; CI inverts this script's exit code.
    """
    harness = ExhaustionHarness(root, unsafe_no_degraded=True)
    try:
        with connect(harness.server.port) as db:
            db.set("ctrl", 100)   # acked
            db.set("ctrl", 140)   # warm-up: free list reaches steady state
            # identical-size commits in steady state: same write count as
            # the armed one (pages come from the free list, no growth);
            # measure twice and demand agreement so the arming is exact
            writes = _measure_commit_writes(harness, db, "ctrl", 150)
            again = _measure_commit_writes(harness, db, "ctrl", 160)
            if writes != again or writes < 4:
                raise ExhaustError(
                    f"commit write count unstable ({writes} vs {again}); "
                    "cannot arm the header-write failure deterministically"
                )
            # W-2: the pre-commit-point header-slot write (W-1 and W are
            # the post-commit free-list record + second header write)
            harness.plan.arm_write_failure(writes - 2)
            try:
                db.set("ctrl", 200)  # fails: the client is told "no"
            except (ClientError, ServerError):
                pass
            else:
                raise ExhaustError("armed write failure did not fail the write")
            db.set("other", 1)  # unrelated commit publishes the torn table
            resurrected = db.get("ctrl")["ctrl"]
        harness.server.stop()
        if resurrected == 200:
            raise ExhaustError(
                "torn write resurrected: a value the client was told had "
                "failed became visible after an unrelated commit"
            )
        return {"ctrl": resurrected}
    finally:
        harness.teardown()


def build_scenarios(quick: bool = False) -> list[tuple[str, callable]]:
    """The sweep: (name, thunk(root)) pairs — write/fsync one-shot faults
    across op positions and errnos, a persistent outage per errno, the
    memory ceiling and the open-loop overload."""
    found, add = scenarios()
    errnos = {"enospc": errno.ENOSPC, "eio": errno.EIO, "edquot": errno.EDQUOT}
    if quick:
        errnos = {"enospc": errno.ENOSPC, "eio": errno.EIO}
    nths = [1, 2] if quick else [1, 2, 3, 5, 8]
    for label, code in errnos.items():
        for kind in ("write", "fsync"):
            for nth in nths:
                add(f"one-shot/{kind}/{label}/n{nth}",
                    scenario_one_shot, kind, nth, code)
        add(f"outage/{label}", scenario_persistent_outage, code)
    add("memory/ceiling", scenario_memory_ceiling)
    add("overload/open-loop", scenario_open_loop_overload)
    return found


NEGATIVE_CONTROL = ("negative-control/no-degraded", scenario_negative_control)
