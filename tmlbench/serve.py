"""Server workloads: a ``repro serve`` daemon driven by two closed-loop
connections from this process.

``kv-big``
    A replicating primary (commit log on, no follower) over 8 192 roots,
    twice the daemon's 4 096-object heap cache.  90 % ``get``, 10 % ``set``
    over uniform keys; the VM never runs.
``mixed-small``
    A plain daemon over 2 000 roots, which fit the cache.  60 % ``get``,
    20 % ``set``, 20 % ``call sieve.run(50)`` of a stored Stanford module.

Each connection owns every second key, so the model of acknowledged
writes is exact without cross-connection ordering.  Every reply is checked
against it.  Errors are counted as failed operations; no retry policy is
used.  At the end every key is read back, the daemon is shut down
gracefully and ``repro fsck`` must find the image clean.
"""

from __future__ import annotations

import os
import random
import shutil
import signal
import string
import subprocess
import sys
import threading
import time
from collections import Counter

from tmlbench import common, spans

#: each connection repeats its ``block`` of operations, every block in a
#: fresh seeded order, so every stretch of the run has the same mix
WORKLOADS = {
    "kv-big": {"roots": 8192, "replicate": True, "block": ["get"] * 9 + ["set"]},
    "mixed-small": {
        "roots": 2000,
        "replicate": False,
        "block": ["get"] * 3 + ["set", "call"],
    },
}
SETUPS = 5
CONNECTIONS = 2
BATCH = 512
CALL_ARG = 50
LAUNCHER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "launcher.py")
_ALPHABET = string.ascii_letters + string.digits


def key_name(index: int) -> str:
    return f"k{index:05d}"


def make_value(rng: random.Random, key: str, version: int) -> str:
    """A user value: the key, a write counter and 16–112 filler bytes."""
    filler = "".join(rng.choices(_ALPHABET, k=rng.randint(16, 112)))
    return f"{key}/{version}/{filler}"


class Daemon:
    """One daemon process over a fresh image directory."""

    def __init__(self, workdir: str, replicate: bool, span_out: str | None = None):
        os.makedirs(workdir, exist_ok=True)
        self.image = os.path.join(workdir, "image.tyc")
        self.span_out = span_out
        serve = [
            "serve", self.image, "--port", "0",
            # background rewrites and snapshots would commit at times
            # unrelated to the load; both are off
            "--no-pgo", "--history-interval", "0",
        ]
        if replicate:
            serve.append("--replicate")
        if span_out is None:
            argv = [sys.executable, "-m", "repro", *serve]
        else:
            argv = [sys.executable, LAUNCHER, span_out, *serve]
        self._stdout = open(os.path.join(workdir, "daemon.out"), "w+")
        self._stderr = open(os.path.join(workdir, "daemon.err"), "w+")
        self.proc = subprocess.Popen(
            argv, stdout=self._stdout, stderr=self._stderr,
            env=common.src_env(), cwd=common.ROOT,
        )
        self.port = self._wait_listening()

    def _wait_listening(self, timeout: float = 60.0) -> int:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            with open(self._stdout.name) as out:
                for line in out:
                    if line.startswith("listening on "):
                        return int(line.rsplit(":", 1)[1])
            if self.proc.poll() is not None:
                break
            time.sleep(0.01)
        self.kill()
        raise RuntimeError(f"daemon did not start: {self.stderr_tail()}")

    def stderr_tail(self) -> str:
        with open(self._stderr.name) as err:
            return err.read()[-2000:]

    def start_recording(self, timeout: float = 10.0) -> None:
        """Switch the launcher's span recording on and wait until it is."""
        self.proc.send_signal(signal.SIGUSR1)
        deadline = time.monotonic() + timeout
        while not os.path.exists(self.span_out + ".on"):
            if time.monotonic() > deadline:
                raise RuntimeError("the daemon did not start recording")
            time.sleep(0.01)

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
        raise RuntimeError("no VmHWM for the daemon")

    def shutdown(self, client) -> None:
        client.shutdown()
        client.close()
        self.proc.wait(timeout=60)
        self._close_files()
        if self.proc.returncode != 0:
            raise RuntimeError(f"daemon exited {self.proc.returncode}: {self.stderr_tail()}")

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._close_files()

    def _close_files(self) -> None:
        self._stdout.close()
        self._stderr.close()

    def fsck_clean(self) -> bool:
        done = subprocess.run(
            [sys.executable, "-m", "repro", "fsck", self.image],
            capture_output=True, text=True, env=common.src_env(), cwd=common.ROOT,
            timeout=150,
        )
        if done.returncode != 0:
            print(f"# fsck: {done.stdout[-1000:]} {done.stderr[-1000:]}", file=sys.stderr)
        return done.returncode == 0


class Model:
    """Acknowledged writes: key -> the values a read may return.

    A write that failed may or may not have landed, so its key accepts
    both the old and the new value until the next acknowledged write.
    """

    def __init__(self):
        self.values: dict[str, set[str]] = {}

    def acked(self, key: str, value: str) -> None:
        self.values[key] = {value}

    def unknown(self, key: str, value: str) -> None:
        self.values.setdefault(key, set()).add(value)

    def allows(self, key: str, value) -> bool:
        return value in self.values.get(key, ())


class Run:
    """Shared state of one workload run: model, outcomes, timings."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.spec = spec = WORKLOADS[workload]
        self.seed = seed
        self.model = Model()
        self.keys = [key_name(i) for i in range(spec["roots"])]
        self.sieve_expected = None
        self.call_instructions: int | None = None
        self.wrong: list[str] = []
        self.failures: Counter = Counter()
        self.attempted = 0
        self.failed = 0
        #: UTF-8 bytes of acknowledged ``set`` values, per load phase
        self.set_bytes: Counter = Counter()
        self._lock = threading.Lock()

    # ------------------------------------------------------------- set-up

    def setup(self, workdir: str, span_out: str | None = None):
        """Boot and preload one daemon (plus, on ``mixed-small``, install
        the sieve module and warm the code cache with one call); returns
        (daemon, client, seconds)."""
        from repro.server.client import Client

        start = time.perf_counter()
        shutil.rmtree(workdir, ignore_errors=True)
        daemon = Daemon(workdir, self.spec["replicate"], span_out)
        try:
            client = Client("127.0.0.1", daemon.port, timeout=60, trace_sample=0.0)
            rng = random.Random(self.seed)
            initial = {k: make_value(rng, k, 0) for k in self.keys}
            # one bulk commit; it leaves the newest objects in the heap
            # cache, so no separate warm-up read is needed
            client.mset(initial)
            if "call" in self.spec["block"]:
                from repro.bench.stanford import PROGRAMS

                client.run(PROGRAMS["sieve"].source)
                self.sieve_expected = PROGRAMS["sieve"].reference(CALL_ARG)
                self._check_call(client.call("sieve", "run", [CALL_ARG], full=True))
            for k, v in initial.items():
                self.model.acked(k, v)
        except BaseException:
            daemon.kill()
            raise
        return daemon, client, time.perf_counter() - start

    def read_back(self, client) -> None:
        """Read every key in batches and check it against the model."""
        for i in range(0, len(self.keys), BATCH):
            chunk = self.keys[i:i + BATCH]
            values = client.get(*chunk)
            for k in chunk:
                if not self.model.allows(k, values.get(k)):
                    self.wrong.append(f"read-back {k} = {values.get(k)!r}")

    def _check_call(self, result: dict) -> None:
        if result["value"] != self.sieve_expected:
            self.wrong.append(f"sieve.run({CALL_ARG}) = {result['value']!r}")
        if self.call_instructions is None:
            self.call_instructions = result["instructions"]
        elif result["instructions"] != self.call_instructions:
            self.wrong.append(
                f"sieve.run({CALL_ARG}) ran {result['instructions']} instructions, "
                f"first call ran {self.call_instructions}"
            )

    # ---------------------------------------------------------- the loop

    def drive(self, port: int, seconds: float, phase: int) -> tuple[int, dict[str, list]]:
        """Two closed-loop connections for ``seconds``; returns the start
        time and, per kind, the (start_ns, end_ns) of every completed op."""
        ops: list[list] = [[] for _ in range(CONNECTIONS)]
        errors: list[BaseException] = []
        start_ns = time.perf_counter_ns()
        deadline = time.perf_counter() + seconds

        def connection(index: int) -> None:
            try:
                self._connection(index, port, deadline, ops[index], phase)
            except BaseException as exc:  # surfaced by the caller
                errors.append(exc)

        threads = [
            threading.Thread(target=connection, args=(i,), name=f"bench-conn-{i}")
            for i in range(CONNECTIONS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=seconds + 120)
            if thread.is_alive():
                raise RuntimeError("a load connection did not finish")
        if errors:
            raise errors[0]
        merged: dict[str, list] = {}
        for conn_ops in ops:
            for op, start, end in conn_ops:
                merged.setdefault(op, []).append((start, end))
        return start_ns, merged

    def _connection(self, index: int, port: int, deadline: float, out: list, phase: int):
        from repro.server.client import Client, ClientError, ServerError

        rng = random.Random(f"{self.seed}/{phase}/{index}")
        owned = self.keys[index::CONNECTIONS]
        block = list(self.spec["block"])
        schedule: list[str] = []
        version = 0
        client = Client("127.0.0.1", port, timeout=60, trace_sample=0.0)
        try:
            while time.perf_counter() < deadline:
                if not schedule:
                    rng.shuffle(block)
                    schedule = list(reversed(block))
                op = schedule.pop()
                key = rng.choice(owned)
                if op == "set":
                    version += 1
                    value = make_value(rng, key, version + 1_000_000 * (phase + 1))
                start = time.perf_counter_ns()
                try:
                    if op == "get":
                        result = client.get(key)
                    elif op == "set":
                        result = client.set(key, value)
                    else:
                        result = client.call("sieve", "run", [CALL_ARG], full=True)
                except (ServerError, ClientError) as exc:
                    if op == "set":
                        self.model.unknown(key, value)
                    with self._lock:
                        self.attempted += 1
                        self.failed += 1
                        self.failures[f"{op}: {exc}"[:120]] += 1
                    continue
                end = time.perf_counter_ns()
                out.append((op, start, end))
                with self._lock:
                    self.attempted += 1
                if op == "get":
                    if not self.model.allows(key, result.get(key)):
                        with self._lock:
                            self.wrong.append(f"get {key} = {result.get(key)!r}")
                elif op == "set":
                    self.model.acked(key, value)
                    with self._lock:
                        self.set_bytes[phase] += len(value.encode())
                else:
                    with self._lock:
                        self._check_call(result)
        finally:
            client.close()


def _metric_deltas(before: dict, after: dict) -> dict:
    out = {}
    for name, entry in after.get("metrics", {}).items():
        if entry.get("type") == "counter":
            out[name] = entry["value"] - before.get("metrics", {}).get(name, {}).get("value", 0)
    return out


def _latencies_ms(ops: dict[str, list]) -> dict[str, list[float]]:
    return {op: [(e - s) / 1e6 for s, e in pairs] for op, pairs in ops.items()}


def run(workload: str, seed: int, seconds: float, trace: bool) -> int:
    state = Run(workload, seed)
    base = os.path.join(common.WORK, workload)
    shutil.rmtree(base, ignore_errors=True)
    daemon = None
    try:
        setup_times = []
        for i in range(SETUPS):
            last = i == SETUPS - 1
            span_out = os.path.join(base, "spans.json") if trace and last else None
            if span_out:
                os.makedirs(base, exist_ok=True)
            state.model = Model()
            daemon, client, elapsed = state.setup(os.path.join(base, f"setup{i}"), span_out)
            setup_times.append(elapsed)
            if not last:
                daemon.shutdown(client)
                daemon = None
                shutil.rmtree(os.path.join(base, f"setup{i}"))
        # set-up's dirty pages are written back before timing starts, not
        # during the first measured commits
        os.sync()
        if trace:
            return _traced(state, daemon, client, seconds, span_out)
        before = client.stats(metrics=True)
        start_ns, ops = state.drive(daemon.port, seconds, phase=0)
        elapsed = (time.perf_counter_ns() - start_ns) / 1e9
        after = client.stats(metrics=True)
        rss_mb = daemon.peak_rss_mb()
        state.read_back(client)
        image_bytes = os.path.getsize(daemon.image)
        daemon.shutdown(client)
        fsck_ok = daemon.fsck_clean()
        daemon = None
    finally:
        if daemon is not None:
            daemon.kill()

    lat = _latencies_ms(ops)
    done = sum(len(pairs) for pairs in ops.values())
    deltas = _metric_deltas(before, after)
    rows = {
        "setup_s (each)": " ".join(f"{t:.3f}" for t in setup_times),
        "ops": done,
        "failed": state.failed,
        "mean ops/s": done / elapsed,
        "space_amp": image_bytes / _payload_bytes(state),
        "commits": deltas.get("store.heap.commits", 0),
        "op: n / min / p50 / p95 / p99 ms": "",
    }
    rows.update(common.kind_rows(lat))
    for message, count in state.failures.most_common(10):
        rows[f"failure x{count}"] = message
    common.table(workload, rows)
    metrics = {
        "setup_s": common.median(setup_times),
        "rss_mb": rss_mb,
        # the fastest operations: on a shared host the slow stretches come
        # from neighbours, the fast ones from the code
        "min_ms": common.kind_gm(lat, 0.0),
    }
    return _finish(state, fsck_ok, metrics, common.END_TO_END)


def _payload_bytes(state: Run) -> int:
    """User payload: the UTF-8 bytes of every key's current value."""
    total = 0
    for key in state.keys:
        values = state.model.values[key]
        total += len(min(values).encode()) if values else 0
    return total


def _traced(state: Run, daemon: Daemon, client, seconds: float, span_out: str) -> int:
    """Half the time untraced, then switch the daemon's recorder on."""
    try:
        off_start, off = state.drive(daemon.port, seconds / 2, phase=0)
        off_elapsed = (time.perf_counter_ns() - off_start) / 1e9
        daemon.start_recording()
        before = client.stats(metrics=True)
        window_start, on = state.drive(daemon.port, seconds / 2, phase=1)
        window_end = time.perf_counter_ns()
        after = client.stats(metrics=True)
        state.read_back(client)
        image_bytes = os.path.getsize(daemon.image)
        daemon.shutdown(client)
        fsck_ok = daemon.fsck_clean()
        daemon = None
    finally:
        if daemon is not None:
            daemon.kill()
    recorded = spans.load(span_out)
    window = [s for s in recorded if s[1] >= window_start and s[2] <= window_end]
    deltas = _metric_deltas(before, after)
    off_ops = sum(len(v) for v in off.values())
    on_lat = _latencies_ms(on)
    on_ops = sum(len(v) for v in on_lat.values())
    on_elapsed = (window_end - window_start) / 1e9
    selfs = spans.self_times(window)

    def mean_self(name: str, per: int | None = None) -> float:
        count = per if per is not None else len(spans.by_name(window, name))
        return selfs.get(name, 0) / 1e6 / count if count else 0.0

    handles = spans.by_name(window, "server.handle")
    commits = spans.by_name(window, "store.commit")
    vm_calls = spans.by_name(window, "machine.vm")
    loads = sum(h[6].get("heap_load", 0) for h in handles)
    vm_instr = sum(s[6].get("instructions", 0) for s in vm_calls)
    handler_ms = sum(h[2] - h[1] for h in handles) / len(handles) / 1e6 if handles else 0.0
    client_ms = sum(sum(v) for v in on_lat.values()) / on_ops if on_ops else 0.0
    user_bytes = state.set_bytes[1]
    cache = (after["codecache"]["hits"] - before["codecache"]["hits"],
             after["codecache"]["misses"] - before["codecache"]["misses"])
    metrics = dict.fromkeys(common.PER_LAYER, 0.0)
    metrics.update({
        "machine.instructions": state.call_instructions or 0,
        "machine.ns_per_instr": sum(s[2] - s[1] for s in vm_calls) / vm_instr if vm_instr else 0.0,
        "store.commit_ms": mean_self("store.commit"),
        "store.sync_ms": mean_self("store.sync", len(commits)),
        "store.fsyncs_per_commit": common.median(c[6].get("fsync", 0) for c in commits),
        "store.pages_written_per_commit": common.median(c[6].get("page_write", 0) for c in commits),
        "store.bytes_written_per_user_byte": (
            (deltas.get("store.pager.bytes_written", 0) + deltas.get("store.commitlog.bytes", 0))
            / user_bytes if user_bytes else 0.0
        ),
        "store.log_append_ms": mean_self("store.log_append"),
        "store.cache_miss_ratio": len(spans.by_name(window, "store.read_chain")) / loads if loads else 0.0,
        "store.read_chain_ms": mean_self("store.read_chain"),
        "store.decode_ms": mean_self("store.decode"),
        "store.space_amp": image_bytes / _payload_bytes(state),
        "server.lock_wait_ms": mean_self("server.lock_wait", len(handles)),
        "server.handler_ms": handler_ms,
        "server.wire_ms": client_ms - handler_ms,
        "server.codecache_hit_ratio": cache[0] / sum(cache) if sum(cache) else 0.0,
        "trace.overhead": (off_ops / off_elapsed) / (on_ops / on_elapsed) if on_ops else 0.0,
    })
    common.table(f"{state.workload} traced", {
        "untraced ops": off_ops,
        "traced ops": on_ops,
        "commits": len(commits),
        "spans in window": len(window),
        **{f"self ms [{k}]": v for k, v in spans.layer_table(window).items()},
        **{f"failure x{c}": m for m, c in state.failures.most_common(10)},
    })
    return _finish(state, fsck_ok, metrics, common.PER_LAYER)


def _finish(state: Run, fsck_ok: bool, metrics: dict, units: dict) -> int:
    for message in state.wrong[:20]:
        print(f"# WRONG: {message}", file=sys.stderr)
    if not fsck_ok:
        state.wrong.append("fsck found the image unclean")
    correct = not state.wrong
    common.emit(correct, state.attempted, state.failed, metrics, units)
    return 0 if correct else 1
