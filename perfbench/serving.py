"""The serve phase of the pipeline: a matvec server in its own process.

``Server.__init__`` starts ``python -m repro serve`` (default settings) on a
unix socket; ``open`` sends one ``partition`` request for the workload's
target (the cold build, ``serve.cold_build_s``) and starts two client
processes. Each round, ``round`` then

* sends every pool vector once over one connection and checks each reply
  against scipy and, from the second round on, bitwise against the first
  round's reply (one check per vector);
* runs one closed-loop client for ``one_client_s`` (one check: every reply
  bitwise equal to the first reply for its vector);
* runs the two client processes as closed-loop clients, each on its own
  connection, for ``two_client_s`` (one check each).

Requests carry vectors in the binary encoding. Separate client processes
keep the two clients from queueing on one interpreter lock, as two
independent callers would not.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

import checks
from common import Checks, median, metric, percentile, timed

WARMUP_REQUESTS = 10
START_TIMEOUT_S = 60.0


def _connect(sock: str, proc: subprocess.Popen):
    from repro.serve import ServeClient

    deadline = time.monotonic() + START_TIMEOUT_S
    while True:
        if proc.poll() is not None:
            raise RuntimeError(f"server exited with code {proc.returncode} before listening")
        try:
            return ServeClient(sock)
        except OSError:
            if time.monotonic() > deadline:
                raise
            time.sleep(0.02)


def _client(sock: str, target: dict, pool: np.ndarray, refs: np.ndarray, seed,
            seconds: float, barrier=None) -> dict:
    """One closed-loop client for *seconds*: latencies, spans and whether
    every reply was bitwise equal to the first reply for its vector."""
    from repro.serve import ServeClient

    pick = np.random.default_rng(seed)
    msg = {"op": "matvec", **target}
    lat, spans, bad = [], [], []
    with ServeClient(sock) as c:
        for _ in range(WARMUP_REQUESTS):
            c.request(msg, x=pool[0])
        if barrier is not None:
            barrier.wait(timeout=START_TIMEOUT_S)
        t_start = time.perf_counter()
        stop = t_start + seconds
        while time.perf_counter() < stop:
            idx = int(pick.integers(len(pool)))
            t0 = time.perf_counter()
            resp, y = c.request(msg, x=pool[idx])
            lat.append(time.perf_counter() - t0)
            spans.append(resp.get("spans_ms", {}))
            if not checks.same_reply(resp, y, refs[idx]):
                bad.append(idx)
        elapsed = time.perf_counter() - t_start
    return {"lat": lat, "spans": spans, "elapsed": elapsed, "bad": bad}


def _client_worker(sock: str, target: dict, pool: np.ndarray, commands, results,
                   barrier) -> None:
    """A client process: runs ``_client`` for each ``(refs, seed, seconds)``
    command until it receives ``None``."""
    while (cmd := commands.get()) is not None:
        try:
            results.put(_client(sock, target, pool, *cmd, barrier=barrier))
        except BaseException as exc:  # reported to, and raised by, the parent
            barrier.abort()
            results.put({"error": repr(exc)})


class Server:
    """The server process, its two client processes and the serve samples."""

    def __init__(self, work: Path) -> None:
        self.sock = os.path.relpath(work / "s.sock")  # unix socket paths are short
        with open(work / "server.log", "wb") as log:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--socket", self.sock],
                stdout=log, stderr=subprocess.STDOUT, start_new_session=True,
            )
        self.workers: list = []
        self.refs = None
        self.serial = {"lat": [], "spans": []}
        self.pair_lat: list[float] = []
        self.pair_elapsed = 0.0
        self.matvecs = self.flushes = 0

    def open(self, target: dict, A, pool: np.ndarray, seed: int) -> None:
        """Cold-build *target* in the server and start the client processes."""
        self.target, self.A, self.pool, self.seed = target, A, pool, seed
        with _connect(self.sock, self.proc) as c:
            (resp, _), self.cold_build_s = timed(c.request, {"op": "partition", **target})
        if not (resp.get("ok") and resp.get("n") == A.shape[0]):
            raise RuntimeError(f"cold build failed: {resp.get('error')}")
        ctx = multiprocessing.get_context("spawn")
        self.barrier = ctx.Barrier(3)
        self.results = ctx.Queue()
        for _ in range(2):
            commands = ctx.Queue()
            proc = ctx.Process(target=_client_worker, args=(
                self.sock, target, pool, commands, self.results, self.barrier))
            proc.start()
            self.workers.append((proc, commands))

    def _serial_pass(self, ck: Checks) -> None:
        """Each pool vector once; the first round's replies become the refs."""
        first = self.refs is None
        if first:
            self.refs = np.full(self.pool.shape, np.nan)  # NaN equals nothing
        with _connect(self.sock, self.proc) as c:
            for i, x in enumerate(self.pool):
                resp, y = c.request({"op": "matvec", **self.target}, x=x)
                ok = bool(resp.get("ok")) and y is not None and checks.matvec_agrees(self.A, x, y)
                if first and ok:
                    self.refs[i] = y
                elif not first:
                    ok = ok and checks.same_reply(resp, y, self.refs[i])
                ck.check(ok, f"served answer for pool vector {i} wrong: {resp.get('error')}")

    def _batch_totals(self) -> tuple[int, int]:
        """(matvecs, flushes) of the target engine, from the ``stats`` op."""
        with _connect(self.sock, self.proc) as c:
            resp, _ = c.request({"op": "stats"})
        (entry,) = resp["resident"]
        return entry["batch"]["matvecs"], sum(entry["batch"]["flushes"].values())

    def round(self, ck: Checks, index: int, cfg: dict) -> None:
        self._serial_pass(ck)
        out = _client(self.sock, self.target, self.pool, self.refs,
                      [self.seed, index, 0], cfg["one_client_s"])
        ck.check(not out["bad"], f"one client: replies for {out['bad'][:5]} differ")
        self.serial["lat"] += out["lat"]
        self.serial["spans"] += out["spans"]

        m0, f0 = self._batch_totals()
        for k, (_, commands) in enumerate(self.workers, start=1):
            commands.put((self.refs, [self.seed, index, k], cfg["two_client_s"]))
        try:
            self.barrier.wait(timeout=START_TIMEOUT_S)
        except threading.BrokenBarrierError:
            pass  # a client failed before the start; its error arrives below
        outs = [self.results.get(timeout=cfg["two_client_s"] + START_TIMEOUT_S)
                for _ in self.workers]
        errors = [o["error"] for o in outs if "error" in o]
        if errors:
            raise RuntimeError(f"client process failed: {errors[0]}")
        m1, f1 = self._batch_totals()
        for o in outs:
            ck.check(not o["bad"], f"two clients: replies for {o['bad'][:5]} differ")
            self.pair_lat += o["lat"]
        self.pair_elapsed += max(o["elapsed"] for o in outs)
        self.matvecs += m1 - m0
        self.flushes += f1 - f0

    def layers(self) -> dict:
        """The serve layer's per-layer figures over all rounds."""
        from repro.serve import decode_vector, encode_vector

        spans = self.serial["spans"]
        out = {
            "serial_p50_ms": metric(median(self.serial["lat"]) * 1e3, "ms"),
            "serve_p50_ms": metric(median(self.pair_lat) * 1e3, "ms"),
            "serve_p99_ms": metric(percentile(self.pair_lat, 99) * 1e3, "ms"),
            "serve_rps": metric(len(self.pair_lat) / self.pair_elapsed, "req/s"),
            "serve.mean_batch_size": metric(self.matvecs / max(self.flushes, 1), "count"),
            "serve.flushes": metric(self.flushes, "count"),
            "serve.cold_build_s": metric(self.cold_build_s, "s"),
        }
        for name, key in (("queue", "queue_ms"), ("batch", "batch_wait_ms"),
                          ("compute", "compute_ms")):
            out[f"serve.{key}"] = metric(median([s.get(name, 0.0) for s in spans]), "ms")
        rest = [lat * 1e3 - sum(s.values()) for lat, s in zip(self.serial["lat"], spans)]
        out["serve.unattributed_ms"] = metric(median(rest), "ms")

        with _connect(self.sock, self.proc) as c:
            for _ in range(20):
                c.request({"op": "health"})
            wire = [timed(c.request, {"op": "health"})[1] for _ in range(300)]
        out["serve.wire_floor_ms"] = metric(median(wire) * 1e3, "ms")

        enc, dec = [], []
        for i in range(300):
            y = self.pool[i % len(self.pool)]
            frame, dt = timed(encode_vector, {"id": "r", "ok": True, "op": "matvec"}, y, "bin")
            enc.append(dt)
            _, _, payload = frame.partition(b"\n")  # JSON line, then raw payload
            _, dt = timed(decode_vector, {"bin": len(payload)}, payload, len(y))
            dec.append(dt)
        out["serve.protocol.encode_ms"] = metric(median(enc) * 1e3, "ms")
        out["serve.protocol.decode_ms"] = metric(median(dec) * 1e3, "ms")
        return out

    def close(self) -> None:
        """Stop the client processes, then the server (graceful shutdown;
        its process group is killed if it lingers)."""
        for proc, commands in self.workers:
            commands.put(None)
        for proc, _ in self.workers:
            proc.join(timeout=30)
            if proc.is_alive():
                proc.kill()
                proc.join()
        try:
            with _connect(self.sock, self.proc) as c:
                c.request({"op": "shutdown"})
            self.proc.wait(timeout=30)
        except (OSError, RuntimeError, subprocess.TimeoutExpired):
            pass
        finally:
            try:
                os.killpg(self.proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            self.proc.wait()
