"""The ``serve`` workload: the daemon as its users see it.

``python -m repro serve --port 0`` runs in its own process (the traced
run first starts it through ``perfbench/serve_launcher.py``, then once
more untraced).  An open-loop client in this process sends the seeded
request stream at ``SERVE_RATE`` requests per second with at most
``SERVE_MAX_IN_FLIGHT`` connections in flight, one connection per request
as ``repro.service.ServiceClient`` does, and times each request from when
it was due.
"""

from __future__ import annotations

import hashlib
import json
import os
import socket
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional

import checks
import workloads

#: Response fields that legitimately differ between a miss and a later hit
#: on the same entry; everything else must be byte-identical.
VOLATILE = ("cache", "queue_seconds", "optimize_seconds")


class Daemon:
    """One daemon process: started, timed to its first answer, stopped."""

    def __init__(self, root, env, traced: bool, spans_out: str = "") -> None:
        capacity = str(workloads.SERVE_CACHE_CAPACITY)
        if traced:
            cmd = [sys.executable, "perfbench/serve_launcher.py", "--port", "0",
                   "--cache-capacity", capacity, "--spans-out", spans_out]
        else:
            cmd = [sys.executable, "-m", "repro", "serve", "--port", "0",
                   "--cache-capacity", capacity]
        spawned = time.perf_counter()
        self.proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE, text=True)
        watchdog = threading.Timer(60.0, self.proc.kill)
        watchdog.start()
        try:
            line = self.proc.stdout.readline()
        finally:
            watchdog.cancel()
        if "listening on" not in line:
            self.stop()
            raise RuntimeError(f"daemon did not start (first line {line!r})")
        self.port = int(line.rsplit(":", 1)[1])
        self.request({"op": "ping"})
        self.setup_s = time.perf_counter() - spawned
        self.rusage = None

    def request(self, payload: Dict[str, object]) -> Dict[str, object]:
        with socket.create_connection(("127.0.0.1", self.port), timeout=120.0) as sock:
            sock.sendall(json.dumps(payload).encode("utf-8") + b"\n")
            with sock.makefile("rb") as stream:
                return json.loads(stream.readline())

    def stop(self) -> None:
        """Ask for a clean shutdown, reap the process, keep its rusage."""
        if self.proc.poll() is None and getattr(self, "port", None):
            try:
                self.request({"op": "shutdown"})
            except OSError:
                pass
        deadline = time.monotonic() + 30.0
        while True:
            pid, status, rusage = os.wait4(self.proc.pid, os.WNOHANG)
            if pid:
                self.proc.returncode = os.waitstatus_to_exitcode(status)
                self.rusage = rusage
                break
            if time.monotonic() > deadline:
                self.proc.kill()
                deadline = float("inf")
            time.sleep(0.02)
        self.proc.stdout.close()


def open_loop(port: int, lines: List[bytes], dues: List[float]) -> Dict[str, object]:
    """Send ``lines[i]`` at ``start + dues[i]``; at most 2 connections in flight."""
    n = len(lines)
    results: List[Optional[tuple]] = [None] * n
    lock = threading.Lock()
    cursor = [0]
    start = time.perf_counter() + 0.05

    def sender() -> None:
        while True:
            with lock:
                i = cursor[0]
                cursor[0] += 1
            if i >= n:
                return
            due = start + dues[i]
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            sent = time.perf_counter()
            try:
                with socket.create_connection(("127.0.0.1", port), timeout=120.0) as sock:
                    sock.sendall(lines[i])
                    with sock.makefile("rb") as stream:
                        line = stream.readline()
            except OSError as exc:
                line = json.dumps({"ok": False, "error": {"type": "client", "message": str(exc)}}).encode()
            results[i] = (due, sent, time.perf_counter(), line)

    threads = [threading.Thread(target=sender) for _ in range(workloads.SERVE_MAX_IN_FLIGHT)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return {"start": start, "end": max(r[2] for r in results), "results": results}


def _payload_bytes(response: Dict[str, object]) -> bytes:
    return json.dumps({k: v for k, v in response.items() if k not in VOLATILE}).encode()


def _digest(doc: object) -> str:
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()[:16]


def _work_signature(response: Dict[str, object]) -> tuple:
    """Work counts a miss must repeat for every presentation of its graph.

    Costs are compared to nine significant digits: another node order sums
    the same per-node costs in another order.
    """
    stats = response["stats"]
    return (
        stats["iterations"], stats["enodes"], stats["ilp_num_variables"],
        float(f"{response['original_cost_ms']:.9g}"), float(f"{response['optimized_cost_ms']:.9g}"),
    )


def run(root, env, seed: int, seconds: float, traced: bool, spans_out: str = "",
        setup_samples: int = 1) -> Dict[str, object]:
    """One serve run: start-up samples, warm-up, the timed stream, checks.

    A traced run drives the traced daemon with the stream, then an untraced
    one with the same stream, one after the other, so that each sees the
    same load as an untraced run; the untraced daemon's result is returned
    under ``"reference"``.
    """
    from repro.ir.serialize import graph_to_doc
    from repro.models import build_model

    pool = workloads.serve_pool(seed)
    docs = [graph_to_doc(inp.build()) for inp in pool]
    schedule = workloads.serve_schedule(seed, seconds)
    submitted = [workloads.present(docs[r.graph], r.presentation, salt=r.index) for r in schedule]
    lines = [
        json.dumps({"op": "optimize", "graph": doc, "config": {}}).encode("utf-8") + b"\n"
        for doc in submitted
    ]
    warmup = graph_to_doc(build_model("resnet", "tiny", image=20))

    setup = []
    for _ in range(setup_samples - 1):
        daemon = Daemon(root, env, traced=False)
        setup.append(daemon.setup_s)
        daemon.stop()
    results = []
    for daemon_traced in ([True, False] if traced else [False]):
        daemon = Daemon(root, env, traced=daemon_traced, spans_out=spans_out)
        if not results:
            setup.append(daemon.setup_s)
        try:
            # Lazy set-up (the rule trie compiles on the first optimize
            # request) finishes before timing, on a graph outside the pool.
            daemon.request({"op": "optimize", "graph": warmup, "config": {}})
            before = daemon.request({"op": "status"})["status"]["cache"]["evictions"]
            stream = open_loop(daemon.port, lines, [r.due for r in schedule])
            evictions = daemon.request({"op": "status"})["status"]["cache"]["evictions"] - before
        finally:
            daemon.stop()
        results.append(_analyze(seed, pool, schedule, submitted, stream, daemon, evictions))
    results[0]["setup_samples"] = setup
    if traced:
        results[0]["reference"] = results[1]
    return results[0]


def _analyze(seed, pool, schedule, submitted, stream, daemon, evictions) -> Dict[str, object]:
    """Checks and statistics of one daemon's answers to the stream."""
    from repro.ir.serialize import graph_from_doc

    responses, latencies, late, io = [], [], [], []
    for due, sent, done, line in stream["results"]:
        try:
            responses.append(json.loads(line))
        except json.JSONDecodeError:
            responses.append({"ok": False, "error": {"type": "client", "message": "bad response"}})
        latencies.append(done - due)
        late.append(max(0.0, sent - due))
        io.append(done - sent)

    failures: Dict[int, str] = {}
    fingerprints: Dict[int, set] = {}
    misses: Dict[tuple, List[int]] = {}
    for i, (req, resp) in enumerate(zip(schedule, responses)):
        if not resp.get("ok") or resp.get("op") != "optimize":
            failures[i] = f"error response {resp.get('error')}"
            continue
        fingerprints.setdefault(req.graph, set()).add(resp["fingerprint"])
        problem = checks.status_problem(
            resp["stats"]["stop_reason"], resp["stats"]["extraction_status"], ilp=True
        )
        if problem:
            failures[i] = problem
        if resp["cache"] == "miss":
            misses.setdefault((resp["fingerprint"], resp["config_digest"]), []).append(i)

    miss_payloads = {key: {_payload_bytes(responses[i]) for i in idx} for key, idx in misses.items()}
    repeat_mismatch = 0
    for key, idx in misses.items():
        # Every presentation repeats the work counts; one submitted document
        # also repeats its optimized graph exactly.  (Another node order may
        # break a cost tie another way, so the graph may differ across
        # presentations.)
        outputs: Dict[str, set] = {}
        for i in idx:
            outputs.setdefault(_digest(submitted[i]), set()).add(_digest(responses[i]["graph"]))
        if len({_work_signature(responses[i]) for i in idx}) > 1 or any(
            len(v) > 1 for v in outputs.values()
        ):
            repeat_mismatch += 1
            for i in idx:
                failures[i] = "work counts differ between misses of one input"
    for i, resp in enumerate(responses):
        if resp.get("ok") and resp.get("cache") == "hit":
            key = (resp["fingerprint"], resp["config_digest"])
            if _payload_bytes(resp) not in miss_payloads.get(key, set()):
                failures[i] = "hit response differs from every miss response for its key"
    for g, fps in fingerprints.items():
        if len(fps) > 1:
            for i, req in enumerate(schedule):
                if req.graph == g:
                    failures[i] = "isomorphic resubmissions got different fingerprints"

    seen, ratios, signatures = set(), [], {}
    for i, (req, resp) in enumerate(zip(schedule, responses)):
        if req.graph in seen or not resp.get("ok") or resp.get("cache") != "miss":
            continue
        seen.add(req.graph)
        ratios.append(resp["optimized_cost_ms"] / resp["original_cost_ms"])
        signatures[resp["fingerprint"]] = [*_work_signature(resp), _digest(resp["graph"])]
        problem = checks.graph_problem(
            graph_from_doc(submitted[i]), graph_from_doc(resp["graph"]), seed
        )
        if problem:
            for j, other in enumerate(schedule):
                if other.graph == req.graph:
                    failures[j] = f"{pool[req.graph].key}: {problem}"

    hits = [lat for lat, r in zip(latencies, responses) if r.get("cache") == "hit"]
    miss_lat = [lat for lat, r in zip(latencies, responses) if r.get("cache") == "miss"]
    window = stream["end"] - stream["start"]
    miss_responses = [r for r in responses if r.get("cache") == "miss"]
    daemon_cpu = daemon.rusage.ru_utime + daemon.rusage.ru_stime
    out = {
        "latencies": latencies,
        "tiers": [r.get("cache") for r in responses],
        "hit_latencies": hits,
        "miss_latencies": miss_lat,
        "ops": len(responses),
        "wall_s": window,
        "failures": failures,
        "repeat_mismatch": repeat_mismatch,
        "cost_ratios": ratios,
        "signatures": signatures,
        "peak_rss_mb": daemon.rusage.ru_maxrss / 1024.0,
        "daemon_cpu_s": daemon_cpu,
        # Wall time the daemon spent optimizing misses over all its CPU time
        # (start-up and hits included): the daemon idles between requests,
        # so its own wall clock says nothing about the host.
        "wall_cpu_ratio": sum(r["optimize_seconds"] for r in miss_responses) / daemon_cpu,
        "late_p90_ms": 1000.0 * checks.percentile(late, 90),
        "hit_frac": len(hits) / len(responses),
        "evictions": evictions,
        "queue_wait_ms": 1000.0 * sum(r.get("queue_seconds", 0.0) for r in responses) / len(responses),
        "client_io_s": io,
        "window": (stream["start"], stream["end"]),
        "miss_stats": [responses[i]["stats"] for idx in misses.values() for i in idx],
    }
    return out
