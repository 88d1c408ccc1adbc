"""``repro serve`` under a closed loop: boot, load, tail request,
teardown.

The server runs as a subprocess in its own process group with a
one-worker pool and a fresh cache directory.  The load comes from this
process over two keep-alive connections, each a closed loop over its
own seeded request stream (:func:`corpus.connection_stream`): the
service's callers (sweeps, build tools) wait for each reply before
sending the next request.
"""

from __future__ import annotations

import json
import shutil
import statistics
import socket
import subprocess
import sys
import tempfile
import threading
import time
from typing import Dict, List, NamedTuple, Optional, Tuple

from . import check, compile_bench, corpus
from .layers import LayerTracer
from .procs import (
    TMP_DIR, descendants, geomean, kill_group, peak_rss_mb, percentile,
    program_env,
)

#: Server boots per run; ``setup_s`` is the median boot.
BOOTS = 3
#: The deadline every request is served under.  Well above every
#: stream request's latency, well below the dense tail's compile time.
REQUEST_TIMEOUT_S = 3.0
#: The deadline of :func:`probe_service`, whose requests all compile.
PROBE_TIMEOUT_S = 120.0
#: Untimed warm-up requests per connection.
WARMUP = 100
CONNECTIONS = 2

#: The loop each boot's first (untimed) compile request carries.
PROBE = {"source": "do probe:\n  PA[i] = PB[i] + 1"}

#: ``/metrics`` counters the run reports, by OpenMetrics family.
COUNTERS = {
    "batch_cache_hit": "batch.cache.hits",
    "batch_cache_miss": "batch.cache.misses",
    "stage_cache_hit": "compiler.store.hits",
    "stage_cache_hydrate": "compiler.store.hydrations",
    "stage_cache_miss": "compiler.store.computed",
}


class Reply(NamedTuple):
    status: int
    headers: Dict[str, str]
    body: bytes
    seconds: float


class Connection:
    """A minimal keep-alive HTTP/1.1 client."""

    def __init__(self, port: int, timeout: float = 120.0) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port), timeout)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._buffer = b""

    def close(self) -> None:
        self.sock.close()

    def request(self, method: str, path: str, body: bytes = b"") -> Reply:
        head = (
            f"{method} {path} HTTP/1.1\r\nHost: perfbench\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n\r\n"
        ).encode("ascii")
        started = time.perf_counter()
        self.sock.sendall(head + body)
        while b"\r\n\r\n" not in self._buffer:
            self._recv()
        raw, _, self._buffer = self._buffer.partition(b"\r\n\r\n")
        lines = raw.decode("latin-1").split("\r\n")
        headers = {}
        for line in lines[1:]:
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0"))
        while len(self._buffer) < length:
            self._recv()
        payload, self._buffer = self._buffer[:length], self._buffer[length:]
        seconds = time.perf_counter() - started
        return Reply(int(lines[0].split()[1]), headers, payload, seconds)

    def _recv(self) -> None:
        chunk = self.sock.recv(1 << 16)
        if not chunk:
            raise ConnectionError("server closed the connection")
        self._buffer += chunk

    def compile(self, request: Dict[str, object]) -> Reply:
        return self.request(
            "POST", "/v1/compile", json.dumps(request).encode("utf-8")
        )


class Server:
    """One ``repro serve`` process group with its own cache directory."""

    def __init__(self, request_timeout: float = REQUEST_TIMEOUT_S) -> None:
        TMP_DIR.mkdir(exist_ok=True)
        self.dir = tempfile.mkdtemp(prefix="serve-", dir=TMP_DIR)
        self.log = open(f"{self.dir}/stderr.log", "wb")
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve", "--port", "0",
                "--workers", "1", "--cache-dir", f"{self.dir}/cache",
                "--request-timeout", str(request_timeout),
            ],
            cwd=corpus.ROOT, env=program_env(), stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=self.log,
            start_new_session=True,
        )
        try:
            self.port = self._wait_for_port()
            probe = Connection(self.port)
            try:
                reply = probe.compile(PROBE)
            finally:
                probe.close()
            if reply.status != 200:
                raise RuntimeError(f"probe compile answered {reply.status}")
        except BaseException:
            self.stop()
            raise
        #: Spawn to a warm pool: the first compile has been answered.
        self.boot_seconds = time.perf_counter() - started

    def _wait_for_port(self, timeout: float = 120.0) -> int:
        deadline = time.monotonic() + timeout
        marker = b"listening on http://127.0.0.1:"
        while time.monotonic() < deadline:
            with open(f"{self.dir}/stderr.log", "rb") as handle:
                text = handle.read()
            if marker in text:
                return int(text.split(marker, 1)[1].split()[0])
            if self.proc.poll() is not None:
                raise RuntimeError(
                    "repro serve exited during boot:\n"
                    + text.decode("utf-8", "replace")
                )
            time.sleep(0.01)
        raise RuntimeError("repro serve did not announce its port")

    def counters(self) -> Dict[str, int]:
        """The reported ``/metrics`` counters (0 when not yet seen)."""
        conn = Connection(self.port)
        try:
            reply = conn.request("GET", "/metrics")
        finally:
            conn.close()
        values = {name: 0 for name in COUNTERS.values()}
        for line in reply.body.decode("utf-8").splitlines():
            if line.startswith("#") or " " not in line:
                continue
            sample, value = line.rsplit(" ", 1)
            family = sample.split("{", 1)[0]
            for prefix, name in COUNTERS.items():
                if family.endswith(prefix + "_total"):
                    values[name] = int(float(value))
        return values

    def peak_rss_mb(self) -> float:
        """Peak resident memory of the server and its pool worker."""
        return peak_rss_mb([self.proc.pid] + descendants(self.proc.pid))

    def stop(self) -> None:
        kill_group(self.proc)
        self.log.close()
        shutil.rmtree(self.dir, ignore_errors=True)


def boot(boots: int = BOOTS) -> Tuple[Server, List[float]]:
    """Boot ``boots`` fresh servers, one after another, and keep the
    last one running; returns it with every boot time."""
    times: List[float] = []
    server: Optional[Server] = None
    for index in range(boots):
        server = Server()
        times.append(server.boot_seconds)
        if index < boots - 1:
            server.stop()
    return server, times


def closed_loop(port: int, streams: List[List[corpus.Request]]
                ) -> Tuple[List[List[Reply]], float]:
    """Send every stream on its own connection, each request after the
    previous reply; returns the replies per stream and the wall time."""
    replies: List[List[Reply]] = [[] for _ in streams]
    errors: List[BaseException] = []

    def drive(index: int) -> None:
        try:
            conn = Connection(port)
            try:
                for request in streams[index]:
                    replies[index].append(conn.compile(request.body))
            finally:
                conn.close()
        except BaseException as error:  # reported by the caller
            errors.append(error)

    threads = [
        threading.Thread(target=drive, args=(i,)) for i in range(len(streams))
    ]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - started
    if errors:
        raise errors[0]
    return replies, wall


def stream_blocks(seconds: int) -> int:
    """Blocks of 100 requests per connection: 120 requests per second of
    run, about three quarters of the run at today's ~160 requests/s; the
    rest goes to boots and the dense tail."""
    return max(1, round(0.6 * seconds))


def service_layers(replies: List[Reply]) -> Dict:
    """``service.*`` latencies, split by the ``X-Cache`` header."""
    hits = [r.seconds for r in replies if r.headers.get("x-cache") == "hit"]
    misses = [r.seconds for r in replies if r.headers.get("x-cache") == "miss"]
    return {
        "service.hit_ms.p50": (1000 * percentile(hits, 0.50), "ms"),
        "service.miss_ms.p50": (1000 * percentile(misses, 0.50), "ms"),
        "service.miss_ms.p90": (1000 * percentile(misses, 0.90), "ms"),
    }


def cache_state_ok(replies: List[Reply], kinds: List[str]) -> bool:
    """Every answered repeat is a payload-cache hit, every other
    answered request a miss."""
    return all(
        reply.headers.get("x-cache") == ("hit" if kind == "repeat" else "miss")
        for reply, kind in zip(replies, kinds) if reply.status == 200
    )


def probe_service(requests: List[Dict[str, object]]
                  ) -> Tuple[Dict, Dict[str, bytes], bool]:
    """Send each request twice (a miss, then a hit) through one fresh
    server; returns the service metrics, the served body of each
    request, and whether the cache behaved and the bodies agreed."""
    server = Server(request_timeout=PROBE_TIMEOUT_S)
    try:
        before = server.counters()
        conn = Connection(server.port)
        replies: List[Reply] = []
        kinds: List[str] = []
        try:
            for request in requests:
                replies.append(conn.compile(request))
                replies.append(conn.compile(request))
                kinds += ["fresh", "repeat"]
        finally:
            conn.close()
        after = server.counters()
    finally:
        server.stop()
    metrics = service_layers(replies)
    for name, value in after.items():
        metrics[name] = (value - before[name], "count")
    ok = cache_state_ok(replies, kinds) and all(
        reply.status == 200 for reply in replies
    ) and all(
        replies[i].body == replies[i + 1].body for i in range(0, len(replies), 2)
    )
    bodies = {json.dumps(r, sort_keys=True): replies[2 * i].body
              for i, r in enumerate(requests)}
    return metrics, bodies, ok


def check_served(served: Dict[str, bytes], tracer: Optional[LayerTracer]
                 ) -> Tuple[bool, Dict[str, float], Dict]:
    """Compile every distinct request afresh in-process: its bytes must
    equal the served body and the result must pass the checker.  With a
    tracer, compile them all once more under it; returns the verdict,
    the untraced compile seconds and the traced snapshot per request."""
    from repro.pipeline import compile_loop

    ok = True
    plain: Dict[str, float] = {}
    requests = {key: check.compile_kwargs(json.loads(key)) for key in served}
    for key, kwargs in requests.items():
        started = time.perf_counter()
        compiled = compile_loop(**kwargs)
        plain[key] = time.perf_counter() - started
        if check.payload_bytes(compiled) != served[key]:
            print(f"perfbench: served body differs for {key}", file=sys.stderr)
            ok = False
        ok = check.passes(compiled, kwargs, key) and ok
    layers: Dict[str, Tuple] = {}
    if tracer is not None:
        with tracer:
            for key, kwargs in requests.items():
                tracer.reset()
                started = time.perf_counter()
                compile_loop(**kwargs)
                seconds = time.perf_counter() - started
                layers[key] = (seconds,) + tracer.snapshot()
    return ok, plain, layers


def serve_mixed(seed: int, seconds: int, trace: bool) -> Dict:
    """The ``serve_mixed`` workload: boots, warm-up, the timed closed
    loop, the dense tail, teardown, then the output checks."""
    blocks = stream_blocks(seconds)
    streams = [
        corpus.connection_stream(seed, conn, 100 * blocks)
        for conn in range(CONNECTIONS)
    ]
    warmup = [corpus.warmup_stream(conn, WARMUP) for conn in range(CONNECTIONS)]
    server, boot_times = boot()
    try:
        closed_loop(server.port, warmup)
        before = server.counters()
        replies, wall = closed_loop(server.port, streams)
        after = server.counters()
        tail_conn = Connection(server.port)
        try:
            tail = tail_conn.compile(corpus.dense_tail())
        finally:
            tail_conn.close()
        rss = server.peak_rss_mb()
    finally:
        server.stop()

    flat = [(request, reply) for stream, got in zip(streams, replies)
            for request, reply in zip(stream, got)]
    kinds = [request.kind for request, _ in flat]
    correct = cache_state_ok([reply for _, reply in flat], kinds)
    served: Dict[str, bytes] = {}
    miss_seconds: List[float] = []
    for request, reply in flat:
        if reply.status != 200:
            continue
        key = json.dumps(request.body, sort_keys=True)
        if key not in served:
            served[key] = reply.body
            miss_seconds.append(reply.seconds)
        elif served[key] != reply.body:
            correct = False
    tracer = LayerTracer() if trace else None
    same, plain, layers = check_served(served, tracer)
    result = {
        "correct": bool(correct and same),
        "attempted": len(flat) + 1,
        "failed": sum(reply.status != 200 for _, reply in flat)
        + int(tail.status != 200),
    }
    if trace:
        metrics = compile_bench.layer_metrics(layers, plain)
        for name, value in compile_bench.pass_counts(layers).items():
            metrics[name] = (value, "count")
        for name in compile_bench.slope_names():
            metrics[name] = (0.0, "1")
        metrics.update(service_layers([reply for _, reply in flat]))
        for name, value in after.items():
            metrics[name] = (value - before[name], "count")
    else:
        latencies = [reply.seconds for _, reply in flat]
        metrics = {
            "setup_s": (statistics.median(boot_times), "s"),
            "pass_s": (wall, "s"),
            "compile_ms.geomean": (1000 * geomean(miss_seconds), "ms"),
            "peak_rss_mb": (rss, "MB"),
            "serve_rps": (len(flat) / wall, "1/s"),
            "serve_ms.p50": (1000 * percentile(latencies, 0.50), "ms"),
            "serve_ms.p99": (1000 * percentile(latencies, 0.99), "ms"),
        }
    result["metrics"] = metrics
    return result
