"""Server processes and NDJSON clients for the serving benchmark.

Servers listen on Unix sockets under a run directory inside the checkout;
paths are kept relative so they stay under the 108-byte socket-path limit
wherever the checkout lives.
"""

import json
import os
import signal
import socket
import subprocess
import threading
import time

from stats import backlog_growing, percentile


class Server:
    """One epgc_cluster front (with its workers) or one epgc_serve."""

    def __init__(self, bin_dir, run_dir, kind, args):
        os.makedirs(run_dir, exist_ok=True)
        self.run_dir = run_dir
        self.socket = os.path.join(run_dir, "s.sock")
        cmd = [os.path.join(bin_dir, kind), "--socket", self.socket,
               "--deterministic"] + list(args)
        if kind == "epgc_cluster":
            cmd += ["--runtime-dir", os.path.join(run_dir, "w")]
        self.log = open(os.path.join(run_dir, "server.log"), "ab")
        self.proc = subprocess.Popen(cmd, stdout=self.log, stderr=self.log)
        deadline = time.monotonic() + 30
        while True:
            try:
                with Conn(self.socket) as c:
                    if c.call({"op": "ping", "id": 0}).get("ok"):
                        return
            except OSError:
                pass
            if self.proc.poll() is not None or time.monotonic() > deadline:
                self.stop()
                raise RuntimeError(f"{kind} did not come up; see {self.log.name}")
            time.sleep(0.005)

    def worker_socket(self, i):
        return os.path.join(self.run_dir, "w", f"worker-{i}.sock")

    def pids(self):
        """This server's process and its direct children (the workers)."""
        out = [self.proc.pid]
        path = f"/proc/{self.proc.pid}/task/{self.proc.pid}/children"
        try:
            with open(path) as f:
                out += [int(p) for p in f.read().split()]
        except OSError:
            pass
        return out

    def peak_rss_mb(self):
        """Summed VmHWM (peak resident set) of every server process."""
        total_kb = 0
        for pid in self.pids():
            try:
                with open(f"/proc/{pid}/status") as f:
                    for line in f:
                        if line.startswith("VmHWM:"):
                            total_kb += int(line.split()[1])
            except OSError:
                pass
        return total_kb / 1024.0

    def metrics(self):
        """Counters and histograms from the `metrics` verb (the front's
        cross-worker aggregate when this is a cluster)."""
        with Conn(self.socket) as c:
            reply = c.call({"op": "metrics", "id": 0})
        return reply.get("aggregate", reply.get("metrics"))

    def stop(self):
        """Drain and stop; every process this server started has exited on
        return."""
        if self.proc.poll() is None:
            try:
                with Conn(self.socket) as c:
                    c.send({"op": "shutdown", "id": 0})
                    c.recv(timeout=10)
            except OSError:
                pass
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                children = self.pids()[1:]
                self.proc.kill()
                self.proc.wait()
                for pid in children:
                    try:
                        os.kill(pid, signal.SIGKILL)
                    except OSError:
                        pass
        self.log.close()


class Conn:
    """A blocking NDJSON connection."""

    def __init__(self, path):
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.connect(path)
        self.buf = b""

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.sock.close()

    def send(self, obj):
        self.sock.sendall(json.dumps(obj, separators=(",", ":")).encode() + b"\n")

    def send_raw(self, line):
        self.sock.sendall(line)

    def recv(self, timeout=None):
        self.sock.settimeout(timeout)
        while b"\n" not in self.buf:
            chunk = self.sock.recv(1 << 20)
            if not chunk:
                raise ConnectionError("server closed the connection")
            self.buf += chunk
        line, self.buf = self.buf.split(b"\n", 1)
        return json.loads(line)

    def call(self, obj, timeout=60):
        self.send(obj)
        return self.recv(timeout)


def closed_loop(path, requests, clients, timeout=170):
    """Send `requests` (dicts with distinct ids) from `clients` threads, each
    waiting for its reply before sending the next. Returns, per request in
    input order, (send_s, recv_s, reply or None)."""
    results = [None] * len(requests)
    next_index = iter(range(len(requests)))
    lock = threading.Lock()

    def client():
        with Conn(path) as c:
            while True:
                with lock:
                    i = next(next_index, None)
                if i is None:
                    return
                t0 = time.perf_counter()
                try:
                    reply = c.call(requests[i], timeout)
                except (OSError, ValueError):
                    reply = None
                results[i] = (t0, time.perf_counter(), reply)

    threads = [threading.Thread(target=client) for _ in range(clients)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return results


def open_loop(probe, path, templates, expected, schedule, work_dir, conns=4):
    """Run one open-loop step with the probe's generator (see probe.cpp):
    request k of `schedule` (due offset s, key) is written at its due time,
    round-robin over `conns` connections, however many earlier ones are
    still outstanding. `templates[key]` is the request line with "{id}" for
    the id, `expected[key]` the exact reply after its leading {"id":N.
    Returns per request (due_s, late_ms, latency_ms or None, status) with
    status 0 = the expected reply, 1 = a different reply, 2 = unanswered,
    3 = refused or failed ("ok":false)."""
    files = {}
    for name, lines in (("templates", templates), ("expected", expected),
                        ("schedule", [f"{round(d * 1e6)} {k}" for d, k in schedule])):
        files[name] = os.path.join(work_dir, name + ".txt")
        with open(files[name], "w") as f:
            f.write("\n".join(lines) + "\n")
    out = os.path.join(work_dir, "openloop.txt")
    subprocess.run([probe, "openloop", path, str(conns), files["templates"],
                    files["expected"], files["schedule"], out],
                   check=True, timeout=120)
    rows = []
    with open(out) as f:
        for (due, _), line in zip(schedule, f):
            late_us, latency_us, status = line.split()
            latency = float(latency_us) / 1e3
            rows.append((due, float(late_us) / 1e3,
                         latency if latency >= 0 else None, int(status)))
    return rows


def summarize_step(rows, limit_ms):
    """Summary of one open-loop step. A wrong or missing reply counts as
    missing the latency limit."""
    lat = [r[2] if r[3] == 0 else float("inf") for r in rows]
    failed = sum(1 for x in lat if x == float("inf"))
    answered = [(r[0], r[2]) for r in rows if r[2] is not None]
    span = rows[-1][0] - rows[0][0] if len(rows) > 1 else 1.0
    p99 = percentile(lat, 99.0)
    growing = backlog_growing(answered)
    done = [r[0] + r[2] / 1e3 for r in rows if r[3] == 0]
    return {
        "requests": len(rows),
        "failed": failed,
        "wrong": sum(1 for r in rows if r[3] == 1),
        "rate": len(rows) / span if span > 0 else 0.0,
        # ok replies per second, first due time to last reply
        "achieved": (len(done) / (max(done) - rows[0][0])
                     if len(done) > 1 else 0.0),
        "p50_ms": percentile(lat, 50.0),
        "p99_ms": p99,
        "late_p99_ms": percentile([r[1] for r in rows], 99.0),
        "backlog": growing,
        "meets": p99 <= limit_ms and not growing and failed == 0,
    }
