#!/usr/bin/env python3
"""End-to-end benchmark of DEFACTO-DSE as its users run it.

Builds the repository from source (Release, into .bench_build/ at the
repository root) and drives its two user-facing programs:

  batch-cold   `explore_batch` runs back to back, each a fresh process
               exploring every named kernel on both platforms with the
               guided+tile strategy, so every estimate is computed cold.
               One answer is one whole run, timed from launch to exit.
  serve-warm   an open loop of requests to `defacto_served` over its Unix
               socket, drawn from a fixed set of hot keys that set-up has
               already served once, so every estimate is a cache hit and
               the fixed cost of a request dominates.
  serve-cold   the same open loop at a low rate, where every request brings
               a kernel the daemon has never seen (inline C source drawn
               without replacement from a pool of sized variants), so every
               estimate misses the caches.

Open loop: arrivals are a seeded Poisson process at a fixed rate, sent
over a pool of connections whether or not earlier replies came back; a
request's latency runs from when it was due, so a stall also charges the
requests that waited behind it.

The seed draws the batch kernel order and the serve arrival times and
keys; the work per run is about the same for every seed.

End-to-end metrics (--trace 0): `p50_ms` and `p90_ms` of answer latency,
and `setup_s`, the median of several set-ups in one run (serve: daemon
start until every hot key has been served once; batch: a single-kernel
`explore_batch` process from launch to exit).

Per-layer metrics (--trace 1): a run of the same inputs with the program's
statistics registry on, taking the daemon's counters and phase timers
over the measured window only, plus the benchmark's own client-side
spans. Counts and busy times are per answer so runs of different length
compare. Tracing overhead is `traced_p50_ms` against the untraced p50.

Every answer is checked against perfbench/golden.json: winner, cycles,
slices and evaluations, and the decision digest of every hot key. The
last line of standard output is one JSON object:
  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Usage, from the repository root:
  python3 perfbench/run.py --workload serve-warm --seed 1 --seconds 30 --trace 0
  python3 perfbench/run.py --write-golden   # re-record golden.json
"""

import argparse
import itertools
import json
import os
import queue
import random
import re
import selectors
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
CMAKE_DIR = BUILD / "cmake"
SERVED = CMAKE_DIR / "tools" / "defacto_served"
EXPLORE_BATCH = CMAKE_DIR / "examples" / "explore_batch"
GOLDEN = HERE / "golden.json"

WORKLOADS = ("batch-cold", "serve-warm", "serve-cold")

KERNELS = ("FIR", "MM", "PAT", "JAC", "SOBEL", "CORR", "DILATE", "ERODE")
PLATFORMS = ("wildstar-pipelined", "wildstar-nonpipelined")
HOT_STRATEGIES = ("guided", "guided+tile")
POOL_STRATEGY = "guided"
BATCH_STRATEGY = "guided+tile"
BUDGET = 40

# Offered load, well below the daemon's capacity on a 4-core host, so the
# queue stays short and latency reflects the work of a request rather than
# a growing backlog.
WARM_RATE = 400.0
COLD_RATE = 20.0
CONNECTIONS = 32
SETUP_REPEATS = 5
BATCH_SETUP_REPEATS = 11
DRAIN_SECONDS = 30.0
SAMPLE_INTERVAL_S = 0.25


def log(msg):
    print(msg, file=sys.stderr, flush=True)


class BenchError(Exception):
    pass


# --------------------------------------------------------------------------
# Inputs
# --------------------------------------------------------------------------


def fir_source(n, taps, ty):
    return (f"{ty} S[{n + taps}];\n{ty} C[{taps}];\nint D[{n}];\n"
            f"for (j = 0; j < {n}; j++)\n"
            f"  for (i = 0; i < {taps}; i++)\n"
            "    D[j] = D[j] + (S[i + j] * C[i]);\n")


def mm_source(rows, cols, inner, ty):
    return (f"{ty} A[{rows}][{inner}];\n{ty} B[{inner}][{cols}];\n"
            f"int Z[{rows}][{cols}];\n"
            f"for (i = 0; i < {rows}; i++)\n"
            f"  for (j = 0; j < {cols}; j++)\n"
            f"    for (k = 0; k < {inner}; k++)\n"
            "      Z[i][j] = Z[i][j] + A[i][k] * B[k][j];\n")


def pat_source(n, plen):
    return (f"char T[{n + plen}];\nchar P[{plen}];\nint M[{n}];\n"
            f"for (i = 0; i < {n}; i++)\n"
            f"  for (j = 0; j < {plen}; j++)\n"
            "    M[i] = M[i] + (T[i + j] == P[j]);\n")


def jac_source(n, ty):
    return (f"{ty} A[{n + 2}][{n + 2}];\n{ty} B[{n + 2}][{n + 2}];\n"
            f"for (i = 1; i < {n + 1}; i++)\n"
            f"  for (j = 1; j < {n + 1}; j++)\n"
            "    B[i][j] = (A[i - 1][j] + A[i + 1][j] + A[i][j - 1] + "
            "A[i][j + 1]) / 4;\n")


def pool_sources():
    """Every sized kernel variant a serve-cold request may bring, by name.
    golden.json keeps the (variant, platform) pairs that explore healthily;
    those form the pool."""
    out = {}
    for n, taps, ty in itertools.product((16, 24, 32, 40, 48, 64, 80, 96,
                                          128), (4, 8, 12, 16, 24, 32),
                                         ("char", "short", "int")):
        out[f"fir_{n}_{taps}_{ty}"] = fir_source(n, taps, ty)
    for rows, cols, inner, ty in itertools.product((8, 12, 16, 24, 32),
                                                   (2, 4, 8), (4, 8, 16, 32),
                                                   ("short", "int")):
        out[f"mm_{rows}_{cols}_{inner}_{ty}"] = mm_source(rows, cols, inner,
                                                          ty)
    for n, plen in itertools.product((16, 32, 48, 64, 80, 96, 128),
                                     (4, 8, 12, 16, 24, 32)):
        out[f"pat_{n}_{plen}"] = pat_source(n, plen)
    for n, ty in itertools.product((8, 12, 16, 20, 24, 32, 40, 48, 64),
                                   ("char", "short", "int")):
        out[f"jac_{n}_{ty}"] = jac_source(n, ty)
    return out


def hot_keys():
    return [f"{k}|{p}|{s}" for k in KERNELS for p in PLATFORMS
            for s in HOT_STRATEGIES]


def hot_request(key, digest=False):
    kernel, platform, strategy = key.split("|")
    req = {"cmd": "explore", "kernel": kernel, "platform": platform,
           "strategy": strategy, "budget": BUDGET}
    if digest:
        req["digest"] = True
    return req


def pool_request(key, sources):
    name, platform = key.split("|")
    return {"cmd": "explore", "kernel": name, "source": sources[name],
            "platform": platform, "strategy": POOL_STRATEGY,
            "budget": BUDGET}


def encode(req):
    return (json.dumps(req, separators=(",", ":")) + "\n").encode()


def poisson_arrivals(rng, rate, seconds):
    times, t = [], rng.expovariate(rate)
    while t < seconds:
        times.append(t)
        t += rng.expovariate(rate)
    return times


def answer_of(reply):
    """The part of an explore reply the golden file pins."""
    return ";".join(str(reply.get(f)) for f in ("selected", "cycles",
                                                "slices", "evals"))


# --------------------------------------------------------------------------
# Build and processes
# --------------------------------------------------------------------------


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise BenchError(f"no DEFACTO-DSE sources under {ROOT}")
    if not (CMAKE_DIR / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(ROOT), "-B", str(CMAKE_DIR),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", str(CMAKE_DIR), "-j", "4",
                    "--target", "defacto_served", "explore_batch"],
                   stdout=sys.stderr, check=True)


class Connection:
    def __init__(self, path):
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            self.sock.connect(path)
        except OSError:
            self.sock.close()
            raise
        self.file = self.sock.makefile("rb")

    def call(self, req):
        self.sock.sendall(encode(req))
        line = self.file.readline()
        if not line:
            raise BenchError("daemon closed the connection")
        return json.loads(line)

    def close(self):
        self.file.close()
        self.sock.close()


class Daemon:
    """One defacto_served process on a socket inside the run directory.
    With a metrics path, its statistics registry is on and sampled."""

    def __init__(self, run_dir, metrics=None):
        # Relative: a Unix socket path must fit in 108 bytes, and the
        # checkout may sit deep in the filesystem.
        self.sock_path = os.path.relpath(run_dir / "served.sock")
        if os.path.exists(self.sock_path):
            os.unlink(self.sock_path)
        args = [str(SERVED), "--socket=" + self.sock_path]
        if metrics:
            args += ["--stats-out=" + str(metrics["stats"]),
                     "--metrics-jsonl=" + str(metrics["samples"]),
                     f"--metrics-interval={SAMPLE_INTERVAL_S}"]
        self.conn = None
        self.err = open(run_dir / "served.log", "ab")
        self.proc = subprocess.Popen(args, stdout=self.err, stderr=self.err)
        try:
            self._connect()
        except BaseException:
            self.proc.kill()
            self.proc.wait()
            self.err.close()
            raise

    def _connect(self):
        give_up = time.monotonic() + 20
        while self.conn is None:
            if self.proc.poll() is not None:
                raise BenchError("defacto_served exited during start-up")
            try:
                self.conn = Connection(self.sock_path)
            except OSError:
                if time.monotonic() > give_up:
                    raise BenchError("defacto_served never listened")
                time.sleep(0.001)
        if self.conn.call({"cmd": "ping"}).get("status") != "pong":
            raise BenchError("defacto_served did not answer ping")

    def stop(self):
        try:
            self.conn.call({"cmd": "shutdown"})
            self.proc.wait(timeout=20)
        except (OSError, ValueError, BenchError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.wait()
        finally:
            self.conn.close()
            self.err.close()
        if self.proc.returncode != 0:
            raise BenchError(f"defacto_served exited {self.proc.returncode}")


# --------------------------------------------------------------------------
# Open loop
# --------------------------------------------------------------------------


def open_loop(sock_path, schedule):
    """Sends schedule[i] = (due_seconds, request_bytes) on time over a pool
    of connections, each carrying one request at a time; a request due
    while every connection is busy waits for the first to free up.

    Returns per-request (due, sent, replied, reply_line), times in seconds
    from the start; replied is None for a request with no reply by the
    drain deadline."""
    conns = [Connection(sock_path) for _ in range(CONNECTIONS)]
    idle = queue.SimpleQueue()
    for c in conns:
        idle.put(c)
    n = len(schedule)
    sent = [0.0] * n
    replied = [None] * n
    lines = [None] * n
    in_flight = {}
    lock = threading.Lock()
    stop = threading.Event()
    t0 = time.perf_counter() + 0.02
    drain_by = t0 + (schedule[-1][0] if schedule else 0) + DRAIN_SECONDS

    def receive():
        sel = selectors.DefaultSelector()
        for c in conns:
            sel.register(c.sock, selectors.EVENT_READ, c)
        bufs = {c: b"" for c in conns}
        done = 0
        try:
            while (done < n and not stop.is_set() and
                   time.perf_counter() < drain_by):
                for key, _ in sel.select(timeout=0.1):
                    now = time.perf_counter() - t0
                    c = key.data
                    data = c.sock.recv(1 << 16)
                    if not data:
                        sel.unregister(c.sock)
                        continue
                    bufs[c] += data
                    while b"\n" in bufs[c]:
                        line, _, bufs[c] = bufs[c].partition(b"\n")
                        with lock:
                            i = in_flight.pop(c)
                        replied[i] = now
                        lines[i] = line
                        done += 1
                        idle.put(c)
        finally:
            sel.close()
            stop.set()

    receiver = threading.Thread(target=receive)
    receiver.start()
    try:
        for i, (due, payload) in enumerate(schedule):
            delay = t0 + due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            while True:
                try:
                    c = idle.get(timeout=0.1)
                    break
                except queue.Empty:
                    if stop.is_set():
                        raise BenchError("no reply by the drain deadline")
            with lock:
                in_flight[c] = i
            sent[i] = time.perf_counter() - t0
            c.sock.sendall(payload)
    except BaseException:
        stop.set()
        raise
    finally:
        receiver.join()
        for c in conns:
            c.close()
    return [(schedule[i][0], sent[i], replied[i], lines[i]) for i in range(n)]


# --------------------------------------------------------------------------
# Workloads
# --------------------------------------------------------------------------


def percentile(sorted_values, q):
    """Nearest-rank percentile of an ascending list."""
    if not sorted_values:
        return 0.0
    rank = -(-q * len(sorted_values) // 1)
    return sorted_values[min(len(sorted_values), max(1, int(rank))) - 1]


def serve_setup(run_dir, golden, metrics):
    """Starts a daemon and serves every hot key once, SETUP_REPEATS times.
    Returns the last daemon, left running, the set-up times and the number
    of set-up answers that differ from the golden file."""
    times, wrong = [], 0
    for r in range(SETUP_REPEATS):
        last = r == SETUP_REPEATS - 1
        start = time.perf_counter()
        daemon = Daemon(run_dir, metrics if last else None)
        try:
            for key in hot_keys():
                reply = daemon.conn.call(hot_request(key, digest=True))
                if reply.get("status") != "ok":
                    raise BenchError(f"set-up request {key} answered {reply}")
                want = golden["serve"][key]
                wrong += (answer_of(reply) != want["answer"] or
                          reply.get("decision_digest") != want["digest"])
        except BaseException:
            daemon.stop()
            raise
        times.append(time.perf_counter() - start)
        if not last:
            daemon.stop()
    return daemon, times, wrong


def wait_for_fresh_sample(path):
    """Returns a metrics sample the daemon took after this call began."""
    def lines():
        try:
            with open(path) as f:
                return f.read().splitlines()
        except FileNotFoundError:
            return []

    # The sample after next began after this call; the next one may have
    # begun before it.
    want = len(lines()) + 2
    give_up = time.monotonic() + 20 * SAMPLE_INTERVAL_S
    while True:
        current = lines()
        if len(current) >= want:
            return json.loads(current[want - 1])
        if time.monotonic() > give_up:
            raise BenchError("the daemon wrote no metrics samples")
        time.sleep(SAMPLE_INTERVAL_S / 10)


def serve_schedule(workload, seed, seconds, golden):
    """The seeded open-loop schedule and the expected answer of each
    request."""
    rng = random.Random(seed)
    schedule, expected = [], []
    if workload == "serve-warm":
        hot = hot_keys()
        for due in poisson_arrivals(rng, WARM_RATE, seconds):
            key = rng.choice(hot)
            schedule.append((due, hot_request(key)))
            expected.append(golden["serve"][key]["answer"])
    else:
        sources = pool_sources()
        pool = sorted(golden["pool"])
        rng.shuffle(pool)
        # Past len(pool) requests (about 34 s at the cold rate) the pool
        # repeats, and its second pass is warm.
        cold = itertools.cycle(pool)
        for due in poisson_arrivals(rng, COLD_RATE, seconds):
            key = next(cold)
            schedule.append((due, pool_request(key, sources)))
            expected.append(golden["pool"][key])
    for i, (due, req) in enumerate(schedule):
        req["id"] = str(i)
        schedule[i] = (due, encode(req))
    return schedule, expected


def run_serve(workload, seed, seconds, trace, run_dir, golden):
    schedule, expected = serve_schedule(workload, seed, seconds, golden)

    metrics = None
    if trace:
        metrics = {"stats": run_dir / "served-stats.json",
                   "samples": run_dir / "served-samples.jsonl"}
    daemon, setup_times, wrong = serve_setup(run_dir, golden, metrics)
    try:
        baseline = wait_for_fresh_sample(metrics["samples"]) if trace else {}
        records = open_loop(daemon.sock_path, schedule)
    finally:
        daemon.stop()

    failed = 0
    latency, send_wait, server, outside, batch_sizes = [], [], [], [], []
    warm = 0
    for (due, sent, replied, line), want in zip(records, expected):
        reply = json.loads(line) if line is not None else {}
        if reply.get("status") != "ok":
            failed += 1
            continue
        wrong += answer_of(reply) != want
        latency.append((replied - due) * 1e3)
        send_wait.append((sent - due) * 1e3)
        server_ms = float(reply.get("latency_us", 0)) / 1e3
        server.append(server_ms)
        outside.append((replied - sent) * 1e3 - server_ms)
        batch_sizes.append(reply.get("batch_size", 0))
        warm += bool(reply.get("warm"))

    layers = {}
    if trace:
        answers = max(1, len(latency))
        window = stats_delta(load_json(metrics["stats"]), baseline)
        layers = stats_layers(window, answers)
        layers.update({
            "send_wait_ms.p50": statistics.median(send_wait or [0]),
            "send_wait_ms.max": max(send_wait or [0]),
            "server_ms.p50": statistics.median(server or [0]),
            "outside_server_ms.p50": statistics.median(outside or [0]),
            "batch_size.mean": statistics.fmean(batch_sizes or [0]),
            "warm_share": warm / answers,
        })
    return len(schedule), failed, wrong, latency, setup_times, layers


BATCH_ROW = re.compile(r"^(\S+ @ \S+)\s{2,}\S+\s{2,}(.+?)\s{2,}(\S+)\s{2,}"
                       r"(\S+)\s{2,}\S+\s{2,}(\d+)\s{2,}")


def parse_batch_rows(stdout):
    """The explore_batch result table as {job: answer}."""
    rows = {}
    for line in stdout.splitlines():
        m = BATCH_ROW.match(line)
        if m:
            rows[m.group(1)] = ";".join(m.group(2, 3, 4, 5))
    return rows


def batch_args(order, stats_out=None):
    args = [str(EXPLORE_BATCH), "--strategy", BATCH_STRATEGY,
            "--both-platforms", "--kernels", ",".join(order)]
    if stats_out:
        args.append("--stats-out=" + str(stats_out))
    return args


def run_batch(seed, seconds, trace, run_dir, golden):
    rng = random.Random(seed)
    setup_times = []
    for _ in range(BATCH_SETUP_REPEATS):
        start = time.perf_counter()
        r = subprocess.run([str(EXPLORE_BATCH), "--kernels", "JAC"],
                           cwd=run_dir, capture_output=True)
        setup_times.append(time.perf_counter() - start)
        if r.returncode != 0:
            raise BenchError(f"explore_batch set-up run exited {r.returncode}")

    attempted = failed = wrong = 0
    latency = []
    stats_total = {}
    stats_out = run_dir / "batch-stats.json" if trace else None
    stop_at = time.perf_counter() + seconds
    while time.perf_counter() < stop_at:
        order = list(KERNELS)
        rng.shuffle(order)
        attempted += 1
        start = time.perf_counter()
        r = subprocess.run(batch_args(order, stats_out), cwd=run_dir,
                           capture_output=True, text=True)
        elapsed = time.perf_counter() - start
        if r.returncode != 0:
            failed += 1
            continue
        wrong += parse_batch_rows(r.stdout) != golden["batch"]
        latency.append(elapsed * 1e3)
        if trace:
            merge_stats(stats_total, load_json(stats_out))

    layers = {}
    if trace:
        layers = stats_layers(stats_total, max(1, len(latency)))
        layers.update({"send_wait_ms.p50": 0.0, "send_wait_ms.max": 0.0,
                       "server_ms.p50": 0.0, "outside_server_ms.p50": 0.0,
                       "batch_size.mean": float(len(golden["batch"])),
                       "warm_share": 0.0})
    return attempted, failed, wrong, latency, setup_times, layers


# --------------------------------------------------------------------------
# Program statistics (--stats-out) as per-layer metrics
# --------------------------------------------------------------------------


def load_json(path):
    with open(path) as f:
        return json.load(f)


def merge_stats(total, stats, sign=1):
    """Adds sign * stats into total: counters, and the summable fields of
    timers and histograms."""
    for section in ("counters", "timers", "histograms"):
        dst = total.setdefault(section, {})
        for name, value in stats.get(section, {}).items():
            if isinstance(value, dict):
                slot = dst.setdefault(name, {})
                for k in ("wall_ms", "count", "sum"):
                    if k in value:
                        slot[k] = slot.get(k, 0) + sign * value[k]
            else:
                dst[name] = dst.get(name, 0) + sign * value


def stats_delta(final, baseline):
    delta = {}
    merge_stats(delta, final)
    merge_stats(delta, baseline, sign=-1)
    return delta


TIMED_PHASES = ("explore.run", "pipeline.run", "pipeline.clone",
                "pipeline.pass.scalar-repl",
                "pipeline.pass.layout", "pipeline.pass.peel",
                "pipeline.pass.fold", "estimator.invoke", "estimator.dfg",
                "scheduler.schedule")


def stats_layers(stats, answers):
    """Per-answer counts and busy times of the program's own layers. A
    statistic missing from the registry reads as 0."""
    counters = stats.get("counters", {})
    timers = stats.get("timers", {})
    hists = stats.get("histograms", {})

    def count(name):
        return float(counters.get(name, 0))

    def busy_ms(name):
        if name in timers:
            return float(timers[name].get("wall_ms", 0))
        return float(hists.get(name + "_us", {}).get("sum", 0)) / 1e3

    def ratio(hits, misses):
        return hits / (hits + misses) if hits + misses else 0.0

    hits, misses = count("cache.hits"), count("cache.misses")
    layers = {
        "answers": float(answers),
        "estimate_cache.hits": hits / answers,
        "estimate_cache.misses": misses / answers,
        "estimate_cache.hit_ratio": ratio(hits, misses),
        "evaluations": count("explore.evaluations") / answers,
        "serve.batches": count("serve.batches") / answers,
    }
    for name in TIMED_PHASES:
        layers[name + "_ms"] = busy_ms(name) / answers
    return layers


LAYER_UNITS = {
    "answers": "count",
    "estimate_cache.hits": "count",
    "estimate_cache.misses": "count",
    "estimate_cache.hit_ratio": "ratio",
    "evaluations": "count",
    "serve.batches": "count",
    **{name + "_ms": "ms" for name in TIMED_PHASES},
    "send_wait_ms.p50": "ms",
    "send_wait_ms.max": "ms",
    "server_ms.p50": "ms",
    "outside_server_ms.p50": "ms",
    "batch_size.mean": "count",
    "warm_share": "ratio",
    "traced_p50_ms": "ms",
}


# --------------------------------------------------------------------------
# Golden answers
# --------------------------------------------------------------------------


def write_golden(run_dir):
    """Records the program's answers as the reference every run checks."""
    golden = {"serve": {}, "pool": {}, "batch": {}}
    daemon = Daemon(run_dir)
    try:
        for key in hot_keys():
            reply = daemon.conn.call(hot_request(key, digest=True))
            if reply.get("status") != "ok":
                raise BenchError(f"hot key {key} answered {reply}")
            golden["serve"][key] = {"answer": answer_of(reply),
                                    "digest": reply["decision_digest"]}
        sources = pool_sources()
        for key in (f"{n}|{p}" for n in sources for p in PLATFORMS):
            reply = daemon.conn.call(pool_request(key, sources))
            # Variants that explore degraded (no fitting design) stay out
            # of the pool: every benchmark request must succeed.
            if reply.get("status") == "ok":
                golden["pool"][key] = answer_of(reply)
    finally:
        daemon.stop()
    r = subprocess.run(batch_args(KERNELS), cwd=run_dir, capture_output=True,
                       text=True, check=True)
    golden["batch"] = parse_batch_rows(r.stdout)
    if len(golden["batch"]) != len(KERNELS) * len(PLATFORMS):
        raise BenchError("could not parse the explore_batch table")
    with open(GOLDEN, "w") as f:
        json.dump(golden, f, indent=1, sort_keys=True)
        f.write("\n")
    log(f"wrote {GOLDEN}: {len(golden['serve'])} hot keys, "
        f"{len(golden['pool'])} pool keys, {len(golden['batch'])} batch jobs")


# --------------------------------------------------------------------------
# Main
# --------------------------------------------------------------------------


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-golden", action="store_true")
    args = ap.parse_args()
    if not args.write_golden and args.workload is None:
        ap.error("--workload is required")
    # Unwind on SIGTERM too, so every daemon this run started is stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))

    try:
        build()
    except (BenchError, subprocess.CalledProcessError, OSError) as e:
        log(f"perfbench: build failed: {e}")
        return 1

    run_dir = BUILD / f"run-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    try:
        if args.write_golden:
            write_golden(run_dir)
            return 0
        golden = load_json(GOLDEN)
        if args.workload == "batch-cold":
            result = run_batch(args.seed, args.seconds, args.trace, run_dir,
                               golden)
        else:
            result = run_serve(args.workload, args.seed, args.seconds,
                               args.trace, run_dir, golden)
    except (BenchError, subprocess.CalledProcessError, OSError) as e:
        log(f"perfbench: {e}")
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    attempted, failed, wrong, latency, setup_times, layers = result
    latency.sort()
    p50 = percentile(latency, 0.50)
    p90 = percentile(latency, 0.90)
    log(f"{args.workload} seed {args.seed}: {len(latency)} answers of "
        f"{attempted}, {failed} failed, {wrong} wrong; p50 {p50:.3f} ms, "
        f"p90 {p90:.3f} ms; set-up {[round(t, 4) for t in setup_times]} s")
    if args.trace:
        layers["traced_p50_ms"] = p50
        metrics = {name: {"value": value, "unit": LAYER_UNITS[name]}
                   for name, value in layers.items()}
    else:
        metrics = {
            "p50_ms": {"value": p50, "unit": "ms"},
            "p90_ms": {"value": p90, "unit": "ms"},
            "setup_s": {"value": statistics.median(setup_times),
                        "unit": "s"},
        }
    print(json.dumps({"correct": wrong == 0 and bool(latency),
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
