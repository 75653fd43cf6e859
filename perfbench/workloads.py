"""The three workloads, measured end to end with no instrumentation.

``cli-cold``
    One closed-loop caller; every request is a fresh ``python -m repro
    search|classify|lint <scenario> --json`` process.  Each call pays
    interpreter start, imports, scenario build, the certificate pre-pass,
    engine-table compile and a small search.  Serve, cache, batcher,
    runner and simulator do no work here.
``serve-mixed``
    One ``python -m repro serve`` at its shipped defaults (directory
    cache in the working directory, telemetry on, 20 ms window, one job)
    and two closed-loop clients in this process: a hot reader cycling a
    pre-warmed hot set, and a cold writer sending questions the server has
    never seen.  The only workload where HTTP, cache get/put, payload
    serialisation, serve telemetry and the batch window work; reads and
    writes compete for one interpreter lock, so a gain for one at the
    other's cost shows.  Short stretches of hits alone, spread over the
    run, are where the server's CPU per request is measured.
``battery``
    One ``python -m repro campaign run --spec paper-battery`` process
    with the default engine and jobs, into an empty cache.  Search engines
    and the flit simulator do nearly all the work; imports are paid once,
    the cache is written but never read, serve does nothing.

Every end-to-end metric is reported on every workload; ``README.md``
gives what each one measures on each workload.
"""

from __future__ import annotations

import http.client
import itertools
import json
import os
import re
import signal
import socket
import struct
import subprocess
import threading
import time
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field
from pathlib import Path

import draws
import stats
from harness import Outcome, Workspace, python, run_child, thm5_oracle

#: imports a search/classify call makes before it builds a scenario
CLI_SETUP = "import repro.cli, repro.analysis, repro.campaign.scenarios, repro.experiments"
#: what ``campaign run`` does before its first task
BATTERY_SETUP = "import repro.campaign; repro.campaign.build_spec('paper-battery')"

SETUP_REPEATS = 5
SERVE_SETUP_REPEATS = 3
#: search answers compared byte for byte with ``repro search --json``
BYTE_CHECKS = 4
#: the cold writer's pause between questions.  Without it the batch
#: thread computes almost all the time, a hit waits behind a miss about
#: half the time, and the hit median flips between the two modes from
#: run to run; with it a typical hit does not queue and the ones that do
#: land in the tail.
COLD_THINK_S = 0.05
#: a serve-mixed run is this many cycles of mixed load, each followed by
#: a short stretch of hits alone over which the server CPU per request is
#: measured.  In the mixed load a few misses of up to ~1.5 s each are most
#: of the CPU, so CPU per request there follows how many of them a run
#: happens to draw.
SERVE_CYCLES = 5
#: share of a serve-mixed run given to the hits-alone stretches
SOLO_SHARE = 0.2
#: windows per hits-alone stretch.  The reported CPU per request is the
#: median over all windows of the run: the host's speed swings on a scale
#: of a second, and a median, like the latency medians, is not pulled by
#: the slow spells the way a total is.
SOLO_WINDOWS = 3


def _verdict(body: bytes) -> str | None:
    try:
        return json.loads(body).get("verdict")
    except (ValueError, AttributeError):
        return None


class Failures:
    """Failed operations, with the first few reasons kept for the report."""

    def __init__(self) -> None:
        self.count = 0
        self.examples: list[str] = []
        self._lock = threading.Lock()

    def add(self, reason: str) -> None:
        with self._lock:
            self.count += 1
            if len(self.examples) < 10:
                self.examples.append(reason)


def timing_metrics(
    *,
    setup: list[float],
    latencies: list[float],
    live: list[float],
    cpu_per_request: float,
    rss_mb: float,
) -> dict[str, tuple[float, str]]:
    """The end-to-end metrics, named alike on every workload (README.md)."""
    return {
        "setup_s": (stats.median(setup), "s"),
        "latency_p50_s": (stats.median(latencies), "s"),
        "latency_tail_s": (stats.tail(latencies)[0], "s"),
        "live_latency_p50_s": (stats.median(live), "s"),
        "live_latency_tail_s": (stats.tail(live)[0], "s"),
        "cpu_per_request_s": (cpu_per_request, "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def describe(name: str, values: list[float]) -> str:
    value, pct, beyond = stats.tail(values)
    return (
        f"{name}: n={len(values)} p50={stats.median(values):.4f}s "
        f"tail=p{pct:.2f} {value:.4f}s ({beyond} beyond)"
    )


def setup_times(ws: Workspace, code: str) -> list[float]:
    out = []
    for _ in range(SETUP_REPEATS):
        child = run_child([python(), "-c", code], ws)
        if child.rc != 0:
            raise RuntimeError(f"set-up failed: {child.stderr.decode()[-500:]}")
        out.append(child.wall)
    return out


def whole_rounds(t0: float, seconds: float) -> Iterator[int]:
    """Yield round numbers while the next round, as long as the mean one so
    far, still ends within ``seconds`` of ``t0``: at least one round, and
    never a partial one."""
    n = 0
    while n == 0 or time.perf_counter() - t0 + (time.perf_counter() - t0) / n <= seconds:
        yield n
        n += 1


# ----------------------------------------------------------------------
# cli-cold
# ----------------------------------------------------------------------
def cli_cold(ws: Workspace, seed: int, seconds: float) -> Outcome:
    setup = setup_times(ws, CLI_SETUP)
    plan = draws.cli_cold_plan(seed, thm5_oracle(ws))
    fails = Failures()
    lat: list[float] = []
    cpu = rss = 0.0
    t0 = time.perf_counter()
    for _ in whole_rounds(t0, seconds):
        for d in itertools.islice(plan, draws.CLI_ROUND):
            child = run_child([python(), "-m", "repro", *d.cli_args()], ws)
            lat.append(child.wall)
            cpu += child.cpu
            rss = max(rss, child.rss_mb)
            got = _verdict(child.stdout)
            if child.rc != 0 or got != d.expect:
                fails.add(f"{' '.join(d.cli_args())}: rc={child.rc} verdict={got} want {d.expect}")
    return Outcome(
        attempted=len(lat),
        failed=fails.count,
        metrics=timing_metrics(
            setup=setup, latencies=lat, live=lat, cpu_per_request=cpu / len(lat), rss_mb=rss,
        ),
        report=[describe("cli calls", lat), *fails.examples],
        detail={
            "cli_latency_p50_s": stats.median(lat),
            "cli_latency_tail": stats.tail(lat),
            "error_ratio": fails.count / max(1, len(lat)),
            "failures": fails.examples,
        },
    )


# ----------------------------------------------------------------------
# serve-mixed
# ----------------------------------------------------------------------
@dataclass
class Answer:
    status: int
    source: str | None
    body: bytes
    latency: float


#: close client sockets with a reset: the server closes every connection
#: first, and thousands of its sockets a run would otherwise sit in
#: TIME_WAIT holding loopback ports, slowing the next run's connects
_LINGER_OFF = struct.pack("ii", 1, 0)


def ask(url: tuple[str, int], d: draws.Draw) -> Answer:
    """One request on its own connection (the server closes after each)."""
    t0 = time.perf_counter()
    conn = http.client.HTTPConnection(*url, timeout=300)
    try:
        conn.connect()
        conn.sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, _LINGER_OFF)
        conn.request(
            "POST", d.endpoint, body=json.dumps(d.http_body()),
            headers={"Content-Type": "application/json"},
        )
        resp = conn.getresponse()
        body = resp.read()
        status, source = resp.status, resp.getheader("X-Repro-Source")
    finally:
        conn.close()
    return Answer(status, source, body, time.perf_counter() - t0)


def check(answer: Answer, d: draws.Draw, source: str, fails: Failures) -> bool:
    got = _verdict(answer.body)
    if answer.status != 200 or answer.source != source or got != d.expect:
        fails.add(
            f"{d.endpoint} {d.scenario} {d.params_json}: status={answer.status} "
            f"source={answer.source} (want {source}) verdict={got} (want {d.expect})"
        )
        return False
    return True


class ServeProcess:
    """``python -m repro serve`` on an OS-assigned port in its own directory."""

    def __init__(self, ws: Workspace, *extra: str) -> None:
        self.cwd = ws.fresh_dir("serve")
        env = dict(ws.env, PYTHONUNBUFFERED="1")  # the listening line, unbuffered
        self.err = open(self.cwd / "stderr.txt", "wb")
        self.proc = subprocess.Popen(
            [python(), "-m", "repro", "serve", "--port", "0", *extra],
            stdout=subprocess.PIPE, stderr=self.err, cwd=self.cwd, env=env,
        )
        self.url = read_listening(self.proc, self.cwd / "stderr.txt")
        self.rss_mb = 0.0

    def cpu(self) -> float:
        """User + system seconds the server has used so far."""
        fields = Path(f"/proc/{self.proc.pid}/stat").read_text().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def stop(self) -> None:
        self.proc.send_signal(signal.SIGINT)
        self.proc.stdout.close()
        deadline = time.monotonic() + 15
        while True:
            pid, status, usage = os.wait4(self.proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                self.proc.kill()
                _, status, usage = os.wait4(self.proc.pid, 0)
                break
            time.sleep(0.02)
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.rss_mb = usage.ru_maxrss / 1024.0
        self.err.close()


def read_listening(proc: subprocess.Popen, err_path: Path) -> tuple[str, int]:
    line = proc.stdout.readline().decode()
    m = re.search(r"http://([\d.]+):(\d+)", line)
    if m is None:
        proc.kill()
        proc.wait()
        raise RuntimeError(
            f"server did not come up: {line!r} {err_path.read_text()[-500:]}"
        )
    return m.group(1), int(m.group(2))


def warm(url: tuple[str, int], hot: list[draws.Draw], fails: Failures) -> int:
    """Answer the hot set once, on two connections (the first misses)."""
    def worker(part: list[draws.Draw]) -> None:
        for d in part:
            check(ask(url, d), d, "live", fails)

    threads = [threading.Thread(target=worker, args=(hot[i::2],)) for i in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return len(hot)


@dataclass
class MixedRun:
    hits: list[float] = field(default_factory=list)
    misses: list[float] = field(default_factory=list)
    answered: list[tuple[draws.Draw, bytes, str]] = field(default_factory=list)

    def extend(self, other: MixedRun) -> None:
        self.hits += other.hits
        self.misses += other.misses
        self.answered += other.answered


def mixed_load(
    url: tuple[str, int],
    hot: list[draws.Draw],
    cold: Iterator[draws.Draw],
    fails: Failures,
    *,
    seconds: float | None = None,
    counts: tuple[int, int] | None = None,
) -> MixedRun:
    """The two closed-loop clients, for ``seconds`` or ``(hits, misses)`` requests:
    the hot reader asks again as soon as it has an answer, the cold writer
    after ``COLD_THINK_S``."""
    run = MixedRun()

    def loop(next_draw: Callable[[], draws.Draw], source: str, out: list[float], n, think):
        i = 0
        while (n is None and time.perf_counter() < stop_at) or (n is not None and i < n):
            d = next_draw()
            a = ask(url, d)
            out.append(a.latency)
            if check(a, d, source, fails) and d.command == "search":
                run.answered.append((d, a.body, source))
            i += 1
            time.sleep(think)

    hot_iter = _forever(hot)
    stop_at = time.perf_counter() + (seconds or 0)
    n_hits, n_misses = counts if counts else (None, None)
    threads = [
        threading.Thread(target=loop, args=(hot_iter.__next__, "cache", run.hits, n_hits, 0)),
        threading.Thread(
            target=loop, args=(cold.__next__, "live", run.misses, n_misses, COLD_THINK_S)
        ),
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return run


def solo_hits(url: tuple[str, int], hot: list[draws.Draw], fails: Failures, seconds: float) -> int:
    """The hot reader alone, asking again at once, for ``seconds`` (at least
    one request); returns how many hits it got."""
    n = 0
    stop_at = time.perf_counter() + seconds
    for d in _forever(hot):
        if n and time.perf_counter() >= stop_at:
            return n
        check(ask(url, d), d, "cache", fails)
        n += 1


def _forever(items: list) -> Iterator:
    while True:
        yield from items


def byte_check(ws: Workspace, answered, fails: Failures) -> int:
    """Serve answers must equal ``repro search --json`` for the same question:
    the first few cache hits and live answers."""
    picked = [
        (d, body)
        for source in ("cache", "live")
        for d, body, _ in [a for a in answered if a[2] == source][: BYTE_CHECKS // 2]
    ]
    for d, body in picked:
        child = run_child([python(), "-m", "repro", *d.cli_args()], ws)
        if child.rc != 0 or child.stdout != body:
            fails.add(f"byte mismatch: {' '.join(d.cli_args())}")
    return len(picked)


def serve_mixed(ws: Workspace, seed: int, seconds: float) -> Outcome:
    hot = draws.hot_set(seed)
    cold = draws.cold_plan(seed, thm5_oracle(ws))
    fails = Failures()
    attempted = 0
    setup: list[float] = []
    for i in range(SERVE_SETUP_REPEATS):
        t0 = time.perf_counter()
        server = ServeProcess(ws)
        try:
            attempted += warm(server.url, hot, fails)
            setup.append(time.perf_counter() - t0)
            if i == SERVE_SETUP_REPEATS - 1:
                run, solo, cpu = MixedRun(), 0, []
                mixed_s = seconds * (1 - SOLO_SHARE) / SERVE_CYCLES
                window_s = seconds * SOLO_SHARE / SERVE_CYCLES / SOLO_WINDOWS
                for _ in range(SERVE_CYCLES):
                    run.extend(mixed_load(server.url, hot, cold, fails, seconds=mixed_s))
                    for _ in range(SOLO_WINDOWS):
                        cpu0 = server.cpu()
                        n = solo_hits(server.url, hot, fails, window_s)
                        cpu.append((server.cpu() - cpu0) / n)
                        solo += n
        finally:
            server.stop()
    attempted += len(run.hits) + len(run.misses) + solo + byte_check(ws, run.answered, fails)
    return Outcome(
        attempted=attempted,
        failed=fails.count,
        metrics=timing_metrics(
            setup=setup, latencies=run.hits, live=run.misses,
            cpu_per_request=stats.median(cpu), rss_mb=server.rss_mb,
        ),
        report=[
            describe("hits", run.hits), describe("misses", run.misses),
            f"hits alone: n={solo} in {len(cpu)} windows, server cpu per hit "
            f"median {stats.median(cpu) * 1e3:.3f}ms range {min(cpu) * 1e3:.3f}-{max(cpu) * 1e3:.3f}ms",
            *fails.examples,
        ],
        detail={
            "serve_hit_latency_p50_s": stats.median(run.hits),
            "serve_hit_latency_tail": stats.tail(run.hits),
            "serve_miss_latency_p50_s": stats.median(run.misses),
            "serve_miss_latency_tail": stats.tail(run.misses),
            "error_ratio": fails.count / max(1, attempted),
            "failures": fails.examples,
        },
    )


# ----------------------------------------------------------------------
# battery
# ----------------------------------------------------------------------
def run_battery(ws: Workspace) -> tuple[object, list[dict], Path]:
    """One ``campaign run --spec paper-battery`` into an empty cache."""
    cwd = ws.fresh_dir("battery")
    child = run_child(
        [python(), "-m", "repro", "campaign", "run", "--spec", "paper-battery",
         "--no-progress", "--cache-dir", str(cwd / "cache")],
        ws, cwd=cwd,
    )
    ledger = cwd / "cache" / "ledgers" / "paper-battery.jsonl"
    results = []
    if ledger.exists():
        for line in ledger.read_text().splitlines():
            entry = json.loads(line)
            if entry.get("type") == "result":
                results.append(entry)
    return child, results, cwd


def battery_failures(child, results: list[dict], fails: Failures) -> None:
    if child.rc != 0:
        fails.add(f"campaign run exited {child.rc}: {child.stdout.decode()[-300:]}")
    for r in results:
        if not r["ok"] or (r["expect"] is not None and r["verdict"] != r["expect"]):
            fails.add(f"{r['name']}: verdict {r['verdict']} want {r['expect']} ({r['error']})")


def battery(ws: Workspace, seed: int, seconds: float) -> Outcome:
    """The request is the whole campaign: its time to verdict is the run's wall.

    A campaign outlasts any sensible ``--seconds``, so a run is usually
    one campaign (more only if another fits inside ``seconds``).  The
    paper-battery spec is fixed; the seed changes nothing here.
    """
    setup = setup_times(ws, BATTERY_SETUP)
    fails = Failures()
    walls, cpus, rss, tasks = [], [], 0.0, 0
    t0 = time.perf_counter()
    for _ in whole_rounds(t0, seconds):
        child, results, _ = run_battery(ws)
        battery_failures(child, results, fails)
        walls.append(child.wall)
        cpus.append(child.cpu)
        rss = max(rss, child.rss_mb)
        tasks += len(results)
    return Outcome(
        attempted=max(1, tasks),
        failed=fails.count,
        metrics=timing_metrics(
            setup=setup, latencies=walls, live=walls,
            cpu_per_request=stats.median(cpus), rss_mb=rss,
        ),
        report=[f"battery: runs={len(walls)} wall={walls} cpu={cpus}", *fails.examples],
        detail={
            "battery_wall_s": stats.median(walls),
            "battery_cpu_s": stats.median(cpus),
            "error_ratio": fails.count / max(1, tasks),
            "failures": fails.examples,
        },
    )


def run(workload: str, ws: Workspace, seed: int, seconds: float) -> Outcome:
    return {"cli-cold": cli_cold, "serve-mixed": serve_mixed, "battery": battery}[workload](
        ws, seed, seconds
    )
