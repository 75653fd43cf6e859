"""The traced run: where each workload's time goes, layer by layer.

Separate from the end-to-end runs and seeded the same way.  Each
workload does a fixed amount of work twice: once untraced, as the
end-to-end runs do, and once in ``inproc.py`` with the benchmark's spans
around the program's public entry points.  ``trace.overhead_ratio`` is
the traced wall over the untraced one; ``trace.coverage_ratio`` is the
layer self times (plus imports) over the traced wall, so the two
multiply to the self times over the untraced wall.

``cli-cold``
    One full round of the seeded draw (every family).  Each call runs as
    the real CLI process (the untraced wall), under ``-X importtime``
    (the import layer), and in-process with the same arguments after
    pre-importing what the call imports (every other layer).
``serve-mixed``
    A fixed request plan (hot reader and cold writer) against three
    servers: the shipped one, one with ``--no-telemetry`` (for
    ``obs.hit_overhead_s``), and one in a thread of the traced child.
``battery``
    The real ``campaign run`` process, then ``run_campaign`` in-process.

In the traced child the program's own telemetry is on, and its
``search.deadlock``, ``campaign.task`` and ``serve.request`` spans are
compared with the benchmark's spans around the same calls
(``obs.gap.*_ratio``).
"""

from __future__ import annotations

import itertools
import json
import statistics
import subprocess
import time
from pathlib import Path

import draws
import layers
import stats
import workloads
from harness import Outcome, Workspace, code_fingerprint, python, run_child, thm5_oracle
from spans import Span, load, outermost, self_times
from workloads import Failures

INPROC = str(Path(__file__).resolve().parent / "inproc.py")

#: cold CLI calls traced: two rounds of ``draws.cli_cold_plan``
CLI_CALLS = 2 * draws.CLI_ROUND
#: the serve request plan: hot-reader hits and cold-writer misses
SERVE_PLAN = (400, 10)
#: what ``repro serve`` imports before it listens
SERVE_IMPORTS = "import repro.cli, repro.serve"


def _config(ws: Workspace, mode: str, cfg: dict) -> tuple[Path, Path]:
    out = ws.tmp / f"{mode}-{time.monotonic_ns()}.json"
    cfg_path = out.with_suffix(".cfg.json")
    cfg_path.write_text(json.dumps(dict(cfg, run=out.stem, out=str(out))))
    return cfg_path, out


def inproc(ws: Workspace, mode: str, cfg: dict, *, cwd: Path | None = None):
    cfg_path, out = _config(ws, mode, cfg)
    child = run_child([python(), INPROC, mode, str(cfg_path)], ws, cwd=cwd)
    if child.rc != 0:
        raise RuntimeError(f"traced {mode} run failed: {child.stderr.decode()[-800:]}")
    return child, json.loads(out.read_text())


def bench_search(spans: list[Span]) -> list[float]:
    return [s.dur for s in sorted(outermost(spans, "search"), key=lambda s: s.end)]


def program_durations(out: dict, name: str) -> list[float]:
    return [p["dur"] for p in out["program"] if p["name"] == name]


def program_keyed(out: dict, name: str) -> list[tuple[str, float]]:
    return [(p["task_hash"], p["dur"]) for p in out["program"] if p["name"] == name]


def bench_keyed(spans: list[Span], name: str) -> list[tuple[str, float]]:
    return [(s.attrs["task_hash"], s.dur) for s in spans if s.name == name]


def gaps(out: dict, spans: list[Span]) -> dict[str, float]:
    """The program's own spans against the benchmark's around the same calls:
    searches in completion order, tasks and requests by task hash."""
    return {
        "obs.gap.search_ratio": layers.gap_ratio(
            list(zip(program_durations(out, "search.deadlock"), bench_search(spans)))
        ),
        "obs.gap.task_ratio": layers.gap_ratio(
            layers.match_by_key(program_keyed(out, "campaign.task"), bench_keyed(spans, "task"))
        ),
        "obs.gap.request_ratio": layers.gap_ratio(
            layers.match_by_key(
                program_keyed(out, "serve.request"), bench_keyed(spans, "batcher.submit")
            )
        ),
    }


# ----------------------------------------------------------------------
def cli_cold(ws: Workspace, seed: int, fails: Failures) -> tuple[dict, int]:
    picked = list(itertools.islice(draws.cli_cold_plan(seed, thm5_oracle(ws)), CLI_CALLS))
    groups, imports, search_pairs = [], [], []
    base_wall = traced_wall = covered = 0.0
    events = 0
    for i, d in enumerate(picked):
        args = d.cli_args()
        base = run_child([python(), "-m", "repro", *args], ws)
        if base.rc != 0 or workloads._verdict(base.stdout) != d.expect:
            fails.add(f"{' '.join(args)}: rc={base.rc} want {d.expect}")
        imp = run_child([python(), "-X", "importtime", "-m", "repro", *args], ws)
        imp_err = imp.stderr.decode()
        child, out = inproc(
            ws, "cli",
            {"args": args, "imports": layers.imported_modules(imp_err),
             "telemetry": str(ws.tmp / f"telemetry-{i}.jsonl")},
        )
        if out["stdout"].encode() != base.stdout:
            fails.add(f"in-process output differs from the CLI: {' '.join(args)}")
        spans = load(out["spans"])
        groups.append(spans)
        times = layers.import_times(imp_err)
        imports.append(times)
        base_wall += base.wall
        traced_wall += child.wall
        covered += times["import.total_s"] + sum(self_times(spans).values())
        events += out["events"]
        search_pairs += zip(program_durations(out, "search.deadlock"), bench_search(spans))
    m = layers.aggregate(groups)
    for key in imports[0]:
        m[key] = statistics.median(t[key] for t in imports)
    m["trace.coverage_ratio"] = covered / traced_wall
    m["trace.overhead_ratio"] = traced_wall / base_wall
    m["obs.events"] = events
    m["obs.gap.search_ratio"] = layers.gap_ratio(search_pairs)
    return m, 3 * len(picked)


# ----------------------------------------------------------------------
def _serve_pass(ws, hot, cold, fails, *extra) -> workloads.MixedRun:
    srv = workloads.ServeProcess(ws, *extra)
    try:
        workloads.warm(srv.url, hot, fails)
        return workloads.mixed_load(srv.url, hot, iter(cold), fails, counts=SERVE_PLAN)
    finally:
        srv.stop()


def serve_mixed(ws: Workspace, seed: int, fails: Failures) -> tuple[dict, int]:
    hot = draws.hot_set(seed)
    cold = list(itertools.islice(draws.cold_plan(seed, thm5_oracle(ws)), SERVE_PLAN[1]))
    shipped = _serve_pass(ws, hot, cold, fails)
    quiet = _serve_pass(ws, hot, cold, fails, "--no-telemetry")

    cwd = ws.fresh_dir("serve-traced")
    cfg_path, out_path = _config(ws, "serve", {})
    err_path = cwd / "stderr.txt"
    with open(err_path, "wb") as err:
        proc = subprocess.Popen(
            [python(), INPROC, "serve", str(cfg_path)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=err, cwd=cwd, env=ws.env,
        )
        try:
            url = workloads.read_listening(proc, err_path)
            workloads.warm(url, hot, fails)
            proc.stdin.write(b"measure\n")
            proc.stdin.flush()
            traced = workloads.mixed_load(url, hot, iter(cold), fails, counts=SERVE_PLAN)
        finally:
            proc.stdin.close()
            try:
                proc.wait(120)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
            proc.stdout.close()
    if proc.returncode != 0:
        raise RuntimeError(f"traced serve failed: {err_path.read_text()[-800:]}")
    out = json.loads(out_path.read_text())
    spans = [s for s in load(out["spans"]) if s.start >= out["mark"]]

    m = layers.aggregate([spans])
    m.update(layers.import_times(
        run_child([python(), "-X", "importtime", "-c", SERVE_IMPORTS], ws).stderr.decode()
    ))
    # Requests overlap, and a miss's work runs on the batch thread while
    # its request waits, so self times would count that work twice: here
    # the covered time is each request's server-side handling (submit --
    # cache, batch wait and execution -- plus payload), over the client
    # latencies of the same pass; the rest is HTTP and event-loop time.
    handled = sum(
        s.dur for s in spans if s.name in ("batcher.submit", "payload", "payload.dumps")
    )
    latency = sum(traced.hits) + sum(traced.misses)
    m["trace.coverage_ratio"] = handled / latency
    m["trace.overhead_ratio"] = latency / (sum(shipped.hits) + sum(shipped.misses))
    hit_gets = [s.dur for s in outermost(spans, "cache.get") if s.attrs.get("hit")]
    payload = [s.dur for s in spans if s.name == "payload"]
    dumps = [s.dur for s in spans if s.name == "payload.dumps"]
    m["http.hit_overhead_s"] = stats.median(traced.hits) - stats.median(hit_gets) - (
        stats.median(payload) + stats.median(dumps)
    )
    m["obs.hit_overhead_s"] = stats.median(shipped.hits) - stats.median(quiet.hits)
    m["obs.events"] = out["events"]
    m.update(gaps(out, spans))
    requests = sum(len(r.hits) + len(r.misses) + len(hot) for r in (shipped, quiet, traced))
    return m, requests


# ----------------------------------------------------------------------
def battery(ws: Workspace, seed: int, fails: Failures) -> tuple[dict, int]:
    base, results, _ = workloads.run_battery(ws)
    workloads.battery_failures(base, results, fails)
    cwd = ws.fresh_dir("battery-imports")
    imp = run_child(
        [python(), "-X", "importtime", "-m", "repro", "campaign", "run", "--spec",
         "paper-battery", "--limit", "0", "--no-progress", "--cache-dir", str(cwd / "cache")],
        ws, cwd=cwd,
    )
    cwd = ws.fresh_dir("battery-traced")
    child, out = inproc(
        ws, "battery",
        {"cache_dir": str(cwd / "cache"), "ledger": str(cwd / "ledger.jsonl")},
        cwd=cwd,
    )
    for r in out["results"]:
        if not r["ok"] or (r["expect"] is not None and r["verdict"] != r["expect"]):
            fails.add(f"traced {r['name']}: verdict {r['verdict']} want {r['expect']}")
    spans = load(out["spans"])
    m = layers.aggregate([spans])
    times = layers.import_times(imp.stderr.decode())
    m.update(times)
    m["trace.coverage_ratio"] = (times["import.total_s"] + m["self_total"]) / child.wall
    m["trace.overhead_ratio"] = child.wall / base.wall
    m["obs.events"] = out["events"]
    m.update(gaps(out, spans))
    return m, len(results) + len(out["results"])


# ----------------------------------------------------------------------
def check_counts(ws: Workspace, workload: str, seed: int, m: dict, fails: Failures) -> dict:
    """Deterministic counts must repeat exactly for the same code and seed."""
    now = {k: m.get(k, 0) for k in layers.DETERMINISTIC}
    path = ws.persist / "counts" / f"{workload}-{seed}.json"
    code = code_fingerprint(ws)
    if path.exists():
        before = json.loads(path.read_text())
        if before["code"] == code and before["counts"] != now:
            changed = {k: (before["counts"].get(k), v) for k, v in now.items()
                       if before["counts"].get(k) != v}
            fails.add(f"deterministic counts changed for the same code and seed: {changed}")
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps({"code": code, "counts": now}))
    return now


def run(workload: str, ws: Workspace, seed: int, seconds: float) -> Outcome:
    fails = Failures()
    fn = {"cli-cold": cli_cold, "serve-mixed": serve_mixed, "battery": battery}[workload]
    m, attempted = fn(ws, seed, fails)
    counts = check_counts(ws, workload, seed, m, fails)
    m["error_ratio"] = fails.count / max(1, attempted)
    metrics = {name: (float(m.get(name, 0.0)), layers.unit_of(name)) for name in layers.METRICS}
    self_by_layer = {
        k[len("self."):]: round(v, 6)
        for k, v in sorted(m.items(), key=lambda kv: -kv[1]) if k.startswith("self.")
    }
    report = [f"{name} = {value:.6g} {unit}" for name, (value, unit) in metrics.items()]
    report.append("self time by layer (s): " + json.dumps(self_by_layer))
    return Outcome(
        attempted=attempted,
        failed=fails.count,
        metrics=metrics,
        report=report + fails.examples,
        detail={"counts": counts, "self_by_layer": self_by_layer, "failures": fails.examples},
    )
