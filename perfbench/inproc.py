"""The traced run's child process: the program in-process, wrapped.

Runs in the program's environment (``PYTHONPATH`` pointing at ``src``)::

    python perfbench/inproc.py <cli|serve|battery> <config.json>

Spans are opened by wrappers installed at the module attributes the
program looks its public functions up from; nothing under ``src/`` is
edited.  The spans, and the program's own telemetry spans for the same
calls, are written to ``config["out"]`` when the run ends.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import os
import sys
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from spans import Tracer  # noqa: E402

#: program telemetry spans compared with the benchmark's own
PROGRAM_SPANS = ("search.deadlock", "campaign.task", "serve.request")


def install(tracer: Tracer) -> None:
    """Wrap each layer's public entry points where their callers find them."""
    import repro.analysis as analysis
    import repro.analysis.classify as classify
    import repro.analysis.delay as delay
    import repro.analysis.fastpath as fastpath
    import repro.analysis.kernelpath as kernelpath
    import repro.analysis.reachability as reachability
    import repro.campaign.cache as cache
    import repro.campaign.runner as runner
    import repro.campaign.scenarios as scenarios
    import repro.lint as lint
    import repro.lint.certificates as certificates
    import repro.lint.engine as lint_engine
    import repro.serve.batcher as batcher
    import repro.serve.payloads as payloads
    import repro.serve.server as server
    import repro.sim.engine as sim_engine
    from repro.analysis.state import SystemSpec

    #: task hash -> when ``MicroBatcher.submit`` received it, so the task
    #: span can record how long the task waited for the batch thread
    submitted: dict[str, float] = {}

    def at(sites, attr, wrapper) -> None:
        for site in sites:
            setattr(site, attr, wrapper)

    tracer.wrap(scenarios, "build_scenario", "scenario.build")
    tracer.wrap(SystemSpec, "uniform", "spec.build")
    at(
        (certificates, lint_engine),
        "spec_certificate",
        tracer.wrapped(
            certificates.spec_certificate, "certificate",
            lambda sp, r, *a, **k: sp.attrs.update(decided=r is not None),
        ),
    )
    for attr, peek, engine in (
        ("_engine_for", fastpath.peek_engine, "fast"),
        ("_kernel_engine_for", kernelpath.peek_engine, "kernel"),
    ):
        setattr(reachability, attr, _compile_span(tracer, getattr(reachability, attr), peek, engine))
    at(
        (analysis, classify, delay),
        "search_deadlock",
        tracer.wrapped(
            reachability.search_deadlock, "search",
            lambda sp, r, *a, **k: sp.attrs.update(states=r.states_explored),
        ),
    )
    tracer.wrap(fastpath.FastEngine, "search_witness", "search.witness")
    for name in ("classify_cycle", "classify_configuration"):
        at((analysis, classify), name, tracer.wrapped(getattr(classify, name), "classify"))
    at((analysis, delay), "min_delay_to_deadlock", tracer.wrapped(delay.min_delay_to_deadlock, "delay"))
    tracer.wrap(
        sim_engine.Simulator, "run", "sim",
        lambda sp, r, *a, **k: sp.attrs.update(cycles=r.cycles),
    )
    for name in ("lint_algorithm", "lint_messages"):
        at((lint,), name, tracer.wrapped(getattr(lint_engine, name), "lint"))

    orig_execute = runner.execute_task

    def execute_task(task, **kwargs):
        with tracer.span("task", kind=task.kind, task_hash=task.task_hash) as sp:
            since = submitted.pop(task.task_hash, None)
            if since is not None:
                sp.attrs["wait"] = sp.start - since
            return orig_execute(task, **kwargs)

    runner.execute_task = execute_task
    batcher.run_campaign = tracer.wrapped(
        batcher.run_campaign, "runner",
        lambda sp, r, batch, **k: sp.attrs.update(via="batcher", tasks=len(batch)),
    )
    for cls in (cache.TieredCache, cache.MemoryLRUCache, cache.ResultCache, cache.SqliteCache):
        tracer.wrap(cls, "get", "cache.get", lambda sp, r, *a, **k: sp.attrs.update(hit=r is not None))
        tracer.wrap(cls, "put", "cache.put")

    orig_submit = batcher.MicroBatcher.submit

    async def submit(self, task):
        with tracer.span("batcher.submit", task_hash=task.task_hash) as sp:
            submitted[task.task_hash] = sp.start
            result, source = await orig_submit(self, task)
            submitted.pop(task.task_hash, None)
            sp.attrs["source"] = source
            return result, source

    batcher.MicroBatcher.submit = submit
    for name in ("search_payload_from_result", "classify_payload_from_result",
                 "lint_payload_from_result"):
        tracer.wrap(server, name, "payload")
    tracer.wrap(server, "dumps", "payload.dumps")
    tracer.wrap(payloads, "search_payload", "payload")
    tracer.wrap(payloads, "dumps", "payload.dumps")


def _compile_span(tracer: Tracer, engine_for, peek, engine: str):
    def wrapper(spec):
        if peek(spec) is not None:
            return engine_for(spec)
        with tracer.span("engine.compile", engine=engine):
            return engine_for(spec)

    return wrapper


class ProgramSpans:
    """Telemetry sink keeping the program's own spans of interest."""

    def __init__(self) -> None:
        self.events = 0
        self.spans: list[dict] = []

    def __call__(self, event: dict) -> None:
        self.events += 1
        if event["kind"] == "span_end" and event["name"] in PROGRAM_SPANS:
            self.spans.append(
                {"name": event["name"], "dur": event["dur_s"],
                 "task_hash": event["attrs"].get("task_hash")}
            )


def read_events(path: Path) -> ProgramSpans:
    sink = ProgramSpans()
    if path.exists():
        for line in path.read_text().splitlines():
            sink(json.loads(line))
    return sink


def run_cli(cfg: dict, tracer: Tracer) -> dict:
    for name in cfg["imports"]:
        with contextlib.suppress(Exception):
            importlib.import_module(name)
    install(tracer)
    import repro.cli

    telemetry = Path(cfg["telemetry"])
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = repro.cli.main([*cfg["args"], "--telemetry", str(telemetry)])
    program = read_events(telemetry)
    return {"rc": rc, "stdout": buf.getvalue(), "events": program.events, "program": program.spans}


def run_serve(cfg: dict, tracer: Tracer) -> dict:
    install(tracer)
    import repro.obs as obs
    from repro.serve import ReproServer, ServeConfig

    srv = ReproServer(ServeConfig(port=0))
    thread = threading.Thread(target=srv.run, daemon=True)
    thread.start()
    if not srv.wait_ready(60):
        raise RuntimeError("server did not come up")
    sink = ProgramSpans()
    obs.get().add_sink(sink)
    print(f"listening on {srv.url}", flush=True)
    # the parent writes one line when the measured phase starts, then
    # closes stdin when it is over
    sys.stdin.readline()
    mark = time.perf_counter()
    events_before, spans_before = sink.events, len(sink.spans)
    sys.stdin.read()
    srv.shutdown()
    thread.join(60)
    return {
        "mark": mark,
        "events": sink.events - events_before,
        "program": sink.spans[spans_before:],
    }


def run_battery(cfg: dict, tracer: Tracer) -> dict:
    import repro.obs as obs

    os.environ[obs.ENV_VAR] = "on"
    sink = ProgramSpans()
    obs.get().add_sink(sink)
    install(tracer)
    from repro.campaign import (
        ProgressReporter, RunLedger, RunnerConfig, build_spec, make_backend, run_campaign,
    )

    tasks = build_spec("paper-battery")
    cache = make_backend(None, default_dir=cfg["cache_dir"])
    with RunLedger(cfg["ledger"]) as ledger, tracer.span("runner", tasks=len(tasks)):
        results, summary = run_campaign(
            tasks,
            cache=cache,
            ledger=ledger,
            progress=ProgressReporter(len(tasks), enabled=False),
            config=RunnerConfig(max_workers=1, retries=1),
            spec_name="paper-battery",
        )
    return {
        "events": sink.events,
        "program": sink.spans,
        "all_expected": summary.all_expected,
        "results": [r.to_json() for r in results],
    }


def main() -> int:
    mode, cfg_path = sys.argv[1], sys.argv[2]
    cfg = json.loads(Path(cfg_path).read_text())
    tracer = Tracer(run=cfg["run"])
    out = {"cli": run_cli, "serve": run_serve, "battery": run_battery}[mode](cfg, tracer)
    out["spans"] = tracer.dump()
    Path(cfg["out"]).write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
