"""Shared benchmark plumbing: the hermetic workspace, measured child
processes, run metadata, and the result every workload returns."""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import draws

HERE = Path(__file__).resolve().parent

#: environment variables that would change what the program does; the
#: benchmark runs it with none of them set (every ``REPRO_*`` goes)
_DROPPED_ENV = ("PYTHONPATH", "PYTHONDONTWRITEBYTECODE", "PYTHONUNBUFFERED", "PYTHONSTARTUP")


@dataclass
class Child:
    """One finished program process, measured from spawn to exit."""

    rc: int
    stdout: bytes
    stderr: bytes
    wall: float
    cpu: float
    rss_mb: float


class Workspace:
    """Where one benchmark run keeps everything it writes.

    All of it sits inside the checkout: a fresh temp directory for the
    program's working directory, caches, ledgers and serve cache
    (removed at the end), and a persistent ``.perfbench-cache`` for the
    bytecode and compiled-kernel caches, which a user's installation
    also keeps warm between calls.
    """

    def __init__(self, root: Path) -> None:
        self.root = root
        self.src = root / "src"
        self.persist = root / ".perfbench-cache"
        self.persist.mkdir(exist_ok=True)
        scratch = root / ".perfbench-tmp"
        scratch.mkdir(exist_ok=True)
        self.tmp = Path(tempfile.mkdtemp(prefix="run-", dir=scratch))
        self.env = {
            k: v
            for k, v in os.environ.items()
            if not k.startswith("REPRO_") and k not in _DROPPED_ENV
        }
        self.env.update(
            PYTHONPATH=str(self.src),
            PYTHONPYCACHEPREFIX=str(self.persist / "pycache"),
            REPRO_KERNEL_CACHE=str(self.persist / "kernel"),
            TMPDIR=str(self.tmp),
            XDG_CACHE_HOME=str(self.tmp / "xdg"),
        )

    def fresh_dir(self, name: str) -> Path:
        return Path(tempfile.mkdtemp(prefix=f"{name}-", dir=self.tmp))

    def close(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)


def python() -> str:
    return sys.executable


def run_child(
    argv: list[str], ws: Workspace, *, cwd: Path | None = None, env: dict | None = None
) -> Child:
    """Spawn, wait, and measure one process (wall, CPU and peak RSS are its own)."""
    err_path = ws.tmp / f"stderr-{time.monotonic_ns()}"
    with open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            argv,
            stdout=subprocess.PIPE,
            stderr=err,
            cwd=cwd or ws.tmp,
            env=env or ws.env,
        )
        out = proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    stderr = err_path.read_bytes()
    err_path.unlink()
    return Child(
        rc=proc.returncode,
        stdout=out,
        stderr=stderr,
        wall=wall,
        cpu=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024.0,
    )


def warm_bytecode(ws: Workspace) -> None:
    """Compile the program once, untimed: users run it from bytecode."""
    subprocess.run(
        [python(), "-m", "compileall", "-q", str(ws.src / "repro")],
        env=ws.env, cwd=ws.tmp, check=True, stdout=subprocess.DEVNULL,
    )


_META_PROBE = """
import json, importlib.util, shutil
from repro.analysis.reachability import resolve_engine
from repro.analysis.kernelpath import resolve_backend
print(json.dumps({
    "default_engine": resolve_engine(None),
    "kernel_backend": resolve_backend(),
    "numba": importlib.util.find_spec("numba") is not None,
    "cc": shutil.which("cc") is not None,
}))
"""


def metadata(ws: Workspace, seed: int) -> dict:
    probe = run_child([python(), "-c", _META_PROBE], ws)
    if probe.rc != 0:
        raise RuntimeError(f"environment probe failed: {probe.stderr.decode()[-500:]}")
    meta = json.loads(probe.stdout)
    commit = None
    if (ws.root / ".git").exists():
        got = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ws.root, capture_output=True, text=True
        )
        commit = got.stdout.strip() or None
    meta.update(
        nproc=os.cpu_count(),
        python=sys.version.split()[0],
        commit=commit,
        seed=seed,
    )
    return meta


def code_fingerprint(ws: Workspace) -> str:
    """Digest of the program and benchmark sources (keys the count records)."""
    h = hashlib.sha256()
    for base in (ws.src / "repro", HERE):
        for path in sorted(base.rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                h.update(str(path.relative_to(ws.root)).encode())
                h.update(path.read_bytes())
    return h.hexdigest()


def thm5_oracle(ws: Workspace) -> draws.Thm5Oracle:
    """``repro.core.conditions``: the Theorem 5 answer, independent of the search."""
    sys.path.insert(0, str(ws.src))
    from repro.core import conditions, specs

    return draws.thm5_oracle_from(conditions, specs)



@dataclass
class Outcome:
    """What one workload run reports."""

    attempted: int
    failed: int
    metrics: dict[str, tuple[float, str]]
    report: list[str] = field(default_factory=list)
    detail: dict = field(default_factory=dict)
