"""Closed-loop benchmark of the homsample CLI.

One client runs one CLI operation at a time, each in a fresh process
(``python -m homsample ...``), so no cache carries over between
operations. Usage, from the repository root::

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

A run sets up the workload's dataset from ``--seed``, runs one untimed
warm-up operation, then runs operations until ``--seconds`` have passed
(the warm-up included); set-up is repeated before and between operations
and its median reported. The last operation repeats the first
operation's seed; its output files must be identical to the first's.
Every operation's outputs are checked against reference values computed
in ``workloads.py``. An operation that exits non-zero, hangs or fails a
check counts as failed; ``failed / attempted`` is printed as failed_frac.
Operations are spawned by ``launcher.py``.

The speed of a shared machine can drift by tens of percent over minutes,
moving operation and set-up times together. So a fixed calibration probe
(``probe_s``) runs before and between operations, and the times reported
as end-to-end metrics are wall times scaled by PROBE_REF_S over the run's
median probe time: seconds at the machine speed where the probe takes
PROBE_REF_S. The unscaled wall times are printed beside them and kept in
the result file under ``e2e_wall``.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced operations with operations run under ``tracer.py`` and reports
the per-layer metrics, medians over the traced operations. Metric names
and units are those in ``BENCHMARK.json``; MB means 10^6 bytes. Human-
readable lines and run metadata precede the result, which is the last
line of standard output. Scratch files go to ``.bench_work/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 3
SETUP_SHARE = 0.05
OP_TIMEOUT_S = 60.0
TAIL_BEYOND = 10            # op_tail_s: highest percentile with this many operations above it
MB = 1e6
PROBE_REF_S = 0.012         # median probe time on the 2-vCPU machine the bounds were set on
PROBES_PER_OP = 3


def fail(msg: str, code: int = 2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def load_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        fail("run from the repository root: BENCHMARK.json not found")
    spec = json.loads(path.read_text(encoding="utf-8"))
    names = {k: {m["name"] for m in spec[k]} for k in ("workloads", "end_to_end", "per_layer")}
    if names["workloads"] != set(workloads.WORKLOADS):
        fail(f"BENCHMARK.json workloads {sorted(names['workloads'])} differ from workloads.py", 4)
    pred = json.loads((HERE / "predictions.json").read_text(encoding="utf-8"))
    cited = set(pred["workloads"]) ^ names["workloads"]
    for p in pred["predictions"]:
        cited |= set(p["layer_metrics"]) - names["per_layer"]
        cited |= (set(p["moves"]) | set(p["flat"])) - names["workloads"]
        cited |= {m for ms in p["moves"].values() for m in ms} - names["end_to_end"]
    if cited:
        fail(f"predictions.json names unknown or missing metrics/workloads: {sorted(cited)}", 4)
    return spec


def import_program():
    """Import homsample from this checkout's src/, never from an installed copy."""
    src = ROOT / "src"
    if not (src / "homsample" / "__init__.py").is_file():
        fail(f"no program source at {src / 'homsample'}")
    sys.path.insert(0, str(src))
    import homsample
    if Path(homsample.__file__).resolve().parent != (src / "homsample").resolve():
        fail(f"homsample imported from {homsample.__file__}, not from {src}")


def run_metadata(workload: str, seed: int, seconds: int, trace: int) -> dict:
    sha = dirty = None
    if (ROOT / ".git").exists():
        git = ["git", "-C", str(ROOT)]
        sha = subprocess.run(git + ["rev-parse", "HEAD"], capture_output=True, text=True).stdout.strip()
        dirty = bool(subprocess.run(git + ["status", "--porcelain", "--untracked-files=no"],
                                    capture_output=True, text=True).stdout.strip())
    src_lines = sum(len(p.read_bytes().splitlines()) for p in sorted((ROOT / "src").rglob("*.py")))
    return {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
            "git_sha": sha, "git_dirty": dirty, "python": platform.python_version(),
            "numpy": np.__version__, "nproc": os.cpu_count(), "src_lines": src_lines}


# -- one operation -------------------------------------------------------------

class Launcher:
    """Client of ``launcher.py``, the small process that spawns every operation."""

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, "-S", str(HERE / "launcher.py")],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def run(self, argv: list, env: dict, stderr_path: Path) -> dict:
        req = {"argv": argv, "env": env, "cwd": str(ROOT), "stderr": str(stderr_path),
               "timeout": OP_TIMEOUT_S}
        self.proc.stdin.write(json.dumps(req) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("the launcher process exited")
        rec = json.loads(line)
        rec["rss_mb"] = rec.pop("maxrss_kb") * 1024 / MB
        return rec

    def close(self, abort: bool = False):
        """Stop the launcher; with ``abort`` it kills a running operation first."""
        self.proc.stdin.close()
        if abort:
            self.proc.terminate()
        try:
            self.proc.wait(timeout=OP_TIMEOUT_S + 10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


class Loop:
    """State of one closed-loop run over a set-up dataset."""

    def __init__(self, wl, ds, work: Path, launcher: Launcher):
        self.wl, self.ds, self.work, self.launcher = wl, ds, work, launcher
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
        self.out_dir = work / "out"
        self.out_dir.mkdir()

    def op(self, seed: int, traced: bool) -> dict:
        argv, outs = self.wl.op_args(self.ds.manifest, self.out_dir, seed)
        for p in outs:
            p.unlink(missing_ok=True)
        prefix = self.work / "trace"
        for p in (f"{prefix}.npy", f"{prefix}.json"):
            Path(p).unlink(missing_ok=True)
        if traced:
            cmd = [sys.executable, str(HERE / "tracer.py"), str(prefix), *argv]
        else:
            cmd = [sys.executable, "-m", "homsample", *argv]
        rec = self.launcher.run(cmd, self.env, self.work / "stderr.txt")
        rec.update(seed=seed, traced=traced, errors=[], reps=0, point=None)
        if rec["hung"]:
            rec["errors"].append(f"killed after {OP_TIMEOUT_S} s")
        elif rec["rc"] != 0:
            msg = (self.work / "stderr.txt").read_text(errors="replace").strip().splitlines()
            rec["errors"].append(f"exit code {rec['rc']}: {msg[-1] if msg else ''}")
        blobs = [p.read_bytes() if p.is_file() else None for p in outs]
        rec["blobs"] = blobs
        rec["out_bytes"] = sum(len(b) for b in blobs if b is not None)
        if not rec["errors"]:
            if any(b is None for b in blobs):
                rec["errors"].append("missing output file")
            else:
                check = workloads.check_outputs(self.wl, self.ds, blobs)
                rec["errors"] += check.errors
                rec["reps"], rec["point"] = check.reps, check.point
        if traced and rec["rc"] == 0:
            rec["layers"] = read_trace(prefix, rec["wall"])
        return rec


def read_trace(prefix: Path, wall: float) -> dict:
    with open(f"{prefix}.json", encoding="utf-8") as fh:
        meta = json.load(fh)
    spans = np.load(f"{prefix}.npy")
    calls, total, own = tracer.layer_times(spans, len(meta["names"]))
    out = dict(meta["counters"])
    for name, c, t, s in zip(meta["names"], calls, total, own):
        out[f"{name}.calls"] = int(c)
        out[f"{name}.total_s"] = t / 1e9
        out[f"{name}.self_s"] = s / 1e9
    out["cli.startup_s"] = wall - out["cli.main.total_s"]
    out["_absent"] = meta["absent"]
    out["_hook_errors"] = meta["hook_errors"]
    return out


def probe_s() -> float:
    """Time one fixed unit of interpreter and numpy work, gauging the machine's current speed."""
    t0 = time.perf_counter()
    x = 0
    for i in range(120_000):
        x += i * i
    np.sort(np.random.default_rng(0).random(300_000))
    return time.perf_counter() - t0


def op_seed(seed: int, index: int) -> int:
    return int(np.random.SeedSequence([seed, 1, index]).generate_state(1)[0])


# -- a whole run ----------------------------------------------------------------

def tail(values: list) -> tuple:
    """Highest order statistic with TAIL_BEYOND values above it, its percentile and count above."""
    xs = sorted(values)
    k = len(xs) - TAIL_BEYOND - 1
    if k < 0:  # too few operations for the definition: report the maximum
        k = len(xs) - 1
    return xs[k], 100.0 * (k + 1) / len(xs), len(xs) - k - 1


class Setup:
    """Repeated set-up of one workload's dataset, keeping every repeat's time.

    Set-up runs SETUP_REPEATS times before the warm-up, then again
    between operations whenever the repeats made there have used less
    than SETUP_SHARE of the operation time so far. Its median thus
    samples the whole run, as the operation times do, rather than one
    moment of a machine whose speed drifts.
    """

    def __init__(self, wl, work: Path, seed: int, trace: bool):
        self.wl, self.work, self.seed = wl, work, seed
        self.times, self.layers = [], []
        self.between_s = 0.0
        self.gen = tracer.Tracer(["graphon.sample_w_random_graph"]) if trace else None
        if self.gen is not None:
            self.gen.install()

    def once(self):
        k0 = len(self.gen.spans) if self.gen else 0
        t0 = time.perf_counter()
        ds = workloads.setup_dataset(self.wl, ROOT, self.work, self.seed)
        self.times.append(time.perf_counter() - t0)
        if self.gen is not None:
            calls, total, own = tracer.layer_times(self.gen.span_array()[k0:], 1)
            self.layers.append({"graphon.sample_w_random_graph.calls": int(calls[0]),
                                "graphon.sample_w_random_graph.total_s": total[0] / 1e9,
                                "graphon.sample_w_random_graph.self_s": own[0] / 1e9})
        return ds

    def between(self, op_total_s: float):
        while self.between_s < SETUP_SHARE * op_total_s:
            t0 = time.perf_counter()
            self.once()
            self.between_s += time.perf_counter() - t0


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> dict:
    wl = workloads.WORKLOADS[name]
    work = ROOT / ".bench_work" / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return _run(wl, work, seed, seconds, trace)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def closed_loop(loop: Loop, seed: int, seconds: int, trace: bool, between) -> tuple:
    """Warm-up, then operations until the time is up, then a repeat of the first seed."""
    deadline = time.perf_counter() + seconds
    warm = loop.op(int(np.random.SeedSequence([seed, 2]).generate_state(1)[0]), traced=False)
    del warm["blobs"]
    ops = []
    while True:
        i = len(ops)
        ops.append(loop.op(op_seed(seed, i), traced=trace and i % 2 == 1))
        if i > 0:
            del ops[-1]["blobs"]
        between(sum(o["wall"] for o in ops))
        typical = statistics.median(o["wall"] for o in ops)
        if time.perf_counter() + 2 * typical > deadline:
            break
    repeat = loop.op(ops[0]["seed"], traced=trace)
    if repeat.pop("blobs") != ops[0].pop("blobs"):
        repeat["errors"].append("outputs differ from the first operation's, with the same seed")
    ops.append(repeat)
    return warm, ops


def _run(wl, work: Path, seed: int, seconds: int, trace: bool) -> dict:
    st = Setup(wl, work, seed, trace)
    probes = [probe_s() for _ in range(PROBES_PER_OP)]

    def between(op_total_s: float):
        probes.extend(probe_s() for _ in range(PROBES_PER_OP))
        st.between(op_total_s)

    try:
        for _ in range(SETUP_REPEATS):
            ds = st.once()
        launcher = Launcher()
        try:
            warm, ops = closed_loop(Loop(wl, ds, work, launcher), seed, seconds, trace, between)
        except BaseException:
            launcher.close(abort=True)
            raise
        launcher.close()
    except workloads.SetupError as exc:
        fail(f"set-up failed: {exc}", 3)
    setup_times, gen_layers = st.times, st.layers

    run_errors = workloads.pooled_check(wl, ds, [o["point"] for o in ops[:-1]
                                                 if o["point"] is not None])
    attempted = ops + [warm]
    failed = sum(1 for o in attempted if o["errors"])
    timed = [o for o in ops if not o["traced"]]
    walls = [o["wall"] for o in timed]
    tail_value, tail_pct, beyond = tail(walls)
    wall = {
        "op_p50_s": statistics.median(walls),
        "op_tail_s": tail_value,
        "reps_per_s": sum(o["reps"] for o in timed) / sum(walls),
        "setup_s": statistics.median(setup_times),
    }
    scale = PROBE_REF_S / statistics.median(probes)
    e2e = {k: v / scale if k == "reps_per_s" else v * scale for k, v in wall.items()}
    e2e["peak_rss_mb"] = max(o["rss_mb"] for o in attempted if not o["traced"])
    e2e["output_mb"] = statistics.median(o["out_bytes"] for o in timed) / MB
    notes = {"op_tail_s": f"p{tail_pct:.0f} of {len(walls)} ops, {beyond} beyond",
             "setup_s": f"median of {len(setup_times)} set-ups",
             "op_p50_s": f"{len(walls)} ops",
             "speed": f"median probe {statistics.median(probes):.4g} s of {len(probes)}, "
                      f"times scaled by {scale:.4f}"}
    for k, v in wall.items():
        notes[k] = "; ".join(filter(None, (f"wall {v:.6g}", notes.get(k))))
    layers = {}
    if trace:
        traced = [o["layers"] for o in ops if o.get("layers")]
        if not traced:
            fail(f"no traced operation succeeded: {[e for o in ops for e in o['errors']][:3]}", 5)
        keys = [k for k in traced[0] if not k.startswith("_")]
        layers = {k: statistics.median(t[k] for t in traced) for k in keys}
        gen_keys = gen_layers[0].keys()
        layers.update({k: statistics.median(g[k] for g in gen_layers) for k in gen_keys})
        layers["process.cpu_s"] = statistics.median(o["cpu_s"] for o in timed)
        layers["trace.overhead_s"] = (statistics.median(o["wall"] for o in ops if o["traced"])
                                      - wall["op_p50_s"])
        notes["absent"] = sorted({a for t in traced for a in t["_absent"]})
        notes["hook_errors"] = {k: v for t in traced for k, v in t["_hook_errors"].items()}
        notes["traced_ops"] = len(traced)
    errors = run_errors + [f"op seed {o['seed']}: {e}" for o in attempted for e in o["errors"]]
    return {"e2e": e2e, "e2e_wall": wall, "probe_s": probes, "layers": layers,
            "notes": notes, "errors": errors,
            "attempted": len(attempted), "failed": failed, "correct": not errors,
            "ops": [{k: v for k, v in o.items() if k != "layers"} for o in attempted]}


# -- reporting -------------------------------------------------------------------

def report(name: str, spec: dict, res: dict, trace: bool, meta: dict) -> dict:
    """Print the human-readable lines and return the contract result object."""
    group = spec["per_layer"] if trace else spec["end_to_end"]
    values = res["layers"] if trace else res["e2e"]
    missing = [m["name"] for m in group if m["name"] not in values]
    extra = sorted(set(values) - {m["name"] for m in group})
    if missing or extra:
        fail(f"metrics disagree with BENCHMARK.json: missing {missing}, unlisted {extra}", 4)
    print(f"== {name}  seed {meta['seed']}  trace {int(trace)}  "
          f"failed {res['failed']}/{res['attempted']} "
          f"(failed_frac {res['failed'] / res['attempted']:.4f})")
    for m in group:
        note = res["notes"].get(m["name"])
        print(f"  {m['name']:48s} {values[m['name']]:14.6g} {m['unit']:6s}"
              + (f"  ({note})" if note else ""))
    for key in ("speed", "absent", "hook_errors"):
        if res["notes"].get(key):
            print(f"  {key}: {res['notes'][key]}")
    for err in res["errors"][:20]:
        print(f"  ERROR {err}")
    print(json.dumps({"meta": meta}))
    return {"correct": res["correct"], "attempted": res["attempted"], "failed": res["failed"],
            "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in group}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, help=f"one of {sorted(workloads.WORKLOADS)} or 'all'")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    spec = load_spec()
    import_program()
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    if any(n not in workloads.WORKLOADS for n in names):
        fail(f"unknown workload {args.workload!r}")
    results = {}
    for name in names:
        meta = run_metadata(name, args.seed, args.seconds, args.trace)
        res = run_workload(name, args.seed, args.seconds, bool(args.trace))
        results[name] = report(name, spec, res, bool(args.trace), meta)
        out = ROOT / ".bench_work" / "results" / f"{name}-seed{args.seed}-trace{args.trace}.json"
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps({"meta": meta, "result": results[name], **res}, indent=1))
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
