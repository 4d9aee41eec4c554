#!/usr/bin/env python3
"""perfbench: the end-to-end and per-layer benchmark of the superc CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first run builds `superc` and the
helper `perfbench-tool` (under $CARGO_TARGET_DIR, default `.bench_build`),
then every run:

1. generates a kernelgen `kernel`-preset tree from --seed into
   `.bench_work/` (untimed, excluded from every number including setup_s);
2. measures the workload for --seconds with one closed-loop client and
   `jobs = min(2, nproc)` workers inside superc (--trace 0), or measures a
   shorter untraced phase and then the traced in-process run that times
   each layer's entry points (--trace 1);
3. checks every output: exit status, `ok:false`, fatal/parse/budget
   diagnostics, byte identity with an untimed fresh one-shot CLI run over
   the same tree state, and real `gcc -E` on seeded (unit, configuration)
   pairs;
4. prints every metric by name with its unit, writes a full report to
   `.bench_work/report-<workload>-<seed>-trace<t>.json`, and prints one
   JSON object as its last stdout line.

Workloads, end-to-end and per-layer metrics are declared in BENCHMARK.json
at the checkout root; perfbench/README.md explains each.
"""

import argparse
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORK = os.path.join(ROOT, ".bench_work")
UNITS = 256
GRID = ["gcc-linux", "clang-macos", "msvc-windows"]
CORES = os.cpu_count() or 1
JOBS = min(2, CORES)
CLIENT = "closed loop, 1 client process, next request after the previous response"
OP_TIMEOUT_S = 60
GCC_PAIRS = 12
ONESHOT_POOL = 24

WHY = {
    "tree_lint": "cold whole-kernel lint pass: lexer, cpp+L2, bdd, fmlr, csyntax and analyze do all "
    "the work; memo, service and daemon protocol do none",
    "oneshot": "one unit per process: process start and c_artifacts() dominate; L2, memo and pool do "
    "nothing, isolating cold-start work",
    "daemon_edit": "long-running daemon: edit, whole-tree lint, 3-profile lint; memo, rehash, Driver, "
    "protocol and render do most work; both pooled drivers",
}


def die(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


# ---------------------------------------------------------------- build


def build():
    """Builds superc and perfbench-tool from the checkout's source."""
    for need in ("Cargo.toml", "Cargo.lock", "crates/core/Cargo.toml", "perfbench/tool/Cargo.toml"):
        if not os.path.isfile(os.path.join(ROOT, need)):
            die(f"{need} is missing: run from the root of a full checkout")
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    for args in (
        ["-p", "superc", "--bin", "superc"],
        ["--manifest-path", os.path.join("perfbench", "tool", "Cargo.toml")],
    ):
        cmd = ["cargo", "build", "--offline", "--release", "-q"] + args
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            die("build failed: " + " ".join(cmd))
    return os.path.join(target, "release", "superc"), os.path.join(target, "release", "perfbench-tool")


# ---------------------------------------------------------------- processes


class Spawned:
    """One finished process: wall time, exit code, peak RSS, output."""

    def __init__(self, wall_s, code, rss_kb, out, err):
        self.wall_s, self.code, self.rss_kb, self.out, self.err = wall_s, code, rss_kb, out, err


def spawn(args, cwd):
    """Runs a process to completion with stdout/stderr to files, timing
    spawn-to-exit and taking its peak RSS from wait4()."""
    out_path = os.path.join(WORK, "spawn.out")
    err_path = os.path.join(WORK, "spawn.err")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        p = subprocess.Popen(args, cwd=cwd, stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        watchdog = threading.Timer(OP_TIMEOUT_S, p.kill)
        watchdog.start()
        _, status, usage = os.wait4(p.pid, 0)
        wall = time.perf_counter() - start
        watchdog.cancel()
        p.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, encoding="utf-8", errors="replace") as f:
        stdout = f.read()
    with open(err_path, encoding="utf-8", errors="replace") as f:
        stderr = f.read()
    return Spawned(wall, p.returncode, usage.ru_maxrss, stdout, stderr)


class Daemon:
    """A `superc daemon` over pipes, one request line at a time."""

    def __init__(self, superc, tree):
        self.start = time.perf_counter()
        self.proc = subprocess.Popen(
            [superc, "daemon", "--jobs", str(JOBS), "-I", "include"],
            cwd=tree,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
            bufsize=1 << 16,
        )
        self.rss_kb = 0

    def request(self, obj):
        """Sends one request; returns (parsed response or None, seconds)."""
        watchdog = threading.Timer(OP_TIMEOUT_S, self.proc.kill)
        watchdog.start()
        start = time.perf_counter()
        try:
            self.proc.stdin.write(json.dumps(obj) + "\n")
            self.proc.stdin.flush()
            line = self.proc.stdout.readline()
        except OSError:
            line = ""
        took = time.perf_counter() - start
        watchdog.cancel()
        try:
            return json.loads(line), took
        except ValueError:
            return None, took

    def close(self):
        """Shuts the daemon down, waits for it, and records its peak RSS."""
        if self.proc.poll() is None:
            try:
                self.proc.stdin.write('{"cmd":"shutdown"}\n')
                self.proc.stdin.close()
            except OSError:
                pass
            watchdog = threading.Timer(OP_TIMEOUT_S, self.proc.kill)
            watchdog.start()
            _, status, usage = os.wait4(self.proc.pid, 0)
            watchdog.cancel()
            self.proc.returncode = os.waitstatus_to_exitcode(status)
            self.rss_kb = usage.ru_maxrss
        self.proc.stdout.close()
        return self.proc.returncode


# ---------------------------------------------------------------- statistics


def tail(samples, p):
    """The highest percentile at or below p with at least ten samples
    beyond it (nearest rank), as (value, percentile used, sample count)."""
    n = len(samples)
    if n == 0:
        return 0.0, 0.0, 0
    v = sorted(samples)
    want = min(max(math.ceil(round(p * n, 9)), 1), n) - 1
    k = min(want, n - 11) if n > 10 else (n - 1) // 2
    return v[k], (k + 1) / n, n


def median(samples):
    return statistics.median(samples) if samples else 0.0


# ---------------------------------------------------------------- checks


class Tally:
    """Attempted and failed operations, with the first few failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes = []

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 20:
                self.notes.append(what)
        return ok


def lint_clean(stdout, stderr):
    """No fatal unit, parse error (partial-parse) or degradation."""
    return not stderr and '"partial-parse"' not in stdout


def oneshot_clean(stderr):
    """Only the generator's deliberate `#error` configurations may speak."""
    for line in stderr.splitlines():
        if "[Error] under " not in line or ": #error " not in line:
            return False
    return True


def same_output(got, ref):
    """The gate: byte-identical stdout and stderr and the same failure
    flag as the reference run (got/ref are (stdout, stderr, failed))."""
    return got == ref


def cli_lint(superc, tree, units, grid, jobs):
    args = [superc, "lint", "--format", "json", "--jobs", str(jobs), "-I", "include"]
    if grid:
        args += ["--profiles", ",".join(GRID)]
    r = spawn(args + units, tree)
    return (r.out, r.err, r.code != 0)


def gcc_reference(tool, tree, units_file, seed, tally):
    out = subprocess.run(
        [tool, "gccref", "--tree", tree, "--seed", str(seed), "--pairs", str(GCC_PAIRS), "--units", units_file],
        capture_output=True,
        text=True,
        timeout=OP_TIMEOUT_S,
    )
    try:
        res = json.loads(out.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        tally.check(False, "gcc reference check did not run: " + out.stderr.strip()[:200])
        return {"attempted": 0, "failed": 1}
    for i in range(res["attempted"]):
        tally.check(i >= res["failed"], "gcc -E differs: " + "; ".join(res["notes"])[:300])
    return res


# ---------------------------------------------------------------- workloads


def setup_probe(superc):
    """setup_s of the one-shot workloads: spawn-to-exit of superc on a
    one-declaration unit, the fixed cost every process pays."""
    d = os.path.join(WORK, "setup")
    if not os.path.isdir(os.path.join(d, "include")):
        os.makedirs(os.path.join(d, "include"))
        with open(os.path.join(d, "one.c"), "w") as f:
            f.write("int perfbench_setup;\n")
    r = spawn([superc, "-I", "include", "one.c"], d)
    if r.code != 0 or r.out or r.err:
        die("superc failed on the one-declaration unit: " + r.err[:200])
    return r.wall_s


def summary(ms, setups, throughputs, rss_mb):
    """The gated metrics. Tail percentiles are reported by each workload
    but not gated: on a shared 2-core VM the one-shot p95 spread 0.39
    across ten runs, beyond any bound the benchmark may set."""
    return {
        "samples_ms": [round(x, 3) for x in ms],
        "setup_s": median(setups),
        "op_ms_p50": median(ms),
        "tokens_per_s": median(throughputs),
        "peak_rss_mb": rss_mb,
    }


def named_tail(name, ms, p, unit="ms"):
    value, used, n = tail(ms, p)
    return {f"{name}_p50": (median(ms), unit, n), f"{name}_p{round(used * 100)}": (value, unit, n)}


def run_tree_lint(ctx, seconds, tally):
    superc, tree, units = ctx["superc"], ctx["tree"], ctx["units"]
    # The untimed reference, at jobs 1: a pass must match it byte for
    # byte whatever the schedule.
    ref = cli_lint(superc, tree, units, False, 1)
    tally.check(not ref[2] and lint_clean(ref[0], ref[1]), "reference lint is not clean: " + ref[1][:200])
    args = [superc, "lint", "--format", "json", "--jobs", str(JOBS), "-I", "include"] + units
    walls, rss, setups = [], [], []
    end = time.perf_counter() + seconds
    while time.perf_counter() < end or len(walls) < 3:
        # Set-up probes interleave with the passes, so both see the same
        # machine over the whole run.
        setups.append(setup_probe(superc))
        r = spawn(args, tree)
        walls.append(r.wall_s)
        rss.append(r.rss_kb / 1024)
        tally.check(
            r.code == 0 and same_output((r.out, r.err, r.code != 0), ref),
            f"tree lint pass {len(walls)} differs from the reference (exit {r.code})",
        )
    ms = [w * 1e3 for w in walls]
    tps = [ctx["tokens"] / w for w in walls]
    named = {"tree_tokens_per_s": (median(tps), "tok/s", len(walls))}
    named.update(named_tail("pass_ms", ms, 0.95))
    return summary(ms, setups, tps, median(rss)), named


def run_oneshot(ctx, seconds, tally):
    superc, tree, units, rng = ctx["superc"], ctx["tree"], ctx["units"], ctx["rng"]
    # The sample: one seeded unit from each of ONESHOT_POOL size strata,
    # so every seed draws the same spread of unit sizes.
    by_size = sorted(range(len(units)), key=lambda k: (ctx["unit_tokens"][k], k))
    stride = len(units) / ONESHOT_POOL
    pool = [by_size[int(i * stride) + rng.randrange(max(1, int(stride)))] for i in range(ONESHOT_POOL)]
    refs = {}
    for k in pool:
        r = spawn([superc, "-I", "include", units[k]], tree)
        tally.check(r.code == 0 and oneshot_clean(r.err), f"{units[k]}: reference run is not clean: {r.err[:200]}")
        refs[k] = (r.out, r.err, r.code != 0)
    ctx["sample"] = [units[k] for k in pool]
    walls, rss, setups, tps = [], [], [], []
    end = time.perf_counter() + seconds
    while time.perf_counter() < end or len(walls) < 21:
        if len(walls) % 8 == 0:
            setups.append(setup_probe(superc))
        k = pool[rng.randrange(len(pool))]
        r = spawn([superc, "-I", "include", units[k]], tree)
        walls.append(r.wall_s)
        rss.append(r.rss_kb / 1024)
        tps.append(ctx["unit_tokens"][k] / r.wall_s)
        got = (r.out, r.err, r.code != 0)
        tally.check(
            r.code == 0 and oneshot_clean(r.err) and same_output(got, refs[k]),
            f"{units[k]}: one-shot run differs from the reference (exit {r.code})",
        )
    ms = [w * 1e3 for w in walls]
    return summary(ms, setups, tps, median(rss)), named_tail("oneshot_ms", ms, 0.95)


def edited(text, n, header):
    """Appends a valid declaration, guarded by a macro nobody defines so
    the lint output changes with every edit (inside a header's include
    guard). Mirrors `edited` in perfbench/tool/src/layers.rs."""
    decl = f"#ifdef BENCH_EDIT_{n}\nint bench_edit_{n};\n#endif\n"
    at = text.rfind("#endif") if header else -1
    if at >= 0:
        return text[:at] + decl + text[at:]
    return text + "\n" + decl


def lint_req(units, grid):
    req = {"cmd": "lint", "units": units, "format": "json"}
    if grid:
        req["profiles"] = GRID
    return req


def response_output(resp):
    if not resp or not resp.get("ok"):
        return None
    return (resp["stdout"], resp["stderr"], resp["failed"])


def vm_hwm_mb(pid):
    """The kernel's peak-RSS figure for a live process, or None."""
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return None


def daemon_setup(superc, tree, single, ref, tally):
    """Spawns a daemon and times spawn to the first whole-tree lint
    response; returns (daemon, seconds)."""
    daemon = Daemon(superc, tree)
    resp, _ = daemon.request(single)
    took = time.perf_counter() - daemon.start
    tally.check(same_output(response_output(resp), ref), "a daemon's first lint differs from the reference")
    return daemon, took


RSS_AT_CYCLE = 20
UNIT_CHECKS = 2


def run_daemon_edit(ctx, seconds, tally):
    superc, tree, units, rng = ctx["superc"], ctx["tree"], ctx["units"], ctx["rng"]
    ref = cli_lint(superc, tree, units, False, JOBS)
    tally.check(not ref[2] and lint_clean(ref[0], ref[1]), "reference lint is not clean: " + ref[1][:200])
    single, grid = lint_req(units, False), lint_req(units, True)
    headers = sorted(os.path.join("include", "sub", h) for h in os.listdir(os.path.join(tree, "include", "sub")))
    # Every tenth edit hits a shared header; every header cycle and a
    # seeded few unit cycles are checked against fresh CLI runs.
    unit_checks = set(rng.sample([n for n in range(RSS_AT_CYCLE) if n % 10 != 9], UNIT_CHECKS))

    daemon, took = daemon_setup(superc, tree, single, ref, tally)
    setups = [took]
    rss_mb = None
    state, edits, checked = {}, [], {}
    edit_ms, grid_ms, cycle_s = [], [], []
    try:
        resp, _ = daemon.request(grid)  # fills the grid's memo, untimed
        tally.check(response_output(resp) is not None, "first grid lint failed")
        end = time.perf_counter() + seconds
        n = 0
        while time.perf_counter() < end or n <= RSS_AT_CYCLE:
            if n % 12 == 11:
                # More set-up samples, spread over the run; the measured
                # daemon waits meanwhile.
                probe, took = daemon_setup(superc, tree, single, ref, tally)
                probe.close()
                setups.append(took)
            header = n % 10 == 9
            path = rng.choice(headers) if header else rng.choice(units)
            if path not in state:
                with open(os.path.join(tree, path)) as f:
                    state[path] = f.read()
            state[path] = edited(state[path], n, header)
            edits.append((path, state[path]))
            t0 = time.perf_counter()
            r_edit, _ = daemon.request({"cmd": "edit", "path": path, "contents": state[path]})
            r_lint, _ = daemon.request(single)
            t1 = time.perf_counter()
            r_grid, _ = daemon.request(grid)
            t2 = time.perf_counter()
            edit_ms.append((t1 - t0) * 1e3)
            grid_ms.append((t2 - t1) * 1e3)
            cycle_s.append(t2 - t0)
            outs = [response_output(r) for r in (r_edit, r_lint, r_grid)]
            ok = all(o is not None and not o[2] for o in outs) and all(lint_clean(o[0], o[1]) for o in outs[1:])
            tally.check(ok, f"cycle {n}: daemon answered ok:false, failed, or a parse error ({path})")
            if header or n in unit_checks:
                checked[n] = (outs[1], outs[2], header)
            if n == RSS_AT_CYCLE:
                rss_mb = vm_hwm_mb(daemon.proc.pid)
            n += 1
    finally:
        daemon.close()
    tally.check(daemon.proc.returncode == 0, f"daemon exited {daemon.proc.returncode}")
    if rss_mb is None:
        rss_mb = daemon.rss_kb / 1024

    selftest = replay_checks(ctx, edits, checked, tally)

    # The gated latency is the whole cycle, edit sent to the last lint
    # read: the edit round-trip alone swings by half between runs (the
    # single lint right after a grid request pays for it unevenly), so
    # it is reported here and in the run report, not gated.
    cycle_ms = [c * 1e3 for c in cycle_s]
    named = named_tail("edit_rtt_ms", edit_ms, 0.95)
    named.update(named_tail("grid_rtt_ms", grid_ms, 0.90))
    named.update(named_tail("cycle_ms", cycle_ms, 0.95))
    named.update({
        "final_peak_rss_mb": (daemon.rss_kb / 1024, "MB", 1),
        "header_edits": (sum(1 for p, _ in edits if p.startswith("include")), "count", len(edits)),
        "checked_cycles": (len(checked), "count", len(edits)),
        "gate_selftest_rejects_stale": (1.0 if selftest else 0.0, "bool", 1),
    })
    return summary(cycle_ms, setups, [ctx["tokens"] / c for c in cycle_s], rss_mb), named


def replay_checks(ctx, edits, checked, tally):
    """Replays the edits on disk, untimed, and compares each checked
    cycle's responses with fresh one-shot CLI runs over that tree state.
    Also runs the gate's self-test: the first checked response compared
    with the reference of the state before its edit must fail."""
    superc, tree, units = ctx["superc"], ctx["tree"], ctx["units"]
    selftest = None
    for n, (path, contents) in enumerate(edits):
        if n in checked and selftest is None:
            stale = cli_lint(superc, tree, units, False, JOBS)
            selftest = not same_output(checked[n][0], stale)
            tally.check(selftest, f"gate self-test: cycle {n} matched the stale reference")
        with open(os.path.join(tree, path), "w") as f:
            f.write(contents)
        if n in checked:
            got_single, got_grid, header = checked[n]
            kind = "header" if header else "unit"
            tally.check(
                same_output(got_single, cli_lint(superc, tree, units, False, JOBS)),
                f"cycle {n} ({kind} edit of {path}): lint differs from a fresh CLI run",
            )
            tally.check(
                same_output(got_grid, cli_lint(superc, tree, units, True, JOBS)),
                f"cycle {n} ({kind} edit of {path}): grid lint differs from a fresh CLI run",
            )
    return bool(selftest)


WORKLOADS = {"tree_lint": run_tree_lint, "oneshot": run_oneshot, "daemon_edit": run_daemon_edit}


# ---------------------------------------------------------------- trace


def run_trace(ctx, seconds, tally, e2e):
    """The traced run: the layer entry points timed in-process by
    perfbench-tool, plus the tracing gap against the untraced phase."""
    units_file = os.path.join(ctx["dir"], "traced-units.txt")
    traced = ctx.get("sample", ctx["units"]) if ctx["workload"] == "oneshot" else ctx["units"]
    with open(units_file, "w") as f:
        f.write("\n".join(traced) + "\n")
    # The untraced phase may have edited the tree: the in-process lint is
    # compared with a fresh CLI run over the tree as it is now.
    ref_file = os.path.join(ctx["dir"], "reference.json")
    with open(ref_file, "w") as f:
        f.write(cli_lint(ctx["superc"], ctx["tree"], ctx["units"], False, 1)[0])
    spans_file = os.path.join(WORK, f"spans-{ctx['workload']}-{ctx['seed']}.ndjson")
    args = [ctx["tool"], "trace", "--workload", ctx["workload"], "--tree", ctx["tree"], "--seed", str(ctx["seed"]),
            "--seconds", str(seconds), "--superc", ctx["superc"], "--jobs", str(JOBS), "--units", units_file,
            "--reference", ref_file, "--spans", spans_file]
    out = subprocess.run(args, capture_output=True, text=True, timeout=120)
    try:
        res = json.loads(out.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        die("traced run failed: " + out.stderr.strip()[:300])
    tally.attempted += res["attempted"]
    tally.failed += res["failed"]
    tally.notes += res["notes"][: max(0, 20 - len(tally.notes))]
    m = res["metrics"]
    # What the spans do not explain of the untraced operation.
    if ctx["workload"] == "tree_lint":
        traced_ms = m["bin.noop_ms"] + m["csyntax.artifacts_ms"] + m["corpus.cold_batch_s"] * 1e3 + m["cli.render_lint_ms"]
    elif ctx["workload"] == "oneshot":
        n = len(traced)
        per_unit = sum(res["spans"].get(s, {}).get("total_s", 0.0) for s in ("tool.new", "cpp.preprocess", "fmlr.forest", "fmlr.parse"))
        traced_ms = m["bin.noop_ms"] + m["csyntax.artifacts_ms"] + per_unit * 1e3 / (n * m["pipeline.passes"])
    else:
        traced_ms = m["service.edit_ms"] + m["daemon.handle_line_ms"] + m["daemon.handle_line_grid_ms"]
    m["trace.gap_ms"] = e2e["op_ms_p50"] - traced_ms
    return m, res


# ---------------------------------------------------------------- main


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    superc, tool = build()

    run_dir = os.path.join(WORK, f"{a.workload}-{a.seed}")
    shutil.rmtree(run_dir, ignore_errors=True)
    tree = os.path.join(run_dir, "tree")
    os.makedirs(run_dir)
    # Untimed: corpus generation and the disk write.
    gen = subprocess.run([tool, "gen", "--seed", str(a.seed), "--units", str(UNITS), "--out", tree],
                         capture_output=True, text=True, timeout=OP_TIMEOUT_S)
    if gen.returncode != 0:
        die("corpus generation failed: " + gen.stderr[:300])
    info = json.loads(gen.stdout.strip().splitlines()[-1])
    units_file = os.path.join(run_dir, "units.txt")
    with open(units_file, "w") as f:
        f.write("\n".join(info["units"]) + "\n")
    ctx = {
        "workload": a.workload, "seed": a.seed, "superc": superc, "tool": tool, "dir": run_dir, "tree": tree,
        "units": info["units"], "unit_tokens": info["unit_tokens"], "tokens": sum(info["unit_tokens"]),
        "rng": random.Random(f"{a.workload}/{a.seed}"),
    }
    tally = Tally()
    gcc = gcc_reference(tool, tree, units_file, a.seed, tally)

    e2e_seconds = a.seconds if not a.trace else max(3.0, a.seconds / 4)
    e2e, named = WORKLOADS[a.workload](ctx, e2e_seconds, tally)
    layers, traced = ({}, None)
    if a.trace:
        layers, traced = run_trace(ctx, max(5.0, a.seconds - e2e_seconds), tally, e2e)

    wanted = spec["per_layer"] if a.trace else spec["end_to_end"]
    samples = e2e.pop("samples_ms")
    values = layers if a.trace else e2e
    metrics = {}
    for m in wanted:
        if m["name"] not in values:
            die(f"metric {m['name']} was not measured")
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    correct = tally.failed == 0

    print(f"workload {a.workload}: seed {a.seed}, {len(ctx['units'])} units, {info['bytes']} bytes, "
          f"{ctx['tokens']} tokens, {info['files']} files; jobs {JOBS}; cores {CORES}; client: {CLIENT}")
    print(f"  why: {WHY[a.workload]}")
    for name, (value, unit, n) in named.items():
        print(f"  {name} = {value:.6g} {unit} (n={n})")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    share = tally.failed / max(tally.attempted, 1)
    print(f"  failed_op_share = {share:.6g} ratio ({tally.failed} failed of {tally.attempted} attempted; "
          f"gcc reference {gcc['attempted'] - gcc['failed']}/{gcc['attempted']} pairs equal)")
    for note in tally.notes:
        print(f"  FAILED: {note}")

    report = {
        "workload": a.workload, "why": WHY[a.workload], "seed": a.seed, "trace": a.trace,
        "units": len(ctx["units"]), "bytes": info["bytes"], "files": info["files"], "tokens": ctx["tokens"],
        "jobs": JOBS, "cores": CORES, "client": CLIENT, "seconds": a.seconds,
        "attempted": tally.attempted, "failed": tally.failed, "failed_op_share": share, "notes": tally.notes,
        "end_to_end": e2e, "op_samples_ms": samples, "named": {k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in named.items()},
        "per_layer": layers, "spans": traced["spans"] if traced else {},
        "tracing_gap_ms": layers.get("trace.gap_ms"),
        "gcc_reference": gcc,
    }
    with open(os.path.join(WORK, f"report-{a.workload}-{a.seed}-trace{a.trace}.json"), "w") as f:
        json.dump(report, f, indent=1)
    shutil.rmtree(run_dir, ignore_errors=True)

    print(json.dumps({"correct": correct, "attempted": tally.attempted, "failed": tally.failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
