#!/usr/bin/env python3
"""The CC-Fuzz benchmark: seeded campaign workloads run through the ccfuzz CLI.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

`--workload all` runs every workload in turn, one result line each, and exits
1 if any of them found a correctness violation.

Workloads (see perfbench/NOTES.md for why each was chosen):

    campaign_sim    `ccfuzz run --workers 0`, four CCAs x two modes, 5 s
                    scenarios, 2 threads: the simulation-bound rung.
    campaign_ckpt   `ccfuzz run --workers 2 --checkpoint-every 1`, then the
                    identical command again on the finished tree (the resume).
    triage_replay   `ccfuzz triage` then `ccfuzz replay` on campaign_sim
                    reports made once in set-up.

The benchmark builds the library, the CLI and the traced driver from source
into $CARGO_TARGET_DIR (default .bench_build), then repeats the workload's
timed commands for --seconds seconds, one closed-loop client, and reports the
median of every end-to-end metric. Every repetition checks its outputs; any
correctness violation makes the command exit 1. With --trace 1 it alternates
untraced and traced repetitions (perfbench_trace, the traced twin of the CLI)
and reports the per-layer metrics instead.

The last line of standard output is one JSON object:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
"""

import argparse
import bisect
import ctypes
import glob
import hashlib
import json
import math
import os
import re
import select
import shutil
import signal
import statistics
import struct
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                        os.path.join(ROOT, ".bench_build"))
CMAKE_DIR = os.path.join(BUILD, "cmake")
WORK = os.path.join(BUILD, "work")
CCFUZZ = os.path.join(CMAKE_DIR, "tools", "ccfuzz")
TRACED = os.path.join(CMAKE_DIR, "perfbench_trace")

MB = float(1 << 20)
# cpu_s / wall_s above this means a timed command used more than its thread
# budget of 2 busy threads; such a run fails.
MAX_CPU_PER_WALL = 2.2

SIM_MATRIX = ["--ccas", "bbr,bbr-probertt-on-rto,reno,cubic",
              "--modes", "traffic,link", "--score", "low-send-rate",
              "--duration-ms", "5000", "--population", "32",
              "--generations", "8"]
CKPT_MATRIX = ["--ccas", "reno,cubic,bbr", "--modes", "traffic,link",
               "--population", "128", "--generations", "12",
               "--duration-ms", "150"]
CKPT_RUN = ["--workers", "2", "--checkpoint-every", "1"]
SIM_RUN = ["--workers", "0", "--checkpoint-every", "0"]
# triage_replay triages one campaign_sim report per GA seed in this list of
# offsets from --seed; see NOTES.md for why it takes several.
TRIAGE_SEED_OFFSETS = [0, 1000, 2000, 3000]
TRIAGE_WINNERS = ["--winners", "1"]

WORKLOADS = ("campaign_sim", "campaign_ckpt", "triage_replay")
END_TO_END = [("setup_s", "s"), ("wall_s", "s"), ("cpu_s", "s"),
              ("peak_rss_mb", "MB"), ("disk_mb", "MB")]
# Per-layer metrics registered in BENCHMARK.json: the ones every workload
# measures. The rest are printed by the traced run only (see NOTES.md).
PER_LAYER = [
    ("scenario.sims", "count"), ("scenario.packets", "count"),
    ("scenario.sim_s", "s"), ("scenario.ns_per_packet", "ns"),
    ("scenario.sim_ms_p50", "ms"), ("scenario.sim_ms_p99", "ms"),
    ("cca.bbr.ns_per_packet", "ns"), ("cca.reno.ns_per_packet", "ns"),
    ("cca.cubic.ns_per_packet", "ns"),
    ("fuzz.evals", "count"), ("fuzz.pool_idle_share", "ratio"),
    ("campaign.cache_hit_ratio", "ratio"),
    ("campaign.checkpoint_writes", "count"),
    ("campaign.checkpoint_mb", "MB"),
    ("campaign.restored_shards", "count"), ("dist.restarts", "count"),
    ("triage.sims", "count"), ("triage.minimized_events", "count"),
    ("triage.bundles", "count"), ("triage.flaky", "count"),
]
# Printed by the traced run next to the registered ones; "n/a" where the
# workload does not exercise the layer.
PER_LAYER_PRINTED = [
    ("cca.bbr-probertt-on-rto.ns_per_packet", "ns"),
    ("fuzz.batch_s", "s"), ("fuzz.breed_s", "s"),
    ("campaign.checkpoint_s", "s"), ("campaign.restore_s", "s"),
    ("campaign.report_s", "s"), ("campaign.feed_s", "s"),
    ("dist.worker_s_max", "s"), ("dist.shard_cpu_skew", "ratio"),
    ("dist.merge_s", "s"), ("triage.sim_s", "s"), ("triage.other_s", "s"),
    ("triage.replay_s", "s"),
]


class Violation(Exception):
    """A correctness violation: the run fails and exits 1."""


def log(msg):
    print(msg, flush=True)


# --- Build and host -------------------------------------------------------------


def build():
    for need in ("CMakeLists.txt", "src", os.path.join("tools", "ccfuzz_main.cpp")):
        if not os.path.exists(os.path.join(ROOT, need)):
            sys.exit("perfbench: %s is missing: run from the root of a "
                     "ccfuzz checkout" % need)
    if shutil.which("cmake") is None:
        sys.exit("perfbench: cmake not found")
    os.makedirs(os.path.join(BUILD, "tmp"), exist_ok=True)
    logfile = os.path.join(BUILD, "build.log")
    steps = []
    if not os.path.exists(os.path.join(CMAKE_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", CMAKE_DIR])
    steps.append(["cmake", "--build", CMAKE_DIR,
                  "-j%d" % (os.cpu_count() or 1)])
    with open(logfile, "w") as out:
        for cmd in steps:
            if subprocess.call(cmd, stdout=out, stderr=subprocess.STDOUT,
                               env=child_env()) != 0:
                with open(logfile) as f:
                    sys.stderr.write(f.read()[-4000:])
                sys.exit("perfbench: build failed (%s)" % " ".join(cmd))


def host_fingerprint():
    cache = {}
    with open(os.path.join(CMAKE_DIR, "CMakeCache.txt")) as f:
        for line in f:
            m = re.match(r"^([A-Za-z_]+):[A-Z]+=(.*)$", line.strip())
            if m:
                cache[m.group(1)] = m.group(2)
    build_type = cache.get("CMAKE_BUILD_TYPE", "")
    flags = " ".join(v for k, v in cache.items() if k.startswith("CMAKE_CXX_FLAGS"))
    if build_type.lower() in ("", "debug"):
        sys.exit("perfbench: refusing a '%s' build: configure %s as "
                 "RelWithDebInfo or Release" % (build_type, CMAKE_DIR))
    if cache.get("ccfuzz_sanitize", "OFF").upper() in ("ON", "TRUE", "1") or \
            "-fsanitize" in flags:
        sys.exit("perfbench: refusing a sanitizer build in %s" % CMAKE_DIR)
    cpu = "unknown"
    with open("/proc/cpuinfo") as f:
        for line in f:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    version = subprocess.run([compiler, "-dumpfullversion"], capture_output=True,
                             text=True).stdout.strip()
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "compiler": "%s %s" % (os.path.basename(compiler), version),
            "build_type": build_type}


def child_env(threads=None):
    env = dict(os.environ)
    env["TMPDIR"] = os.path.join(BUILD, "tmp")
    env.pop("CCFUZZ_FAULT_PLAN", None)
    if threads is not None:
        env["CCFUZZ_THREADS"] = str(threads)
    return env


# --- Launching and timing -------------------------------------------------------


class Inotify:
    """Just enough of inotify(7) to timestamp one file event in a directory."""

    IN_MODIFY = 0x2
    IN_OPEN = 0x20

    def __init__(self, directory, mask):
        self.libc = ctypes.CDLL(None, use_errno=True)
        self.fd = self.libc.inotify_init1(os.O_NONBLOCK | os.O_CLOEXEC)
        if self.fd < 0:
            raise OSError(ctypes.get_errno(), "inotify_init1")
        if self.libc.inotify_add_watch(self.fd, directory.encode(), mask) < 0:
            os.close(self.fd)
            raise OSError(ctypes.get_errno(), "inotify_add_watch " + directory)

    def names(self):
        out = []
        try:
            data = os.read(self.fd, 65536)
        except BlockingIOError:
            return out
        i = 0
        while i + 16 <= len(data):
            _, _, _, length = struct.unpack_from("iIII", data, i)
            out.append(data[i + 16:i + 16 + length].rstrip(b"\0").decode())
            i += 16 + length
        return out

    def close(self):
        os.close(self.fd)


class CampaignBegin:
    """Setup point of a campaign: `campaign_begin` reaching progress.jsonl."""

    def __init__(self, out_dir):
        self.dir = out_dir
        self.path = os.path.join(out_dir, "progress.jsonl")
        self.offset = 0
        self.notify = Inotify(out_dir, Inotify.IN_MODIFY)

    def seen(self, names):
        if "progress.jsonl" not in names:
            return False
        with open(self.path, "rb") as f:
            f.seek(self.offset)
            chunk = f.read()
        self.offset += chunk.rfind(b"\n") + 1
        return b'"event":"campaign_begin"' in chunk


class FirstTraceOpen:
    """Setup point of triage: the first candidate's trace being opened."""

    def __init__(self, cell_dir):
        self.notify = Inotify(cell_dir, Inotify.IN_OPEN)

    def seen(self, names):
        return "winner_0.trace" in names


def launch(cmd, env, logfile, watch=None):
    """Runs `cmd` to completion; returns rc, wall, cpu, max RSS and the time
    from launch to `watch`'s event. cpu and max RSS cover the whole process
    tree: wait4 reports the child plus its reaped descendants."""
    setup = None
    with open(logfile, "ab") as out:
        t0 = time.perf_counter()
        # A session of its own, so an interrupted run can stop the whole
        # tree (a supervisor's workers included).
        p = subprocess.Popen(cmd, env=env, stdout=out, stderr=subprocess.STDOUT,
                             start_new_session=True)
        try:
            while True:
                if watch is not None and setup is None:
                    ready, _, _ = select.select([watch.notify.fd], [], [], 0.01)
                    now = time.perf_counter()
                    if ready and watch.seen(watch.notify.names()):
                        setup = now - t0
                    pid, status, ru = os.wait4(p.pid, os.WNOHANG)
                    if pid == 0:
                        continue
                else:
                    pid, status, ru = os.wait4(p.pid, 0)
                wall = time.perf_counter() - t0
                break
        except BaseException:
            stop_tree(p)
            raise
        finally:
            if watch is not None:
                watch.notify.close()
    p.returncode = os.waitstatus_to_exitcode(status)
    return {"rc": p.returncode, "wall": wall,
            "cpu": ru.ru_utime + ru.ru_stime, "rss_mb": ru.ru_maxrss / 1024.0,
            "setup": setup, "cmd": cmd, "log": logfile}


def stop_tree(p):
    """Kills a child's whole session and reaps the child."""
    try:
        os.killpg(p.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    p.wait()


def check_rc(r):
    if r["rc"] != 0:
        with open(r["log"], errors="replace") as f:
            tail = f.read()[-2000:]
        raise Violation("%s exited %d:\n%s" % (" ".join(r["cmd"]), r["rc"], tail))


def check_budget(r):
    if r["cpu"] > MAX_CPU_PER_WALL * r["wall"]:
        raise Violation("thread budget exceeded: %s used cpu %.3f s in %.3f s "
                        "wall (limit %.1fx)" % (" ".join(r["cmd"][:3]), r["cpu"],
                                                r["wall"], MAX_CPU_PER_WALL))


def fresh_dir(path):
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def tree_bytes(path):
    total = 0
    for d, _, files in os.walk(path):
        for name in files:
            total += os.path.getsize(os.path.join(d, name))
    return total


def read_bytes(path):
    with open(path, "rb") as f:
        return f.read()


def tree_digest(path):
    h = hashlib.sha256()
    for d, dirs, files in sorted(os.walk(path)):
        dirs.sort()
        for name in sorted(files):
            p = os.path.join(d, name)
            h.update(os.path.relpath(p, path).encode() + b"\0" + read_bytes(p))
    return h.hexdigest()


def summary_counts(summary):
    cells = json.loads(summary)["cells"]
    return {"evaluations": sum(c["evaluations"] for c in cells),
            "simulations": sum(c["simulations"] for c in cells),
            "cache_hits": sum(c["cache_hits"] for c in cells)}


def doctor(out_dir, flags, logfile):
    r = launch([CCFUZZ, "doctor", "--output", out_dir] + flags, child_env(),
               logfile)
    with open(logfile, errors="replace") as f:
        healthy = "doctor: healthy" in f.read()
    if r["rc"] != 0 or not healthy:
        raise Violation("ccfuzz doctor reports %s unhealthy (see %s)" %
                        (out_dir, logfile))


def feed_events(out_dir):
    with open(os.path.join(out_dir, "progress.jsonl"), errors="replace") as f:
        return [json.loads(line) for line in f if line.strip()]


# --- Workloads ------------------------------------------------------------------


class Workload:
    """One workload: set-up once per invocation, then timed repetitions.
    Structural checks (doctor, the resume) run on the first repetition only,
    so the run's time goes to timed samples."""

    def __init__(self, seed):
        self.seed = seed
        self.reps = 0       # repetitions finished
        self.samples = {}   # end-to-end metric -> list of per-rep values
        self.counts = None  # exact work counts; must repeat on every rep
        self.attempted = 0
        self.failed = 0
        self.failures = {}  # degraded-operation kind -> count

    def add(self, name, value):
        self.samples.setdefault(name, []).append(value)

    def note_counts(self, counts):
        if self.counts is None:
            self.counts = counts
        elif counts != self.counts:
            raise Violation("work counts changed between repetitions at one "
                            "seed (determinism bug): %s vs %s" %
                            (self.counts, counts))

    def degrade(self, kind, n):
        self.failed += n
        self.failures[kind] = self.failures.get(kind, 0) + n

    def setup(self):
        pass

    def rates(self, med):
        return "%.0f evaluations per wall-s, %.0f per cpu-s" % (
            self.counts["evaluations"] / med["wall_s"],
            self.counts["evaluations"] / med["cpu_s"])


class CampaignSim(Workload):
    name = "campaign_sim"
    threads = 2

    def flags(self):
        return SIM_RUN + SIM_MATRIX + ["--seed", str(self.seed)]

    def rep(self, tag):
        out = fresh_dir(os.path.join(WORK, "sim_" + tag))
        logfile = out + ".log"
        r = launch([CCFUZZ, "run", "--output", out] + self.flags(),
                   child_env(self.threads), logfile, CampaignBegin(out))
        check_rc(r)
        check_budget(r)
        if r["setup"] is None:
            raise Violation("campaign_begin never reached progress.jsonl")
        summary = read_bytes(os.path.join(out, "summary.json"))
        disk = tree_bytes(out)
        if self.reps == 0:
            doctor(out, [], out + ".doctor.log")
        counts = summary_counts(summary)
        self.note_counts(dict(counts, summary_sha=hashlib.sha256(summary).hexdigest()[:16]))
        self.attempted += len(json.loads(summary)["cells"])
        for k, v in (("setup_s", r["setup"]), ("wall_s", r["wall"]),
                     ("cpu_s", r["cpu"]), ("peak_rss_mb", r["rss_mb"]),
                     ("disk_mb", disk / MB)):
            self.add(k, v)
        return {"out": out, "wall": r["wall"], "summary": summary}

    def traced(self, base, tag):
        out = fresh_dir(os.path.join(WORK, "tsim_" + tag))
        spans = out + ".spans"
        r = launch([TRACED, "run", "--output", out, "--spans", spans,
                    "--run-id", tag] + self.flags(),
                   child_env(self.threads), out + ".log")
        check_rc(r)
        if read_bytes(os.path.join(out, "summary.json")) != base["summary"]:
            raise Violation("traced summary.json differs from the untraced run")
        stages = [("run", read_spans(spans), r["wall"])]
        m = layer_metrics(stages)
        m["fuzz.evals"] = summary_counts(base["summary"])["evaluations"]
        m["campaign.cache_hit_ratio"] = cache_ratio(base["summary"])
        return m, r["wall"], stages


class CampaignCkpt(Workload):
    name = "campaign_ckpt"
    threads = 1

    def flags(self):
        return CKPT_RUN + CKPT_MATRIX + ["--seed", str(self.seed)]

    def setup(self):
        # The single-process reference the sharded report must equal.
        out = fresh_dir(os.path.join(WORK, "ckpt_ref"))
        r = launch([CCFUZZ, "run", "--output", out, "--workers", "0",
                    "--checkpoint-every", "0"] + CKPT_MATRIX +
                   ["--seed", str(self.seed)], child_env(2), out + ".log")
        check_rc(r)
        self.reference = read_bytes(os.path.join(out, "summary.json"))

    def rep(self, tag):
        out = fresh_dir(os.path.join(WORK, "ckpt_" + tag))
        env = child_env(self.threads)
        cmd = [CCFUZZ, "run", "--output", out] + self.flags()
        r = launch(cmd, env, out + ".log", CampaignBegin(out))
        check_rc(r)
        check_budget(r)
        if r["setup"] is None:
            raise Violation("campaign_begin never reached progress.jsonl")
        summary = read_bytes(os.path.join(out, "summary.json"))
        if summary != self.reference:
            raise Violation("merged summary.json differs from the --workers 0 "
                            "reference")
        disk = tree_bytes(out)
        heads = ckpt_heads(out)
        restarts = sum(1 for e in feed_events(out)
                       if e.get("event") == "worker_restart")
        self.attempted += len(heads)  # shard runs
        self.degrade("worker_restarts", restarts)
        if self.reps == 0:
            self.check_resume(cmd, env, out, summary, len(heads))
        counts = summary_counts(summary)
        counts["checkpoint_bytes"] = sum(heads.values())
        self.note_counts(counts)
        for k, v in (("setup_s", r["setup"]), ("wall_s", r["wall"]),
                     ("cpu_s", r["cpu"]), ("peak_rss_mb", r["rss_mb"]),
                     ("disk_mb", disk / MB)):
            self.add(k, v)
        return {"out": out, "wall": r["wall"], "summary": summary,
                "heads": heads, "restarts": restarts}

    def check_resume(self, cmd, env, out, summary, shards):
        """Doctor, then the identical command on the finished tree: it must
        leave summary.json unchanged; a shard restore that degrades to a
        fresh start is a failed operation."""
        doctor(out, [], out + ".doctor.log")
        before = len(feed_events(out))
        resume_log = out + ".resume.log"
        r = launch(cmd, env, resume_log)
        check_rc(r)
        check_budget(r)
        if read_bytes(os.path.join(out, "summary.json")) != summary:
            raise Violation("the resume changed summary.json")
        degraded = {e.get("shard") for e in feed_events(out)[before:]
                    if e.get("event") == "generation"}
        with open(resume_log, errors="replace") as f:
            for m in re.finditer(r"shards/(\d+)/checkpoint/\S+ unusable .*"
                                 r"starting the campaign fresh", f.read()):
                degraded.add(int(m.group(1)))
        self.attempted += shards  # shard restores
        self.degrade("degraded_restores", len(degraded))
        self.add("resume_s", r["wall"])

    def traced(self, base, tag):
        out = fresh_dir(os.path.join(WORK, "tckpt_" + tag))
        env = child_env(self.threads)
        stages = []
        for stage in ("run", "resume"):
            spans = "%s.%s.spans" % (out, stage)
            r = launch([TRACED, "run", "--output", out, "--spans", spans,
                        "--run-id", tag] + self.flags(), env,
                       "%s.%s.log" % (out, stage))
            check_rc(r)
            if read_bytes(os.path.join(out, "summary.json")) != base["summary"]:
                raise Violation("traced %s: summary.json differs from the "
                                "untraced run" % stage)
            # The parent's records, then each forked shard worker's.
            records = [rec for path in sorted(glob.glob(spans + "*"))
                       for rec in read_spans(path)]
            stages.append((stage, records, r["wall"]))
        m = layer_metrics(stages)
        m["fuzz.evals"] = summary_counts(base["summary"])["evaluations"]
        m["campaign.cache_hit_ratio"] = cache_ratio(base["summary"])
        m["campaign.checkpoint_mb"] = sum(base["heads"].values()) / MB
        m["dist.restarts"] = base["restarts"]
        return m, stages[0][2], stages[:1]


class TriageReplay(Workload):
    name = "triage_replay"
    threads = 1  # triage and replay are serial; they bypass the pool

    def inputs(self):
        return [self.seed + off for off in TRIAGE_SEED_OFFSETS]

    def rates(self, med):
        return "%.0f confirmed findings per cpu-hour" % (
            self.counts["bundles"] / med["cpu_s"] * 3600)

    def flags(self, ga_seed):
        return SIM_MATRIX + TRIAGE_WINNERS + ["--seed", str(ga_seed)]

    def setup(self):
        # Untimed: the campaign_sim reports to triage, one per GA seed, two
        # campaigns of 2 threads at a time.
        self.reports = []
        procs = []
        try:
            for ga_seed in self.inputs():
                out = fresh_dir(os.path.join(WORK, "report_%d" % ga_seed))
                with open(out + ".log", "wb") as log_out:
                    procs.append((subprocess.Popen(
                        [CCFUZZ, "run", "--output", out] + SIM_RUN +
                        self.flags(ga_seed), env=child_env(2), stdout=log_out,
                        stderr=subprocess.STDOUT, start_new_session=True), out))
                self.reports.append((ga_seed, out))
                if len(procs) == 2 or ga_seed == self.inputs()[-1]:
                    for p, _ in procs:
                        p.wait()
                    for p, out in procs:
                        if p.returncode != 0:
                            raise Violation("set-up campaign %s exited %d" %
                                            (out, p.returncode))
                    procs = []
        except BaseException:
            for p, _ in procs:
                stop_tree(p)
            raise

    def rep(self, tag):
        wall = cpu = rss = disk = 0.0
        counts = {"candidates": 0, "unloadable": 0, "bundles": 0,
                  "minimized_events": 0}
        digests = []
        for ga_seed, report in self.reports:
            out = os.path.join(WORK, "tri_%d_%s" % (ga_seed, tag))
            shutil.rmtree(out, ignore_errors=True)
            shutil.copytree(report, out)
            flags = self.flags(ga_seed)
            first_cell = os.path.join(out, "bbr.traffic.low-send-rate")
            t = launch([CCFUZZ, "triage", "--output", out] + flags,
                       child_env(self.threads), out + ".triage.log",
                       FirstTraceOpen(first_cell))
            stats = check_triage(t)
            check_budget(t)
            if t["setup"] is None:
                raise Violation("triage never opened %s/winner_0.trace" % first_cell)
            rp = launch([CCFUZZ, "replay", "--output", out] + flags,
                        child_env(self.threads), out + ".replay.log")
            check_rc(rp)
            check_budget(rp)
            replay = parse_replay(out + ".replay.log")
            if replay["drifted"] or replay["broken"] or \
                    replay["bundles"] != stats["bundles"]:
                raise Violation("replay of %s: %s" % (out, replay))
            if self.reps == 0:
                doctor(out, flags, out + ".doctor.log")
            self.add("setup_s", t["setup"])
            wall += t["wall"] + rp["wall"]
            cpu += t["cpu"] + rp["cpu"]
            rss = max(rss, t["rss_mb"], rp["rss_mb"])
            disk += tree_bytes(out)
            counts["candidates"] += stats["candidates"]
            counts["unloadable"] += stats["unloadable"]
            counts["bundles"] += stats["bundles"]
            counts["minimized_events"] += minimized_events(out)
            digests.append(tree_digest(os.path.join(out, "findings")))
            self.attempted += stats["candidates"] + stats["unloadable"]
            self.degrade("flaky_candidates", stats["flaky"])
            self.degrade("unreproduced_candidates", stats["unreproduced"])
            self.degrade("unloadable_candidates", stats["unloadable"])
        counts["findings_sha"] = hashlib.sha256("".join(digests).encode()).hexdigest()[:16]
        self.note_counts(counts)
        for k, v in (("wall_s", wall), ("cpu_s", cpu), ("peak_rss_mb", rss),
                     ("disk_mb", disk / MB)):
            self.add(k, v)
        return {"wall": wall, "digests": digests}

    def traced(self, base, tag):
        stages = []
        wall = 0.0
        minimized = 0
        for (ga_seed, report), digest in zip(self.reports, base["digests"]):
            out = os.path.join(WORK, "ttri_%d_%s" % (ga_seed, tag))
            shutil.rmtree(out, ignore_errors=True)
            shutil.copytree(report, out)
            for stage in ("triage", "replay"):
                spans = "%s.%s.spans" % (out, stage)
                r = launch([TRACED, stage, "--output", out, "--spans", spans,
                            "--run-id", tag] + self.flags(ga_seed),
                           child_env(self.threads),
                           "%s.%s.log" % (out, stage))
                if stage == "triage":
                    check_triage(r)
                else:
                    check_rc(r)
                stages.append((stage, read_spans(spans), r["wall"]))
                wall += r["wall"]
            if tree_digest(os.path.join(out, "findings")) != digest:
                raise Violation("traced triage bundles differ from the untraced run")
            minimized += minimized_events(out)
        m = layer_metrics(stages)
        m["triage.minimized_events"] = minimized
        return m, wall, stages


def ckpt_heads(out):
    heads = {}
    shards = os.path.join(out, "shards")
    for k in sorted(os.listdir(shards)):
        head = os.path.join(shards, k, "checkpoint", "campaign.ckpt")
        if os.path.exists(head):
            heads[k] = os.path.getsize(head)
    return heads


def cache_ratio(summary):
    c = summary_counts(summary)
    return c["cache_hits"] / c["evaluations"]


# The known boundary-stamp defect (a traffic stamp equal to the duration,
# from dist_packets' inclusive upper bound) also reaches winner traces, which
# the trace loader then refuses. Triage counts each such trace as an error and
# exits 1; the benchmark counts it as a failed operation instead, the way it
# counts the restore degrade the same defect causes, but only after reading
# the trace itself and finding that defect its sole fault. Any other error
# stays a correctness violation.
UNLOADABLE = re.compile(r"^triage: cannot load (\S+): "
                        r"trace: stamps not sorted within \[0, duration\)$")


def boundary_defect_only(path):
    """True when the trace's stamps are sorted and non-negative and its only
    fault is a last stamp equal to the duration."""
    duration = None
    stamps = []
    with open(path) as f:
        for line in f:
            if line.startswith("# duration_ns "):
                duration = int(line.split()[2])
            elif line.strip() and not line.startswith("#"):
                stamps.append(int(line))
    return (duration is not None and bool(stamps) and
            stamps == sorted(stamps) and stamps[0] >= 0 and
            stamps[-1] == duration)


def check_triage(r):
    """Parses a triage run's log; refuses any error but the known defect."""
    with open(r["log"], errors="replace") as f:
        text = f.read()
    m = re.search(r"triage: (\d+) candidate\(s\): (\d+) confirmed, (\d+) flaky, "
                  r"(\d+) unreproduced, (\d+) simulator bug\(s\); (\d+) bundle",
                  text)
    errors = re.findall(r"^triage: cannot .*$", text, re.M)
    unloadable = [e for e in errors if UNLOADABLE.match(e) and
                  boundary_defect_only(UNLOADABLE.match(e).group(1))]
    if m is None or len(errors) != len(unloadable) or \
            r["rc"] != (1 if unloadable else 0):
        check_rc(dict(r, rc=r["rc"] or 1))
    keys = ("candidates", "confirmed", "flaky", "unreproduced", "bugs", "bundles")
    stats = dict(zip(keys, map(int, m.groups())))
    stats["unloadable"] = len(unloadable)
    return stats


def parse_replay(logfile):
    with open(logfile, errors="replace") as f:
        text = f.read()
    m = re.search(r"replay: (\d+) bundle\(s\): (\d+) ok, (\d+) drifted, "
                  r"(\d+) broken", text)
    if m is None:
        raise Violation("no replay summary in %s" % logfile)
    return dict(zip(("bundles", "ok", "drifted", "broken"), map(int, m.groups())))


def minimized_events(out):
    total = 0
    findings = os.path.join(out, "findings")
    for bundle in os.listdir(findings):
        with open(os.path.join(findings, bundle, "manifest.json")) as f:
            total += json.load(f)["minimized_events"]
    return total


# --- Traced run: per-layer metrics ------------------------------------------------


def read_spans(path):
    recs = []
    with open(path) as f:
        for line in f:
            p = line.rstrip("\n").split("\t")
            if p[0] == "span":
                attrs = dict(kv.split("=", 1) for kv in p[8].split(";") if kv)
                recs.append({"kind": "span", "pid": int(p[2]), "id": int(p[3]),
                             "parent": int(p[4]), "name": p[5],
                             "start": int(p[6]), "end": int(p[7]),
                             "attrs": attrs})
            elif p[0] == "sim":
                recs.append({"kind": "sim", "pid": int(p[2]), "cca": p[4],
                             "start": int(p[5]), "end": int(p[6]),
                             "packets": int(p[7])})
            elif p[0] == "mark":
                recs.append({"kind": "mark", "pid": int(p[2]), "name": p[3],
                             "t": int(p[4])})
    return recs


def percentile(values, q):
    """Nearest-rank percentile of a sorted list."""
    if not values:
        return 0.0
    return values[max(0, math.ceil(q * len(values)) - 1)]


def campaign_loop(sims, marks):
    """Splits one campaign process's lockstep iterations into batch, breed
    and gap (checkpoint) intervals. A batch is the simulations between two
    bursts of generation / cell_end marks."""
    times = sorted(m["t"] for m in marks)
    batches = {}
    for s in sims:
        key = bisect.bisect_left(times, s["start"])
        b = batches.setdefault(key, [s["start"], s["end"], 0])
        b[0] = min(b[0], s["start"])
        b[1] = max(b[1], s["end"])
        b[2] += s["end"] - s["start"]
    keys = sorted(batches)
    out = {"batch": 0, "busy": 0, "breed": 0, "gap": 0}
    for i, key in enumerate(keys):
        start, end, busy = batches[key]
        out["batch"] += end - start
        out["busy"] += busy
        nxt = keys[i + 1] if i + 1 < len(keys) else len(times)
        if nxt > key:  # the burst of marks that closes this iteration
            out["breed"] += times[nxt - 1] - end
            if i + 1 < len(keys):
                out["gap"] += batches[keys[i + 1]][0] - times[nxt - 1]
    return out


def layer_metrics(stages):
    """Per-layer metrics from the records of every process of one traced rep.
    `stages` is a list of (stage, records, process wall) in run order."""
    m = {}
    sims = [(st, r) for st, recs, _ in stages for r in recs if r["kind"] == "sim"]
    timed = [r for _, r in sims if r["start"] >= 0 and r["end"] >= 0]
    durs = sorted((r["end"] - r["start"]) for r in timed)
    packets = sum(r["packets"] for r in timed)
    sim_ns = sum(durs)
    m["scenario.sims"] = len(sims)
    m["scenario.packets"] = packets
    m["scenario.sim_s"] = sim_ns / 1e9
    m["scenario.ns_per_packet"] = sim_ns / packets if packets else 0.0
    m["scenario.sim_ms_p50"] = percentile(durs, 0.50) / 1e6
    m["scenario.sim_ms_p99"] = percentile(durs, 0.99) / 1e6
    m["scenario.sim_samples"] = len(durs)
    for cca in ("bbr", "bbr-probertt-on-rto", "reno", "cubic"):
        mine = [r for r in timed if r["cca"] == cca]
        pk = sum(r["packets"] for r in mine)
        m["cca.%s.ns_per_packet" % cca] = (
            sum(r["end"] - r["start"] for r in mine) / pk if pk else None)

    spans = [(st, r) for st, recs, _ in stages for r in recs if r["kind"] == "span"]

    def total(name, stage=None):
        return sum(r["end"] - r["start"] for st, r in spans
                   if r["name"] == name and (stage is None or st == stage)) / 1e9

    def has(name):
        return any(r["name"] == name for _, r in spans)

    # fuzz / campaign: every process that ran a campaign.
    loops = {"batch": 0, "busy": 0, "breed": 0, "gap": 0, "capacity": 0}
    writes = 0
    for st, recs, _ in stages:
        runs = [r for r in recs if r["kind"] == "span" and r["name"] == "campaign.run"]
        for run in runs:
            pid = run["pid"]
            loop = campaign_loop(
                [r for r in recs if r["kind"] == "sim" and r["pid"] == pid],
                [r for r in recs if r["kind"] == "mark" and r["pid"] == pid and
                 r["name"] in ("generation", "cell_end")])
            for k in ("batch", "busy", "breed", "gap"):
                loops[k] += loop[k]
            loops["capacity"] += int(run["attrs"]["threads"]) * loop["batch"]
            writes += int(run["attrs"]["checkpoint_writes"])
    campaign = has("campaign.run")
    m["fuzz.batch_s"] = loops["batch"] / 1e9 if campaign else None
    m["fuzz.breed_s"] = loops["breed"] / 1e9 if campaign else None
    m["fuzz.pool_idle_share"] = (1.0 - loops["busy"] / loops["capacity"]
                                 if loops["capacity"] else 0.0)
    m["campaign.checkpoint_s"] = loops["gap"] / 1e9 if campaign else None
    m["campaign.checkpoint_writes"] = writes
    m["campaign.checkpoint_mb"] = 0.0
    m["campaign.cache_hit_ratio"] = 0.0
    m["campaign.report_s"] = total("campaign.write_report") if campaign else None
    m["campaign.feed_s"] = total("campaign.feed") if campaign else None
    resumes = [r for st, r in spans if st == "resume" and r["name"] == "campaign.ctor"]
    m["campaign.restore_s"] = (sum(r["end"] - r["start"] for r in resumes) / 1e9
                               if resumes else None)
    m["campaign.restored_shards"] = sum(1 for r in resumes
                                        if r["attrs"].get("resumed") == "1")

    # dist: the first run's workers, merges of every stage.
    workers = [r for st, r in spans if st == "run" and r["name"] == "dist.worker"]
    if workers:
        cpu = [float(r["attrs"]["cpu_s"]) for r in workers]
        m["dist.worker_s_max"] = max(r["end"] - r["start"] for r in workers) / 1e9
        m["dist.shard_cpu_skew"] = max(cpu) / min(cpu) if min(cpu) > 0 else None
        m["dist.merge_s"] = total("dist.merge")
    else:
        m["dist.worker_s_max"] = m["dist.shard_cpu_skew"] = m["dist.merge_s"] = None
    m["dist.restarts"] = 0

    # triage
    tri = [r for st, r in sims if st == "triage"]
    tri_ns = sum(r["end"] - r["start"] for r in tri if r["start"] >= 0 and r["end"] >= 0)
    m["triage.sims"] = len(tri)
    reports = [r for _, r in spans if r["name"] == "triage.triage_report"]
    if reports:
        m["triage.sim_s"] = tri_ns / 1e9
        m["triage.other_s"] = total("triage.triage_report") - tri_ns / 1e9
        m["triage.replay_s"] = total("triage.replay_findings")
    else:
        m["triage.sim_s"] = m["triage.other_s"] = m["triage.replay_s"] = None
    m["triage.bundles"] = sum(int(r["attrs"]["bundles"]) for r in reports)
    m["triage.flaky"] = sum(int(r["attrs"]["flaky"]) for r in reports)
    m["triage.minimized_events"] = 0
    m["fuzz.evals"] = sum(1 for r in timed)
    return m


def top_level_coverage(stages):
    """Share of the traced processes' wall time covered by top-level spans."""
    covered = 0
    wall = 0.0
    for _, recs, proc_wall in stages:
        covered += sum(r["end"] - r["start"] for r in recs
                       if r["kind"] == "span" and r["parent"] == 0)
        wall += proc_wall
    return covered / 1e9 / wall if wall else 0.0


# --- Main -------------------------------------------------------------------------


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def fmt(v):
    if v is None:
        return "n/a"
    if isinstance(v, int):
        return str(v)
    return "%.6g" % v


def run_reps(wl, seconds, trace):
    """Repeats the workload until `seconds` have been measured."""
    start = time.perf_counter()
    layer_reps, traced_walls, untraced_walls, coverage = [], [], [], []
    rep_times = []
    while True:
        t = time.perf_counter()
        base = wl.rep("u%d" % wl.reps)
        untraced_walls.append(base["wall"])
        if trace:
            m, twall, stages = wl.traced(base, "t%d" % wl.reps)
            layer_reps.append(m)
            traced_walls.append(twall)
            coverage.append(top_level_coverage(stages))
        rep_times.append(time.perf_counter() - t)
        wl.reps += 1
        elapsed = time.perf_counter() - start
        # Stop when another repetition would end past the budget by more
        # than half of one.
        if elapsed + statistics.median(rep_times) / 2 >= seconds:
            return elapsed, layer_reps, traced_walls, untraced_walls, coverage


def print_end_to_end(wl, elapsed):
    log("workload %s seed %d: %d repetitions in %.1f s" %
        (wl.name, wl.seed, wl.reps, elapsed))
    units = dict(END_TO_END + [("resume_s", "s")])
    medians = {k: statistics.median(v) for k, v in wl.samples.items()}
    for name, values in wl.samples.items():
        q1, q3 = quartiles(values)
        log("  %-12s %10.4f %-3s median of %d (q1 %.4f, q3 %.4f)" %
            (name, medians[name], units[name], len(values), q1, q3))
    log("  counts: " + " ".join("%s=%s" % kv for kv in sorted(wl.counts.items())))
    log("  derived rates (not metrics): " + wl.rates(medians))
    share = wl.failed / wl.attempted if wl.attempted else 0.0
    log("  failed operations: %d of %d (%.1f%%) %s" %
        (wl.failed, wl.attempted, 100 * share,
         " ".join("%s=%d" % kv for kv in sorted(wl.failures.items()))))
    return {name: {"value": medians[name], "unit": unit}
            for name, unit in END_TO_END}


def print_per_layer(layer_reps, traced_walls, untraced_walls, coverage):
    """Prints every per-layer metric; returns the registered ones. Counts
    must repeat exactly across traced repetitions; times are medians."""
    if min(coverage) < 0.9:
        raise Violation("top-level spans cover only %.1f%% of the traced "
                        "wall time" % (100 * min(coverage)))
    metrics = {}
    log("  per-layer metrics (median of %d traced repetitions):" % len(layer_reps))
    for name, unit in PER_LAYER + PER_LAYER_PRINTED:
        values = [m.get(name) for m in layer_reps]
        if any(v is None for v in values):
            value = None
        elif unit == "count":
            if len(set(values)) != 1:
                raise Violation("%s differs between traced repetitions: %s" %
                                (name, values))
            value = values[0]
        else:
            value = statistics.median(values)
        extra = ""
        if name.startswith("scenario.sim_ms"):
            extra = " (%d samples per repetition)" % layer_reps[0]["scenario.sim_samples"]
        log("    %-40s %12s %s%s" % (name, fmt(value), unit, extra))
        if (name, unit) in PER_LAYER:
            metrics[name] = {"value": value, "unit": unit}
    traced = statistics.median(traced_walls)
    untraced = statistics.median(untraced_walls)
    log("  tracing overhead: %.4f s (traced wall %.4f s vs untraced %.4f s); "
        "top-level span coverage %.1f%%" %
        (traced - untraced, traced, untraced, 100 * min(coverage)))
    return metrics


def run_workload(cls, args):
    """Set-up, timed repetitions and report of one workload; returns the exit
    code (1 on a correctness violation)."""
    wl = cls(args.seed)
    fresh_dir(WORK)
    try:
        wl.setup()
        elapsed, layer_reps, traced_walls, untraced_walls, coverage = \
            run_reps(wl, args.seconds, args.trace == 1)
        metrics = print_end_to_end(wl, elapsed)
        if args.trace:
            metrics = print_per_layer(layer_reps, traced_walls, untraced_walls,
                                      coverage)
    except Violation as v:
        log("CORRECTNESS VIOLATION: %s" % v)
        print(json.dumps({"correct": False, "attempted": max(1, wl.attempted),
                          "failed": wl.failed, "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    print(json.dumps({"correct": True, "attempted": wl.attempted,
                      "failed": wl.failed, "metrics": metrics}))
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                    help="one workload, or all of them in turn")
    ap.add_argument("--seed", type=int, default=11)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # A terminated benchmark still stops the processes it started.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    build()
    host = host_fingerprint()
    log("host: nproc=%d cpu=%r compiler=%r build_type=%s" %
        (host["nproc"], host["cpu"], host["compiler"], host["build_type"]))
    classes = {"campaign_sim": CampaignSim, "campaign_ckpt": CampaignCkpt,
               "triage_replay": TriageReplay}
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    return max(run_workload(classes[name], args) for name in names)


if __name__ == "__main__":
    sys.exit(main())
