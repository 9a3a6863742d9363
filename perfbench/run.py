#!/usr/bin/env python3
"""Host-time benchmark of three composed game-days (see README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds perfbench_gameday from source (into
$CARGO_TARGET_DIR, default .bench_build), then runs whole game-days, one
process each, until S seconds have passed (at least three). Game-day j of a
run uses seed (N mod 10^7)*100 + j, so a run's figures are medians over
several seeded inputs.

--trace 0 reports the end-to-end metrics; --trace 1 reports the per-layer
metrics: work counts and spans from untraced game-days over S/2 seconds, and
per-module self time from the same seeds sampled with ITIMER_PROF over the
other S/2 seconds.

The last line of stdout is one JSON object:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
"""

import argparse
import hashlib
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

WORKLOADS = ("diurnal_churn", "flash_crowd_placed", "reconnect_storm")
MODULES = ("sim", "net", "tao", "was", "graphql", "pylon", "brass", "burst", "livequery",
           "core", "apps", "trace", "workload")
GAMEDAY_TIMEOUT_S = 60
CHECK_THREADS = 2  # diurnal_churn's untimed thread-count determinism check

END_TO_END_UNITS = {"setup_s": "s", "run_s": "s", "cpu_s": "s", "deliveries_per_s": "1/s",
                    "peak_rss_mb": "MB"}
SPANS = ("setup.graph_s", "setup.cluster_s", "setup.fleet_s", "setup.settle_s", "run.load_s",
         "run.drain_s")
COUNTS = ("sim.events", "sim.rounds", "sim.cross_lp_sends", "pylon.fanout_sends", "pylon.kv_ops",
          "core.device_receipts", "brass.decisions", "brass.deliveries", "brass.fetch_rpcs",
          "burst.pop_envelopes", "burst.pop_fetches", "burst.backbone_bytes", "burst.reconnects",
          "burst.durable_replayed", "tao.reads", "was.queries", "was.privacy_checks",
          "livequery.applied", "livequery.maintenance_reads")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if not 1 <= args.seconds <= 600:
        parser.error("--seconds must be in [1, 600]")
    return args


# ---------------------------------------------------------------- build

def build(root):
    if not (root / "src" / "CMakeLists.txt").is_file():
        fail(f"no library sources under {root / 'src'}; run from a full checkout")
    build_dir = root / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    configure = ["cmake", "-S", str(root / "perfbench"), "-B", str(build_dir),
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    if shutil.which("ninja") and not (build_dir / "Makefile").exists():
        configure += ["-G", "Ninja"]
    jobs = str(max(1, min(len(os.sched_getaffinity(0)), 8)))
    steps = [["cmake", "--build", str(build_dir), "--target", "perfbench_gameday", "-j", jobs]]
    cache_path = build_dir / "CMakeCache.txt"
    if not cache_path.exists():
        steps.insert(0, configure)
    else:
        # A build tree shared between two checkouts would build (and time)
        # whichever tree configured it.
        match = re.search(r"^CMAKE_HOME_DIRECTORY:\w+=(.*)$", cache_path.read_text(), re.M)
        home = Path(match.group(1)).resolve() if match else None
        if home != (root / "perfbench").resolve():
            fail(f"{build_dir} was configured for {home}, not this checkout; "
                 "give each checkout a CARGO_TARGET_DIR of its own")
    for cmd in steps:
        proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            fail("build failed: " + " ".join(cmd))
    cache = (build_dir / "CMakeCache.txt").read_text()
    match = re.search(r"^CMAKE_BUILD_TYPE:\w+=(.*)$", cache, re.M)
    build_type = match.group(1) if match else ""
    if build_type not in ("Release", "RelWithDebInfo"):
        fail(f"refusing to time a '{build_type}' build")
    if re.search(r"-fsanitize", cache):
        fail("refusing to time a sanitizer build")
    return build_dir / "perfbench_gameday"


def provenance(root, workload, seed):
    git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, stdout=subprocess.PIPE,
                         stderr=subprocess.DEVNULL, text=True)
    sha = git.stdout.strip() if git.returncode == 0 else "none (not a git checkout)"
    digest = hashlib.sha256()
    for path in sorted(list((root / "src").rglob("*")) + list((root / "perfbench").rglob("*")) +
                       [root / "bench" / "bench_util.h"]):
        if path.is_file() and path.suffix in (".cpp", ".h", ".txt", ".py"):
            digest.update(str(path.relative_to(root)).encode())
            digest.update(path.read_bytes())
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"git_sha": sha, "source_sha256": digest.hexdigest()[:16], "cpu_model": cpu,
            "cpus": len(os.sched_getaffinity(0)), "workload": workload, "seed": seed}


# ---------------------------------------------------------------- game-days

def run_gameday(exe, workload, seed, threads=None, profile=None):
    """One game-day in a process of its own, so that its peak RSS is its own."""
    cmd = [str(exe), "--workload", workload, "--seed", str(seed)]
    if threads is not None:
        cmd += ["--threads", str(threads)]
    if profile is not None:
        cmd += ["--profile-out", str(profile)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                              timeout=GAMEDAY_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"game-day timed out: {' '.join(cmd)}")
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        fail(f"game-day failed (exit {proc.returncode}): {' '.join(cmd)}")
    results = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]
    if len(results) != 1:
        fail(f"expected one game-day result from {' '.join(cmd)}")
    result = results[0]
    spans = result["spans"]
    result["setup_s"] = sum(v for k, v in spans.items() if k.startswith("setup."))
    result["run_s"] = sum(v for k, v in spans.items() if k.startswith("run."))
    return result


def run_gamedays(exe, workload, seed, seconds):
    """Game-days with seeds seed, seed + 1, ... until `seconds` have passed,
    at least three."""
    start = time.monotonic()
    results = []
    while len(results) < 3 or time.monotonic() - start < seconds:
        results.append(run_gameday(exe, workload, seed + len(results)))
    return results


# ---------------------------------------------------------------- profile

def module_of(path, root_prefix):
    path = os.path.normpath(path)
    if not path.startswith(root_prefix):
        return None
    match = re.match(r"src/(\w+)/", path[len(root_prefix):])
    if match and match.group(1) in MODULES:
        return match.group(1)
    return None


def attribute_profiles(exe, profiles, root):
    """Per (profile, traced game-day): {module: CPU seconds}, by the source
    file of each sample's innermost repository frame (inlined frames
    included). The kernel may deliver ITIMER_PROF at a coarser tick than
    requested, so each game-day's measured CPU time is split by sample
    share rather than multiplied out from the nominal rate."""
    stacks = []
    for path, gameday in profiles:
        if not path.is_file():
            fail(f"missing profile {path}")
        lines = path.read_text().splitlines()
        samples = []
        for line in lines[1:]:
            pcs = [int(x, 16) for x in line.split()]
            # The first PC was interrupted; the rest are return addresses,
            # whose call instruction sits one byte earlier.
            samples.append([pcs[0]] + [pc - 1 for pc in pcs[1:]] if pcs else [])
        stacks.append((gameday["cpu_s"], samples))
    unique = sorted({pc for _, samples in stacks for s in samples for pc in s})
    addr2line = shutil.which("addr2line")
    if addr2line is None:
        fail("addr2line is needed to attribute the sampled profile")
    proc = subprocess.run([addr2line, "-e", str(exe), "-i", "-a"],
                          input="\n".join(f"{pc:x}" for pc in unique), stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    root_prefix = os.path.normpath(str(root)) + os.sep
    module_at = {}
    current = None
    for line in proc.stdout.splitlines():
        if line.startswith("0x"):
            current = int(line, 16)
            module_at[current] = None
        elif current is not None and module_at[current] is None:
            module_at[current] = module_of(line.rsplit(":", 1)[0], root_prefix)
    results = []
    for cpu_s, samples in stacks:
        if not samples:
            fail("a traced game-day took no profile samples")
        seconds = dict.fromkeys(MODULES + ("other",), 0.0)
        for stack in samples:
            module = next((module_at.get(pc) for pc in stack if module_at.get(pc)), "other")
            seconds[module] += cpu_s / len(samples)
        results.append(seconds)
    return results


# ---------------------------------------------------------------- metrics

def median(values):
    return statistics.median(values) if values else 0.0


def ratio(num, den):
    return num / den if den else 0.0


def end_to_end(gamedays):
    return {
        "setup_s": median([g["setup_s"] for g in gamedays]),
        "run_s": median([g["run_s"] for g in gamedays]),
        "cpu_s": median([g["cpu_s"] for g in gamedays]),
        "deliveries_per_s": median([g["deliveries"] / g["run_s"] for g in gamedays]),
        # Each game-day runs in a process of its own.
        "peak_rss_mb": median([g["peak_rss_mb"] for g in gamedays]),
    }


def per_layer(untraced, traced, self_times):
    m = {}
    for name in COUNTS:
        m[name] = (median([g["counts"][name] for g in untraced]),
                   "B" if name.endswith("_bytes") else "count")
    c = lambda g, k: g["counts"][k]  # noqa: E731
    m["sim.ns_per_event"] = (median([g["run_s"] * 1e9 / max(1, c(g, "sim.events"))
                                     for g in untraced]), "ns")
    m["sim.events_per_round"] = (median([ratio(c(g, "sim.events"), c(g, "sim.rounds"))
                                         for g in untraced]), "count")
    m["brass.fetch_requests_per_rpc"] = (median([
        ratio(c(g, "brass.fetch_requests"), c(g, "brass.fetch_rpcs")) for g in untraced]), "count")
    m["brass.fetch_cache_hit_ratio"] = (median([
        ratio(c(g, "brass.fetch_cache_hits"), c(g, "brass.fetch_requests")) for g in untraced]),
        "ratio")
    m["burst.pop_cache_hit_ratio"] = (median([
        ratio(c(g, "burst.pop_cache_hits"), c(g, "burst.pop_cache_hits") +
              c(g, "burst.pop_cache_misses")) for g in untraced]), "ratio")
    for name in SPANS:
        m[name] = (median([g["spans"].get(name, 0.0) for g in untraced]), "s")
    for module in MODULES + ("other",):
        m[f"{module}.self_s"] = (median([s[module] for s in self_times]), "s")
    # Same seeds on both sides, so the difference is the sampler's cost.
    k = min(len(untraced), len(traced))
    m["trace.overhead_s"] = (median([g["run_s"] for g in traced[:k]]) -
                             median([g["run_s"] for g in untraced[:k]]), "s")
    return m


# ---------------------------------------------------------------- main

def main():
    # On SIGTERM, unwind: subprocess.run kills and reaps a running game-day,
    # and the profile directory is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    args = parse_args()
    root = Path(__file__).resolve().parent.parent
    exe = build(root)
    prov = provenance(root, args.workload, args.seed)

    correct = True
    problems = []

    def account(g):
        nonlocal correct
        bad = [k for k, ok in g["checks"].items() if not ok]
        if bad:
            correct = False
            problems.append(f"seed {g['seed']}: failed checks {bad}")

    # Any integer seed, negative or beyond 32 bits, maps onto the seed range
    # that perfbench_gameday accepts (below 2^30).
    seed = (args.seed % 10_000_000) * 100
    # diurnal_churn is timed at one worker thread (a second thread makes its
    # wall time follow the host's scheduling more than the program). Its layer
    # counts must not depend on the thread count for a fixed LP layout: in
    # the run that reports them (--trace 1), one untimed game-day at
    # CHECK_THREADS is compared with the same seed's timed game-day.
    reference = None
    if args.workload == "diurnal_churn" and args.trace:
        reference = run_gameday(exe, args.workload, seed, threads=CHECK_THREADS)

    traced, self_times = [], []
    if not args.trace:
        untraced = run_gamedays(exe, args.workload, seed, args.seconds)
    else:
        untraced = run_gamedays(exe, args.workload, seed, max(1, args.seconds // 2))
        scratch = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=root))
        try:
            # The same seeds again, sampled.
            for g in untraced:
                path = scratch / f"profile-{g['seed']}.txt"
                traced.append(run_gameday(exe, args.workload, g["seed"], profile=path))
            self_times = attribute_profiles(
                exe, [(scratch / f"profile-{g['seed']}.txt", g) for g in traced], root)
        finally:
            shutil.rmtree(scratch, ignore_errors=True)

    gamedays = untraced + traced
    for g in gamedays:
        account(g)
    if reference is not None:
        account(reference)
        if reference["counts"] != untraced[0]["counts"]:
            correct = False
            diff = {k: (v, untraced[0]["counts"][k]) for k, v in reference["counts"].items()
                    if untraced[0]["counts"][k] != v}
            problems.append(f"layer counts differ between {CHECK_THREADS} threads and 1: {diff}")
    attempted = sum(g["attempted"] for g in gamedays)
    failed = sum(sum(g["failures"].values()) for g in gamedays)
    if attempted < 1:
        correct = False
        problems.append("no operation attempted")

    if args.trace:
        metrics = {name: {"value": v, "unit": unit}
                   for name, (v, unit) in per_layer(untraced, traced, self_times).items()}
    else:
        metrics = {name: {"value": v, "unit": END_TO_END_UNITS[name]}
                   for name, v in end_to_end(untraced).items()}

    first = untraced[0]
    prov.update({"build_type": first["build_type"], "compiler": first["compiler"],
                 "threads": first["threads"], "lp_groups": first["lp_groups"],
                 "gameday_seeds": [g["seed"] for g in untraced]})
    print("provenance " + json.dumps(prov, sort_keys=True))
    for g in untraced:
        print(f"game-day seed {g['seed']}: setup {g['setup_s']:.3f} s  run {g['run_s']:.3f} s  "
              f"cpu {g['cpu_s']:.3f} s  receipts {g['deliveries']}  rss {g['peak_rss_mb']:.1f} MB  "
              f"attempted {g['attempted']}  failures {g['failures']}")
    for problem in problems:
        print("CHECK FAILED: " + problem)
    for name, metric in metrics.items():
        print(f"{name:32s} {metric['value']:16.6f} {metric['unit']}")
    print(f"{'attempted':32s} {attempted:16d} ops\n{'failed':32s} {failed:16d} ops")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
