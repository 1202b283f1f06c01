#!/usr/bin/env python3
"""Host-cost benchmark for the simulated SNS cluster.

Run from the repository root:

  python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: transend_replay, transend_flash_faults, hotbot_scatter (see
perfbench/README.md for what each one stresses and why).

On first use this configures and builds perfbench/ (the repository's library
sources plus the sns_perfbench driver) into .bench_build/perfbench. It then
runs episodes of the workload for the given host seconds, checks every
episode's outputs, runs one episode of a held-out seed derived from --seed
under the same checks, prints a readable report, and prints as its last line
one JSON object {"correct", "attempted", "failed", "metrics"}. With --trace 0
the metrics are the end-to-end metrics of BENCHMARK.json, with --trace 1 the
per-layer metrics of a traced run (zone profiler on). The exit code is 0 only
when every check passed.

  python3 perfbench/run.py --selftest

runs only the self-tests of the arithmetic below (they also run before every
measurement).
"""

import argparse
import json
import math
import os
import re
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("transend_replay", "transend_flash_faults", "hotbot_scatter")
# The held-out seed of a run is derived from its --seed by this mask, so a
# claim tuned on one seed is also checked on another.
HELD_OUT_MASK = 0x5EED5EED5EED5EED
# Smallest number of episodes a measurement may rest on.
MIN_EPISODES = 3
# Per-episode deadline of the driver process; the longest episode takes a few
# seconds.
EPISODE_TIMEOUT_S = 60
# Median time of the driver's calibration run (sns_perfbench.cc, CalibrationRun)
# on the reference host, a 4-vCPU Intel Xeon VM at 2.1 GHz. Host times are
# reported at this reference speed: raw CPU seconds x (reference / the run's
# median calibration time). The calibration runs between RunFor segments
# throughout the run, so the factor follows the machine's drift.
CAL_REFERENCE_S = 0.00065
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
SERIALIZED_SECTIONS = ("snapshot", "timeseries", "critical_path", "availability",
                       "traces", "chrome_trace")
CP_STAGES = ("fe_accept_queue_wait", "fe_processing", "cache_lookup", "profile_lookup",
             "origin_fetch", "worker_queue_wait", "worker_service", "san_transit",
             "retry_backoff_idle", "manager_stub_lookup")


class CheckFailed(Exception):
    """A correctness check of the benchmark failed."""


# --- Arithmetic (self-tested in perfbench/selftest.py) ------------------------

def percentile(sorted_values, p):
    """Nearest-rank p-quantile (0 < p <= 1) of an ascending list."""
    if not sorted_values:
        raise CheckFailed("percentile of an empty sample")
    rank = max(1, math.ceil(p * len(sorted_values)))
    return sorted_values[rank - 1]


def samples_beyond(n, p):
    """Samples ranked strictly above the nearest-rank p-quantile of n samples."""
    return n - max(1, math.ceil(p * n))


def latency_summary(latencies_ns):
    """Median and p99 in seconds with their sample count. The p99 is reported
    only when at least ten samples lie beyond it."""
    values = sorted(latencies_ns)
    n = len(values)
    if samples_beyond(n, 0.99) < 10:
        raise CheckFailed(f"{n} latency samples leave fewer than 10 beyond p99")
    return {"n": n, "p50_s": percentile(values, 0.50) / 1e9,
            "p99_s": percentile(values, 0.99) / 1e9,
            "beyond_p99": samples_beyond(n, 0.99)}


def goodput(good, offered):
    """Share of offered requests answered Ok within their deadline, and the
    failed share (failed, refused, timed out or late), both against offered."""
    if offered <= 0 or good < 0 or good > offered:
        raise CheckFailed(f"bad request accounting: good={good} offered={offered}")
    share = good / offered
    return share, 1.0 - share


def valid_name(name):
    return NAME_RE.fullmatch(name) is not None


def coverage(zones, wall_ns):
    """Share of a profiler window spent under root-level zones, and the
    unattributed rest in ns. Nested zones count inside their root."""
    if wall_ns <= 0:
        raise CheckFailed("empty profiler window")
    covered = sum(z["root_ns"] for z in zones)
    return covered / wall_ns, wall_ns - covered


def median(values):
    return statistics.median(values)


def speed_factor(calibration_s):
    """Factor that scales this run's host seconds to the reference speed."""
    if not calibration_s or min(calibration_s) <= 0:
        raise CheckFailed("no calibration samples")
    return CAL_REFERENCE_S / median(calibration_s)


def run_speed_factor(episodes):
    return speed_factor([c for ep in episodes for c in ep["host"]["calibration_s"]])


# --- Build and run ---------------------------------------------------------------

def build():
    """Configures (once) and builds the benchmark; returns the driver path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise SystemExit("perfbench: no library sources under src/; run from a full checkout")
    out = (ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench").resolve()
    if ROOT.resolve() not in out.parents:
        raise SystemExit(f"perfbench: build directory {out} is outside the checkout")
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(out), "-j", "4"])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            raise SystemExit("perfbench: build failed")
    return out / "sns_perfbench"


def run_driver(binary, workload, seed, seconds, trace, min_episodes):
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", repr(float(seconds)), "--min-episodes", str(min_episodes),
           "--trace", str(trace)]
    timeout = seconds + EPISODE_TIMEOUT_S * (min_episodes + 1)
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as e:
        raise CheckFailed(f"driver did not finish within {timeout:.0f} s") from e
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    try:
        episodes = [json.loads(line) for line in proc.stdout.splitlines() if line.strip()]
    except json.JSONDecodeError as e:
        raise CheckFailed(f"driver output is not JSON lines (exit {proc.returncode})") from e
    if not episodes:
        raise CheckFailed(f"driver printed no episode (exit {proc.returncode})")
    return episodes, proc.returncode


def check_episodes(episodes, returncode, label):
    """Raises CheckFailed on any failed in-program check or non-determinism."""
    for ep in episodes:
        checks = ep["checks"]
        where = f"{label} episode {ep['episode']}"
        if checks["invariant_violations"]:
            raise CheckFailed(f"{where}: quiesce invariants violated: "
                              + "; ".join(checks["invariant_violations"]))
        if checks["lost_requests"]:
            raise CheckFailed(f"{where}: {checks['lost_requests']} requests neither completed, "
                              "timed out nor failed to send after the drain")
        if checks["stage_sums_bad"]:
            raise CheckFailed(f"{where}: {checks['stage_sums_bad']} of "
                              f"{checks['stage_sums_checked']} critical paths do not sum "
                              "exactly to their latency")
        sim = ep["sim"]
        if not 0 < len(sim["latencies_ns"]) <= sim["good"]:
            raise CheckFailed(f"{where}: {len(sim['latencies_ns'])} latency samples for "
                              f"{sim['good']} requests answered Ok in time")
    if returncode != 0:
        raise CheckFailed(f"{label}: driver exited {returncode}")
    first = episodes[0]
    for ep in episodes[1:]:
        if ep["sim"] != first["sim"] or ep["stages"] != first["stages"]:
            raise CheckFailed(f"{label}: episode {ep['episode']} simulated results differ "
                              "from episode 0 of the same seed")


def simulated(ep):
    """The simulated end-to-end metrics of one episode."""
    sim = ep["sim"]
    share, failed_share = goodput(sim["good"], sim["offered"])
    lat = latency_summary(sim["latencies_ns"])
    if sim["ledger_offered"] <= 0 or sim["ledger_answered"] <= 0:
        raise CheckFailed("availability ledger is empty")
    return {
        "sim_goodput": share,
        "sim_p50_s": lat["p50_s"],
        "sim_p99_s": lat["p99_s"],
        "sim_yield": sim["ledger_answered"] / sim["ledger_offered"],
        "sim_harvest": sim["ledger_harvest_sum"] / sim["ledger_answered"],
        "_failed_share": failed_share,
        "_latency": lat,
    }


def req_per_host_s(episodes, factor):
    return median([ep["sim"]["offered"] / (ep["host"]["window_s"] * factor)
                   for ep in episodes])


def end_to_end(episodes):
    """Host metrics are medians over the episodes at reference speed; the
    simulated metrics are those of every episode."""
    factor = run_speed_factor(episodes)
    metrics = {
        "setup_s": median([ep["host"]["setup_s"] for ep in episodes]) * factor,
        "req_per_host_s": req_per_host_s(episodes, factor),
        "total_s": median([ep["host"]["total_s"] for ep in episodes]) * factor,
        "peak_rss_mb": max(ep["host"]["peak_rss_kb"] for ep in episodes) / 1024.0,
        "_speed_factor": factor,
    }
    metrics.update(simulated(episodes[0]))
    return metrics


def zone_field(ep, name, field):
    """A field of a profiler zone; 0 for a zone the episode never entered."""
    return next((z[field] for z in ep["zones"] if z["name"] == name), 0)


def zone_ms(ep, name, field="self_ns"):
    return zone_field(ep, name, field) / 1e6


def per_layer(traced, untraced):
    """Per-layer metrics: host times are medians over the traced episodes;
    counts are exact and equal in every episode."""
    def med(fn):
        return median([fn(ep) for ep in traced])

    sim = traced[0]["sim"]
    m = {}
    for zone, name in (("sim.schedule", "sim.schedule_self_ms"),
                       ("sim.cancel", "sim.cancel_self_ms"),
                       ("sim.fire", "sim.fire_self_ms"),
                       ("sim.dispatch", "sim.dispatch_self_ms"),
                       ("san.route", "san.route_self_ms"),
                       ("san.deliver", "san.deliver_self_ms"),
                       ("manager.beacon_fanin", "manager.beacon_fanin_self_ms"),
                       ("manager.policy_scan", "manager.policy_scan_self_ms"),
                       ("cache.ring_lookup", "cache.ring_lookup_self_ms"),
                       ("cache.rebalance", "cache.rebalance_self_ms")):
        m[name] = med(lambda ep, z=zone: zone_ms(ep, z))
    for step in ("build", "start", "warmup"):
        m[f"setup.{step}_ms"] = med(lambda ep, s=step: zone_ms(ep, f"bench.setup.{s}",
                                                                 "total_ns"))
    cov = [coverage(ep["zones"], ep["prof_wall_ns"]) for ep in traced]
    m["prof.coverage"] = median([share for share, _ in cov])
    m["prof.unattributed_ms"] = median([rest / 1e6 for _, rest in cov])
    untraced_factor = run_speed_factor(untraced)
    m["prof.tracing_overhead"] = (req_per_host_s(untraced, untraced_factor)
                                  / req_per_host_s(traced, run_speed_factor(traced)) - 1.0)

    schedules = zone_field(traced[0], "sim.schedule", "count")
    m["sim.events"] = sim["events"]
    m["sim.host_ns_per_event"] = median([ep["host"]["window_s"] * untraced_factor * 1e9
                                         / ep["sim"]["window_events"] for ep in untraced])
    m["sim.cancels_per_schedule"] = (zone_field(traced[0], "sim.cancel", "count") / schedules
                                     if schedules else 0.0)
    m["san.messages_delivered"] = sim["san_delivered"]
    m["san.messages_per_request"] = sim["san_delivered"] / sim["ledger_offered"]
    m["san.datagrams_dropped"] = sim["san_dropped"]
    m["manager.reports_received"] = sim["manager_reports"]
    m["manager.spawns_initiated"] = sim["manager_spawns"]
    m["manager.reaps_initiated"] = sim["manager_reaps"]
    m["manager.fe_restarts"] = sim["manager_fe_restarts"]
    lookups = sim["cache_hits"] + sim["cache_misses"]
    m["cache.hit_rate"] = sim["cache_hits"] / lookups if lookups else 0.0
    m["cache.evictions"] = sim["cache_evictions"]
    m["cache.resident_mb"] = sim["cache_used_bytes"] / 1e6
    m["profiledb.writes"] = sim["profiledb_writes"]
    m["profiledb.writes_rejected"] = sim["profiledb_writes_rejected"]
    m["origin.fetches"] = sim["origin_fetches"]
    m["origin.bytes_served"] = sim["origin_bytes"]
    m["tacc.tasks"] = sim["tacc_tasks"]
    m["tacc.rejected"] = sim["tacc_rejected"]
    m["tacc.expired"] = sim["tacc_expired"]
    m["hotbot.partial_answers"] = sim["hotbot_partial_answers"]
    m["chaos.faults_injected"] = sim["faults_injected"]
    m["fencing.kills"] = sim["fencing_kills"]
    m["manager.quorum_losses"] = sim["manager_quorum_losses"]
    m["avail.recovery_gap_s"] = sim["recovery_gap_s"]
    m["avail.max_window_yield"] = sim["max_window_yield"]
    m["obs.spans_retained"] = sim["spans_retained"]
    m["obs.traces_started"] = sim["traces_started"]
    m["obs.san_events_recorded"] = sim["san_events_recorded"]
    m["obs.timeseries_samples"] = sim["timeseries_samples"]
    m["obs.artifact_mb"] = traced[0]["artifact_bytes"] / 1e6
    for section in SERIALIZED_SECTIONS:
        m[f"obs.serialize_{section}_ms"] = med(lambda ep, s=section: ep["serialize_ms"][s])
    m["obs.serialize_ms"] = med(lambda ep: sum(ep["serialize_ms"].values()))
    stages = traced[0]["stages"]
    for stage in CP_STAGES:
        row = stages.get(stage, {"n": 0, "p50_s": 0.0, "p99_s": 0.0})
        m[f"cp.{stage}_p50_s"] = row["p50_s"]
        m[f"cp.{stage}_p99_s"] = row["p99_s"]
        m[f"cp.{stage}_n"] = row["n"]
    return m


# --- Report ------------------------------------------------------------------------

def load_spec():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m for m in spec["end_to_end"]},
            {m["name"]: m for m in spec["per_layer"]})


def select(metrics, declared):
    """The declared metrics, each with its unit; every value must be finite."""
    out = {}
    for name, spec in declared.items():
        if not valid_name(name):
            raise CheckFailed(f"metric name {name!r} breaks the name grammar")
        if name not in metrics:
            raise CheckFailed(f"metric {name} was not measured")
        value = float(metrics[name])
        if not math.isfinite(value):
            raise CheckFailed(f"metric {name} is not finite: {value}")
        out[name] = {"value": value, "unit": spec["unit"]}
    return out


def print_table(title, metrics, declared):
    print(title)
    for name, spec in declared.items():
        print(f"  {name:<34} {metrics[name]:>16.6g} {spec['unit']:<6} "
              f"({spec['better']} is better)")


def report_simulated(label, sim):
    lat = sim["_latency"]
    print(f"{label}: sim_goodput {sim['sim_goodput']:.6f} (failed share "
          f"{sim['_failed_share']:.6f} of offered), sim_p50_s {lat['p50_s']:.6f}, "
          f"sim_p99_s {lat['p99_s']:.6f} over n={lat['n']} requests answered in time "
          f"({lat['beyond_p99']} beyond p99), sim_yield {sim['sim_yield']:.6f}, "
          f"sim_harvest {sim['sim_harvest']:.6f}")


def measure(args, e2e_spec, layer_spec):
    binary = build()
    held_out = args.seed ^ HELD_OUT_MASK
    print(f"perfbench {args.workload}: seed {args.seed}, held-out seed {held_out}, "
          f"{args.seconds} s, trace {args.trace}")
    result = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        if args.trace == 0:
            main, rc = run_driver(binary, args.workload, args.seed, args.seconds, 0,
                                  MIN_EPISODES)
            check_episodes(main, rc, "seed")
            measured = main
        else:
            half = args.seconds / 2.0
            untraced, rc = run_driver(binary, args.workload, args.seed, half, 0, 2)
            check_episodes(untraced, rc, "untraced seed")
            main, rc = run_driver(binary, args.workload, args.seed, half, 1, 2)
            check_episodes(main, rc, "traced seed")
            if main[0]["sim"] != untraced[0]["sim"] or main[0]["stages"] != untraced[0]["stages"]:
                raise CheckFailed("traced and untraced runs of one seed disagree on "
                                  "simulated results")
            measured = main
        held, rc = run_driver(binary, args.workload, held_out, 0, 0, 1)
        check_episodes(held, rc, "held-out seed")

        e2e = end_to_end(measured if args.trace == 0 else untraced)
        print(f"host speed factor {e2e['_speed_factor']:.4f} (reference calibration "
              f"{CAL_REFERENCE_S * 1e3:.3f} ms; factor < 1: this host ran slower)")
        report_simulated(f"seed {args.seed}", e2e)
        held_e2e = end_to_end(held)
        report_simulated(f"held-out seed {held_out}", held_e2e)
        print_table(f"held-out seed {held_out}, end-to-end (1 episode):", held_e2e, e2e_spec)
        select(held_e2e, e2e_spec)  # Its metrics must be finite too.
        if args.trace == 0:
            print_table(f"seed {args.seed}, end-to-end (median of {len(measured)} episodes):",
                        e2e, e2e_spec)
            result["metrics"] = select(e2e, e2e_spec)
        else:
            layers = per_layer(main, untraced)
            print_table(f"seed {args.seed}, per-layer (median of {len(main)} traced episodes; "
                        f"{len(untraced)} untraced):", layers, layer_spec)
            result["metrics"] = select(layers, layer_spec)
        # Every simulated request the measured episodes offered is one operation.
        # A refused, failed or late request is the cluster's measured behaviour
        # (sim_goodput); an operation fails only when the program loses it, which
        # the conservation check above rules out.
        result["attempted"] = sum(ep["sim"]["offered"] for ep in measured)
        result["failed"] = sum(ep["checks"]["lost_requests"] for ep in measured)
        result["correct"] = True
    except CheckFailed as e:
        print(f"CHECK FAILED: {e}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    sys.dont_write_bytecode = True  # Leave no __pycache__ in the checkout.
    sys.path.insert(0, str(HERE))
    import selftest  # noqa: E402  (lives next to this file)
    if not selftest.run_tests(verbose=args.selftest):
        print("perfbench: self-tests failed", file=sys.stderr)
        return 1
    if args.selftest:
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if not 0 <= args.seed < 2 ** 64:
        parser.error("--seed must fit in 64 bits")
    e2e_spec, layer_spec = load_spec()
    return measure(args, e2e_spec, layer_spec)


if __name__ == "__main__":
    sys.exit(main())
