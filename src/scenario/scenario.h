// Declarative scenario matrix: one cell = {workload shape, cluster shape,
// fault schedule, overload regime}.
//
// The chaos campaign answers "do the invariants hold under faults?"; the bench
// binaries answer "does the paper's curve reproduce?". A scenario cell answers
// both at once for an arbitrary point in the configuration space: it builds the
// cluster the cell describes, drives the cell's workload shape at the cell's
// operating point, compiles the cell's fault schedule through the same
// ApplyScheduledFault path the campaign uses, checks every quiesce invariant,
// and emits a BENCH_matrix_<cell>.json artifact whose "matrix" section carries
// the cell's headline metrics (latency percentiles, goodput, cache hit rate,
// recovery time). Because the simulator is deterministic, the same cell on the
// same build produces byte-identical metrics — which is what makes exact
// baseline-diff perf gating (tools/bench_diff) feasible in CI.

#ifndef SRC_SCENARIO_SCENARIO_H_
#define SRC_SCENARIO_SCENARIO_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/chaos/invariants.h"
#include "src/chaos/schedule.h"
#include "src/tacc/streaming.h"
#include "src/util/time.h"

namespace sns {

// The workload axis. Replay and diurnal play generated request traces (flat
// and compressed-24h-cycle respectively); zipf draws URLs with a popularity
// skew at constant rate; flash steps the arrival rate 10x mid-run (the
// "flash crowd" overload of paper §2.1); stream is the long-lived-session
// per-frame-deadline workload of src/tacc/streaming.h.
enum class WorkloadShape { kReplay, kZipf, kFlashCrowd, kDiurnal, kStream };

// The quorum vote axis: uniform one-node-one-vote, or the core-weighted layout
// (SnsConfig::infra_node_votes) where the stateful service core outvotes the
// worker pool.
enum class VoteLayout { kUniform, kCoreWeighted };

// The offered-load axis: nominal sits well inside the worker/FE capacity of the
// cell's cluster; saturating offers ~2x capacity so the cell measures graceful
// degradation rather than headroom.
enum class OverloadRegime { kNominal, kSaturating };

const char* WorkloadShapeName(WorkloadShape shape);    // "replay", "zipf", ...
const char* VoteLayoutName(VoteLayout layout);         // "uniform"/"core-weighted"
const char* OverloadRegimeName(OverloadRegime regime); // "nominal"/"saturating"

struct ClusterShape {
  int worker_pool_nodes = 2;
  int front_ends = 1;
  int cache_nodes = 2;
  int cache_replication = 2;
  VoteLayout votes = VoteLayout::kUniform;
};

struct ScenarioCell {
  WorkloadShape workload = WorkloadShape::kZipf;
  ClusterShape cluster;
  OverloadRegime regime = OverloadRegime::kNominal;
  // 0 = fault-free cell. Otherwise GenerateSchedule(fault_seed, gen) is
  // resolved against the live topology at fire time, exactly as the chaos
  // campaign does. The schedule window (gen.horizon + gen.max_outage) must fit
  // inside `measure` so every fault heals before the drain.
  uint64_t fault_seed = 0;
  ScheduleGenConfig gen;
  // Workload seed: request arrival draws, URL choices, user identities.
  uint64_t seed = 0x5CE4A210;
  // Measured load window (after warmup, before drain).
  SimDuration measure = Seconds(40);
  // Stream cells only; stream.duration is forced to `measure`.
  StreamSessionConfig stream;

  // Deterministic cell id, used for artifact and baseline file names:
  //   <shape>_w<W>fe<F>c<C>r<R><u|cw>_<f0|fXX>_<nom|sat>
  // e.g. "zipf_w2fe1c2r2u_f0_nom", "stream_w2fe1c2r2u_f3c_sat".
  std::string Name() const;
};

// Offered-load operating points derived from the calibrated capacity model:
// one distiller sustains ~23 req/s, one front end saturates near ~70 req/s.
double CellCapacity(const ClusterShape& cluster);
double CellOfferedRate(const ScenarioCell& cell);

struct CellMetrics {
  double latency_p50_s = 0;
  double latency_p99_s = 0;
  // Fraction of sent requests answered Ok within deadline:
  // (completed - errors - late_completions) / sent.
  double goodput = 0;
  // Cache-tier hit fraction over the whole run, via the per-node gauges (which
  // survive cache-node deaths).
  double hit_rate = 1.0;
  // Longest run of consecutive whole seconds with zero request completions
  // inside the load window — the client-visible outage from the worst fault.
  double recovery_s = 0;
  // Harvest/yield (paper §1.2, DESIGN.md §15) over the whole run, from the
  // system availability ledger: yield = answered/offered, harvest = mean
  // completeness of the answers (degraded/approximate answers < 1.0).
  double yield = 1.0;
  double harvest = 1.0;
  int64_t sent = 0;
  int64_t completed = 0;
  int64_t errors = 0;
  int64_t timeouts = 0;
  int64_t late_completions = 0;
};

struct CellResult {
  ScenarioCell cell;
  CellMetrics metrics;
  InvariantReport invariants;
  int64_t faults_injected = 0;
  bool artifact_written = false;
  std::string artifact_path;
  // Paper-style availability figure: per-second offered/answered/yield/harvest
  // rows with fault and outage annotations (AvailabilityLedger::RenderTable).
  std::string availability_table;

  bool passed() const { return invariants.ok(); }
};

struct CellRunOptions {
  // Directory receiving BENCH_matrix_<cell>.json; empty = no artifact.
  std::string artifact_dir;
};

// Builds the cell's cluster, runs warmup + load + faults + drain + settle,
// checks all quiesce invariants, computes the cell metrics, and (optionally)
// writes the artifact. Deterministic for a fixed cell spec.
CellResult RunScenarioCell(const ScenarioCell& cell, const CellRunOptions& options = {});

// Longest run of consecutive whole seconds in [from_s, to_s) absent from
// `completions_per_second` (the playback engine's completion buckets).
// Exposed for direct unit testing of the recovery metric.
int64_t LongestZeroCompletionGap(const std::map<int64_t, int64_t>& completions_per_second,
                                 int64_t from_s, int64_t to_s);

// Baseline-file JSON for one cell: {"schema_version":...,"cell":...,"metrics":...}
// with the artifact schema version (src/obs/artifact.h).
// tools/bless_baseline writes these; tools/bench_diff reads them back.
std::string BaselineJson(const CellResult& result);

// The artifact's "matrix" section (cell spec + invariant verdict + metrics).
std::string MatrixSectionJson(const CellResult& result);

}  // namespace sns

#endif  // SRC_SCENARIO_SCENARIO_H_
