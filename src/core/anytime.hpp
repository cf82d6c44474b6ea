#pragma once
/// \file anytime.hpp
/// The anytime region pipeline shared by every PRM and RRT builder.
///
/// Algorithm 1 (uniform-subdivision PRM) and Algorithm 2 (radial RRT) have
/// the same parallel shape: every region is built as an independent task,
/// Algorithm 3's work stealing balances the tasks over the workers, and
/// adjacent regions are connected afterwards. `build_regions_anytime` runs
/// that shape for all four builders — the threaded `parallel_build_*` and
/// the measuring `build_*_workload` — with one region task per algorithm,
/// together with the anytime machinery around it:
///
///  - cooperative cancellation with all-or-nothing regions: a region cut
///    short by the token is discarded, never merged half-built;
///  - checkpoints of the completed-region subset (periodic and on a
///    cancelled exit, removed once the build completes), and resume from
///    one whose kind, fingerprint and region count match;
///  - a `DegradationReport` of what was actually delivered.
///
/// The builders supply their region task, their configuration fingerprint
/// and how adjacent regions are connected (`RegionConnect`); all four
/// connect through `connect_regions`, and the workload builders record an
/// `EdgeProfile` per pair on the way (core/profile.hpp). Per-region RNG
/// streams make
/// each region's output independent of placement and stealing, so a build
/// resumed from any checkpoint finishes bit-identical to an uninterrupted
/// one.

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "env/environment.hpp"
#include "geometry/shapes.hpp"
#include "loadbal/ws_threaded.hpp"
#include "planner/prm.hpp"
#include "planner/roadmap.hpp"
#include "planner/stats.hpp"
#include "runtime/cancel.hpp"
#include "runtime/trace.hpp"
#include "util/io_status.hpp"

namespace pmpl::core {

/// Deadline/cancel and checkpoint/resume controls of one build.
struct AnytimeOptions {
  const runtime::CancelToken* cancel = nullptr;  ///< nullptr: never stops
  std::string checkpoint_path;  ///< empty: no checkpoints
  /// Snapshot after every N completed regions (0: only on a cancelled
  /// exit). Needs a checkpoint path.
  std::size_t checkpoint_every = 0;
  bool resume = false;  ///< restore completed regions from checkpoint_path
};

/// What a build actually delivered.
struct DegradationReport {
  std::size_t regions_total = 0;
  std::size_t regions_completed = 0;  ///< merged, restored ones included
  std::size_t regions_restored = 0;   ///< taken from the checkpoint
  bool cancelled = false;             ///< the token fired during the build
  bool connect_completed = false;     ///< every adjacency pair was tried
  std::size_t connected_components = 0;
  bool checkpoint_written = false;  ///< a checkpoint is left on disk
  /// Why a requested resume restored nothing (kOk when it worked or was
  /// not requested).
  IoStatus resume_status = IoStatus::kOk;

  bool complete() const noexcept {
    return regions_completed == regions_total && connect_completed;
  }
};

/// One completed region in region-local form: vertex ids index `configs`.
struct RegionSnapshot {
  struct Edge {
    std::uint32_t u = 0;
    std::uint32_t v = 0;
    double length = 0.0;
  };
  std::uint32_t region = 0;
  std::vector<cspace::Config> configs;
  std::vector<Edge> edges;
  planner::PlannerStats sampling;  ///< node generation (PRM; empty for RRT)
  planner::PlannerStats stats;     ///< connect-within (PRM) / growth (RRT)
};

/// Checkpoint payload kinds (`StateBlob::kind`, see util/state_file.hpp).
inline constexpr std::uint32_t kCheckpointKindPrm = 1;
inline constexpr std::uint32_t kCheckpointKindRrt = 2;

/// The completed-region subset of an interrupted build.
struct Checkpoint {
  std::uint32_t kind = kCheckpointKindPrm;
  std::uint64_t fingerprint = 0;  ///< configuration the regions came from
  std::uint64_t seed = 0;
  std::uint32_t num_regions = 0;  ///< regions of the whole build
  std::vector<RegionSnapshot> regions;  ///< distinct ids < num_regions
};

/// Serialize atomically (tmp file + rename). False on any I/O failure.
bool save_checkpoint_file(const Checkpoint& c, const std::string& path);

/// Load and validate. Corrupt containers are rejected by util/state_file;
/// the payload is then held to the checkpoint schema: region ids below
/// num_regions and distinct, config dof within cspace::kMaxConfigValues,
/// edge endpoints inside their region, as many regions as the header
/// declares and no trailing bytes. On failure returns nullopt and (when
/// `status` is non-null) the reason.
std::optional<Checkpoint> load_checkpoint_file(const std::string& path,
                                               IoStatus* status = nullptr);

/// Configuration-fingerprint mixer (FNV-1a over the value's bytes).
inline std::uint64_t fp_mix(std::uint64_t h, std::uint64_t v) noexcept {
  return fnv1a64(&v, sizeof v, h);
}
inline std::uint64_t fp_mix(std::uint64_t h, double v) noexcept {
  return fnv1a64(&v, sizeof v, h);
}
inline std::uint64_t fp_mix(std::uint64_t h, std::string_view s) noexcept {
  return fnv1a64(s.data(), s.size(),
                 fp_mix(h, static_cast<std::uint64_t>(s.size())));
}

/// A builder fingerprint's start: the environment's name and bounds.
std::uint64_t fp_environment(const env::Environment& e);

/// How adjacent regions are connected after the merge (connect_regions).
struct RegionConnect {
  /// connect_between parameters. With skip_same_component a union-find
  /// over the merged roadmap skips attempts between vertices that are
  /// already connected, so connection never closes a cycle (a forest of
  /// branches stays a forest); without it every candidate is tried.
  planner::PrmParams params;
  std::size_t max_attempts = 16;  ///< local plans per region pair
  /// Candidate band: region a's candidates toward its neighbour b are its
  /// vertices within `band` of `boxes[b]`. With no boxes the band is
  /// unbounded and every vertex of the region is a candidate.
  std::vector<geo::Aabb> boxes;
  double band = 0.0;
};

/// A builder's part of the pipeline, besides its region task.
struct RegionPipeline {
  std::uint32_t kind = kCheckpointKindPrm;  ///< checkpoint payload kind
  /// Everything that shapes the roadmap; worker count excluded, since the
  /// result does not depend on placement.
  std::uint64_t fingerprint = 0;
  std::uint64_t seed = 1;  ///< recorded in checkpoints; victim selection
  std::uint32_t workers = 4;
  AnytimeOptions anytime;
  /// Tracing sink; nullptr disables. Each region task runs inside a
  /// `task_span` span (arg = region id) on its worker's track, and each
  /// adjacency pair of connect_regions records an edge_connect span on the
  /// `connect_track` track of the calling thread.
  runtime::Tracer* tracer = nullptr;
  const char* task_span = "region";
  const char* connect_track = "region-connect";
  RegionConnect connect;
};

/// Builds one region into `local`, which starts empty: its vertex ids are
/// region-local and the pipeline relabels them at the merge. Node
/// generation goes into `sampling` (PRM only), the rest of the region's
/// planner work into `build`. Runs on a scheduler worker concurrently with
/// other regions, and polls the cancel token itself.
using RegionTask = std::function<void(
    std::uint32_t region, planner::Roadmap& local,
    planner::PlannerStats& sampling, planner::PlannerStats& build)>;

/// The roadmap of a threaded region build (PRM roadmap or RRT forest).
struct RegionBuildResult {
  planner::Roadmap roadmap;
  std::vector<loadbal::WorkerStats> workers;  ///< per-thread steal stats
  std::vector<std::vector<graph::VertexId>> region_vertices;
  /// Per region: merged (built or restored). A region is left out only
  /// when the cancel token fired.
  std::vector<bool> region_completed;
  /// Per-region planner work, zero for a region left out.
  std::vector<planner::PlannerStats> region_sampling;  ///< node generation
  std::vector<planner::PlannerStats> region_build;  ///< connect / growth
  double build_wall_s = 0.0;    ///< region tasks (the parallel part)
  double connect_wall_s = 0.0;  ///< region-connection phase
  planner::PlannerStats stats;  ///< completed regions plus connection
  DegradationReport degradation;  ///< what was actually delivered
};

/// The phase after the merge: connects adjacent regions of `merged`,
/// whose roadmap holds the completed regions, and adds its planner work to
/// `merged.stats`. Returns false when the cancel token cut it short. The
/// token latches, so a phase that polls it before each pair never reaches
/// a region that was left out.
using ConnectPhase = std::function<bool(RegionBuildResult& merged)>;

/// Run `build_region` for every region in [0, num_regions) on a
/// work-stealing scheduler with block placement, merge the completed
/// regions in region-id order, then run `connect` on the merge. Anytime
/// semantics as described in the file comment.
RegionBuildResult build_regions_anytime(std::size_t num_regions,
                                        const RegionPipeline& pipeline,
                                        const RegionTask& build_region,
                                        const ConnectPhase& connect);

/// One adjacent pair after its connection attempts.
struct PairConnection {
  std::uint32_t a = 0, b = 0;  ///< region ids, as listed in the adjacency
  std::span<const graph::VertexId> near_b;  ///< b's band candidates
  std::size_t edges_added = 0;
  planner::PlannerStats stats;  ///< the pair's k-NN and local plans
};

/// Called once per pair that ran to the end, in adjacency order, with the
/// roadmap the pair's edges went into.
using PairObserver =
    std::function<void(const planner::Roadmap&, const PairConnection&)>;

/// The connection phase of every builder: for each pair of `adjacency` in
/// order, connect_between over the band candidates of both regions, as
/// `pipeline.connect` configures, adding the work to the merge's stats.
/// One cancellation rule: the token of `pipeline.anytime` is polled before
/// each pair and between a pair's local plans; a pair cut short reports
/// nothing to `on_pair`, and the phase returns false.
ConnectPhase connect_regions(
    const env::Environment& e,
    std::vector<std::pair<std::uint32_t, std::uint32_t>> adjacency,
    const RegionPipeline& pipeline, PairObserver on_pair = {});

}  // namespace pmpl::core
