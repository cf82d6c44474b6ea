// Tests for the anytime execution layer: deadlines and cooperative
// cancellation, graceful degradation of the parallel builders, and
// checkpoint/resume (including the bit-equivalence property: a build
// interrupted anywhere and resumed finishes identical to an uninterrupted
// one).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "core/anytime.hpp"
#include "core/parallel_build.hpp"
#include "core/parallel_build_rrt.hpp"
#include "env/builders.hpp"
#include "graph/tree_utils.hpp"
#include "runtime/cancel.hpp"
#include "runtime/scheduler.hpp"
#include "util/rng.hpp"
#include "util/state_file.hpp"
#include "util/timer.hpp"

namespace pmpl {
namespace {

std::string temp_path(const char* name) {
  return ::testing::TempDir() + name;
}

/// Bit-level roadmap equality: vertices (region + every config value, in
/// id order) and adjacency (neighbor ids + edge lengths, in stored order).
void expect_identical_roadmaps(const planner::Roadmap& a,
                               const planner::Roadmap& b) {
  ASSERT_EQ(a.num_vertices(), b.num_vertices());
  ASSERT_EQ(a.num_edges(), b.num_edges());
  for (graph::VertexId v = 0; v < a.num_vertices(); ++v) {
    EXPECT_EQ(a.vertex(v).region, b.vertex(v).region) << "vertex " << v;
    ASSERT_EQ(a.vertex(v).cfg.size(), b.vertex(v).cfg.size());
    for (std::size_t i = 0; i < a.vertex(v).cfg.size(); ++i)
      EXPECT_DOUBLE_EQ(a.vertex(v).cfg[i], b.vertex(v).cfg[i])
          << "vertex " << v << " value " << i;
    const auto ea = a.edges_of(v);
    const auto eb = b.edges_of(v);
    ASSERT_EQ(ea.size(), eb.size()) << "vertex " << v;
    for (std::size_t i = 0; i < ea.size(); ++i) {
      EXPECT_EQ(ea[i].to, eb[i].to) << "vertex " << v << " edge " << i;
      EXPECT_DOUBLE_EQ(ea[i].prop.length, eb[i].prop.length)
          << "vertex " << v << " edge " << i;
    }
  }
}

void expect_identical_stats(const planner::PlannerStats& a,
                            const planner::PlannerStats& b) {
  EXPECT_EQ(a.cd.queries, b.cd.queries);
  EXPECT_EQ(a.cd.narrow_tests, b.cd.narrow_tests);
  EXPECT_EQ(a.cd.bvh_nodes, b.cd.bvh_nodes);
  EXPECT_EQ(a.cd.ray_casts, b.cd.ray_casts);
  EXPECT_EQ(a.samples_attempted, b.samples_attempted);
  EXPECT_EQ(a.samples_valid, b.samples_valid);
  EXPECT_EQ(a.knn_queries, b.knn_queries);
  EXPECT_EQ(a.knn_candidates, b.knn_candidates);
  EXPECT_EQ(a.lp_attempts, b.lp_attempts);
  EXPECT_EQ(a.lp_success, b.lp_success);
  EXPECT_EQ(a.lp_steps, b.lp_steps);
  EXPECT_EQ(a.rrt_extends, b.rrt_extends);
  EXPECT_EQ(a.rrt_extends_success, b.rrt_extends_success);
}

// --- cancel token / deadline ------------------------------------------------

TEST(Cancel, TokenLatchesOnExplicitRequest) {
  runtime::CancelToken t;
  EXPECT_FALSE(t.stop_requested());
  EXPECT_FALSE(t.cancel_requested());
  t.request_cancel();
  EXPECT_TRUE(t.stop_requested());
  EXPECT_TRUE(t.cancel_requested());
  EXPECT_TRUE(t.stop_requested());  // latched
}

TEST(Cancel, DeadlineExpiresAndLatches) {
  runtime::CancelToken t(runtime::Deadline::after_ms(1.0));
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_TRUE(t.stop_requested());
  EXPECT_FALSE(t.cancel_requested());  // deadline, not explicit cancel
}

TEST(Cancel, NeverDeadlineNeverFires) {
  const runtime::CancelToken t(runtime::Deadline::never());
  EXPECT_FALSE(t.stop_requested());
  EXPECT_FALSE(t.deadline().armed());
  EXPECT_FALSE(runtime::stop_requested(nullptr));
}

TEST(Cancel, NonPositiveDeadlineIsAlreadyExpired) {
  const auto d = runtime::Deadline::after_s(-1.0);
  EXPECT_TRUE(d.armed());
  EXPECT_TRUE(d.expired());
}

// --- cancel-aware scheduler loop --------------------------------------------

TEST(Cancel, ParallelForCancellableRunsEverythingWithoutSignal) {
  runtime::Scheduler sched(4);
  runtime::CancelToken token;
  std::atomic<std::size_t> ran{0};
  const bool complete = runtime::parallel_for_cancellable(
      sched, 1000, [&](std::size_t) { ++ran; }, token);
  EXPECT_TRUE(complete);
  EXPECT_EQ(ran.load(), 1000u);
}

TEST(Cancel, ParallelForCancellableCutsShortOnPreCancelled) {
  runtime::Scheduler sched(4);
  runtime::CancelToken token;
  token.request_cancel();
  std::atomic<std::size_t> ran{0};
  const bool complete = runtime::parallel_for_cancellable(
      sched, 10000, [&](std::size_t) { ++ran; }, token);
  EXPECT_FALSE(complete);
  EXPECT_LT(ran.load(), 10000u);
}

TEST(Cancel, ParallelForCancellableStopsMidFlight) {
  runtime::Scheduler sched(4);
  runtime::CancelToken token;
  std::atomic<std::size_t> ran{0};
  const bool complete = runtime::parallel_for_cancellable(
      sched, 100000,
      [&](std::size_t i) {
        if (i == 50) token.request_cancel();
        ++ran;
      },
      token, 1);
  EXPECT_FALSE(complete);
  // Every index either ran or was dropped — no double execution either way.
  EXPECT_LT(ran.load(), 100000u);
}

// --- graceful degradation ---------------------------------------------------

TEST(AnytimePrm, PreCancelledTokenYieldsEmptyWellFormedResult) {
  const auto e = env::small_cube();
  const auto grid = core::RegionGrid::make_auto(
      e->space().position_bounds(), 27, false);
  runtime::CancelToken token;
  token.request_cancel();
  core::ParallelPrmConfig cfg;
  cfg.total_attempts = 4096;
  cfg.workers = 4;
  cfg.anytime.cancel = &token;
  const auto r = core::parallel_build_prm(*e, grid, cfg);
  EXPECT_EQ(r.degradation.regions_completed, 0u);
  EXPECT_EQ(r.degradation.regions_total, 27u);
  EXPECT_TRUE(r.degradation.cancelled);
  EXPECT_FALSE(r.degradation.complete());
  EXPECT_EQ(r.roadmap.num_vertices(), 0u);
  EXPECT_EQ(r.roadmap.num_edges(), 0u);
}

TEST(AnytimePrm, DeadlineOverrunIsBounded) {
  const auto e = env::med_cube();
  const auto grid = core::RegionGrid::make_auto(
      e->space().position_bounds(), 64, false);
  const double deadline_ms = 50.0;
  const runtime::CancelToken token(runtime::Deadline::after_ms(deadline_ms));
  core::ParallelPrmConfig cfg;
  cfg.total_attempts = 1 << 17;  // far more work than the deadline allows
  cfg.workers = 4;
  cfg.seed = 71;
  cfg.anytime.cancel = &token;
  WallTimer timer;
  const auto r = core::parallel_build_prm(*e, grid, cfg);
  const double elapsed_s = timer.elapsed_s();
  // Generous margin: the overrun past the deadline is bounded by one
  // granule (one region's build), which even under sanitizers is far
  // below this.
  EXPECT_LT(elapsed_s, deadline_ms * 1e-3 + 10.0);
  EXPECT_TRUE(r.degradation.cancelled);
  EXPECT_LT(r.degradation.regions_completed, r.degradation.regions_total);
  // The partial result is well-formed: every merged vertex belongs to a
  // completed region and every edge endpoint is a real vertex.
  std::size_t merged = 0;
  for (const auto& rv : r.region_vertices) merged += rv.size();
  EXPECT_EQ(merged, r.roadmap.num_vertices());
  for (graph::VertexId v = 0; v < r.roadmap.num_vertices(); ++v)
    for (const auto& he : r.roadmap.edges_of(v))
      EXPECT_LT(he.to, r.roadmap.num_vertices());
}

TEST(AnytimeRrt, CancelMidBuildYieldsWellFormedForest) {
  const auto e = env::mixed(0.30);
  const core::RadialRegions regions({50, 50, 50}, 45.0, 64, 4, 81, false);
  Xoshiro256ss rng(82);
  const auto root = e->space().at_position({50, 50, 50}, rng);
  runtime::CancelToken token;
  core::ParallelRrtConfig cfg;
  cfg.total_nodes = 1 << 14;
  cfg.workers = 4;
  cfg.seed = 83;
  cfg.anytime.cancel = &token;
  std::thread canceller([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(15));
    token.request_cancel();
  });
  const auto r = core::parallel_build_rrt(*e, regions, root, cfg);
  canceller.join();
  EXPECT_LE(r.degradation.regions_completed, r.degradation.regions_total);
  EXPECT_TRUE(graph::is_forest(r.roadmap));
  for (graph::VertexId v = 0; v < r.roadmap.num_vertices(); ++v)
    for (const auto& he : r.roadmap.edges_of(v))
      EXPECT_LT(he.to, r.roadmap.num_vertices());
}

// --- checkpoint file format -------------------------------------------------

core::Checkpoint sample_checkpoint() {
  core::Checkpoint c;
  c.kind = core::kCheckpointKindPrm;
  c.fingerprint = 0x1234abcd5678ef09ull;
  c.seed = 42;
  c.num_regions = 8;
  for (std::uint32_t r : {1u, 4u, 6u}) {
    core::RegionSnapshot s;
    s.region = r;
    for (int i = 0; i < 5; ++i) {
      cspace::Config cfg;
      cfg.push_back(0.5 * r + i);
      cfg.push_back(-1.25 * i);
      cfg.push_back(3.0);
      s.configs.push_back(cfg);
    }
    s.edges.push_back({0, 1, 1.5});
    s.edges.push_back({1, 4, 2.25});
    // Distinct values in every counter, so a dropped field shows.
    std::uint64_t n = 100 * r;
    s.stats.cd.queries = ++n;
    s.stats.cd.narrow_tests = ++n;
    s.stats.cd.bvh_nodes = ++n;
    s.stats.cd.ray_casts = ++n;
    s.stats.samples_attempted = ++n;
    s.stats.samples_valid = ++n;
    s.stats.knn_queries = ++n;
    s.stats.knn_candidates = ++n;
    s.stats.lp_attempts = ++n;
    s.stats.lp_success = ++n;
    s.stats.lp_steps = ++n;
    s.stats.rrt_extends = ++n;
    s.stats.rrt_extends_success = ++n;
    s.sampling.samples_attempted = ++n;
    s.sampling.samples_valid = ++n;
    s.sampling.cd.queries = ++n;
    c.regions.push_back(std::move(s));
  }
  return c;
}

TEST(CheckpointIo, RoundTripPreservesEverything) {
  const auto path = temp_path("ckpt_roundtrip.bin");
  const auto c = sample_checkpoint();
  ASSERT_TRUE(core::save_checkpoint_file(c, path));
  IoStatus status = IoStatus::kOk;
  const auto loaded = core::load_checkpoint_file(path, &status);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(status, IoStatus::kOk);
  EXPECT_EQ(loaded->kind, c.kind);
  EXPECT_EQ(loaded->fingerprint, c.fingerprint);
  EXPECT_EQ(loaded->seed, c.seed);
  EXPECT_EQ(loaded->num_regions, c.num_regions);
  ASSERT_EQ(loaded->regions.size(), c.regions.size());
  for (std::size_t i = 0; i < c.regions.size(); ++i) {
    const auto& a = c.regions[i];
    const auto& b = loaded->regions[i];
    EXPECT_EQ(a.region, b.region);
    ASSERT_EQ(a.configs.size(), b.configs.size());
    for (std::size_t j = 0; j < a.configs.size(); ++j) {
      ASSERT_EQ(a.configs[j].size(), b.configs[j].size());
      for (std::size_t k = 0; k < a.configs[j].size(); ++k)
        EXPECT_DOUBLE_EQ(a.configs[j][k], b.configs[j][k]);
    }
    ASSERT_EQ(a.edges.size(), b.edges.size());
    for (std::size_t j = 0; j < a.edges.size(); ++j) {
      EXPECT_EQ(a.edges[j].u, b.edges[j].u);
      EXPECT_EQ(a.edges[j].v, b.edges[j].v);
      EXPECT_DOUBLE_EQ(a.edges[j].length, b.edges[j].length);
    }
    expect_identical_stats(a.sampling, b.sampling);
    expect_identical_stats(a.stats, b.stats);
  }
  std::remove(path.c_str());
}

TEST(CheckpointIo, MissingFileIsOpenFailed) {
  IoStatus status = IoStatus::kOk;
  const auto loaded =
      core::load_checkpoint_file(temp_path("ckpt_nonexistent.bin"), &status);
  EXPECT_FALSE(loaded.has_value());
  EXPECT_EQ(status, IoStatus::kOpenFailed);
}

std::vector<char> file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<char>(std::istreambuf_iterator<char>(in),
                           std::istreambuf_iterator<char>());
}

void write_bytes(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST(CheckpointIo, TruncationAtEveryBoundaryIsRejectedCleanly) {
  const auto path = temp_path("ckpt_trunc.bin");
  ASSERT_TRUE(core::save_checkpoint_file(sample_checkpoint(), path));
  const auto bytes = file_bytes(path);
  ASSERT_GT(bytes.size(), 64u);
  const auto cut = temp_path("ckpt_trunc_cut.bin");
  for (std::size_t n = 0; n < bytes.size(); n += 64) {
    write_bytes(cut, {bytes.begin(), bytes.begin() + n});
    IoStatus status = IoStatus::kOk;
    const auto loaded = core::load_checkpoint_file(cut, &status);
    EXPECT_FALSE(loaded.has_value()) << "prefix of " << n << " bytes loaded";
    EXPECT_NE(status, IoStatus::kOk) << "prefix of " << n << " bytes";
  }
  // One byte short of complete must also fail (footer-less payload).
  write_bytes(cut, {bytes.begin(), bytes.end() - 1});
  EXPECT_FALSE(core::load_checkpoint_file(cut).has_value());
  std::remove(path.c_str());
  std::remove(cut.c_str());
}

TEST(CheckpointIo, BitFlipsAreRejectedCleanly) {
  const auto path = temp_path("ckpt_flip.bin");
  ASSERT_TRUE(core::save_checkpoint_file(sample_checkpoint(), path));
  const auto bytes = file_bytes(path);
  const auto flipped = temp_path("ckpt_flip_out.bin");
  // Flip one bit at a stride of positions covering header and payload.
  for (std::size_t pos = 0; pos < bytes.size(); pos += 7) {
    auto mutated = bytes;
    mutated[pos] = static_cast<char>(mutated[pos] ^ 0x10);
    write_bytes(flipped, mutated);
    IoStatus status = IoStatus::kOk;
    const auto loaded = core::load_checkpoint_file(flipped, &status);
    EXPECT_FALSE(loaded.has_value()) << "bit flip at byte " << pos;
    EXPECT_NE(status, IoStatus::kOk) << "bit flip at byte " << pos;
  }
  std::remove(path.c_str());
  std::remove(flipped.c_str());
}

// Checksums cannot catch a file that is intact but breaks the checkpoint
// schema. Each case below is saved with valid checksums and must still be
// rejected before a builder indexes its regions with it.
TEST(CheckpointIo, SchemaViolationsAreRejected) {
  const auto path = temp_path("ckpt_schema.bin");
  const auto expect_rejected = [&](IoStatus want, const char* what) {
    IoStatus status = IoStatus::kOk;
    EXPECT_FALSE(core::load_checkpoint_file(path, &status).has_value())
        << what;
    EXPECT_EQ(status, want) << what;
  };
  const auto save = [&](const core::Checkpoint& c) {
    ASSERT_TRUE(core::save_checkpoint_file(c, path));
  };

  auto c = sample_checkpoint();
  c.regions[2].region = c.num_regions;
  save(c);
  expect_rejected(IoStatus::kOutOfRange, "region id >= num_regions");

  c = sample_checkpoint();
  c.regions[2].region = c.regions[0].region;
  save(c);
  expect_rejected(IoStatus::kMalformed, "duplicate region id");

  c = sample_checkpoint();
  c.regions[1].edges.push_back({0, 5, 1.0});  // 5 configs: ids 0..4
  save(c);
  expect_rejected(IoStatus::kOutOfRange, "edge endpoint >= config count");

  // The remaining cases cannot be built as a Checkpoint: edit the saved
  // container and write it back with fresh checksums.
  const auto resave = [&](const auto& edit) {
    save(sample_checkpoint());
    auto blob = load_state_file(path);
    ASSERT_TRUE(blob.has_value());
    edit(*blob);
    ASSERT_TRUE(save_state_file(*blob, path));
  };
  resave([](StateBlob& b) {
    // Payload: region id, config count, then the first config's dof.
    const auto dof = static_cast<std::uint32_t>(cspace::kMaxConfigValues + 1);
    std::memcpy(b.payload.data() + 8, &dof, sizeof dof);
  });
  expect_rejected(IoStatus::kOutOfRange, "config dof > kMaxConfigValues");
  resave([](StateBlob& b) { ++b.meta1; });
  expect_rejected(IoStatus::kCountMismatch, "region count != meta1");
  resave([](StateBlob& b) { b.payload.insert(b.payload.end(), 3, 'x'); });
  expect_rejected(IoStatus::kMalformed, "trailing payload bytes");
  std::remove(path.c_str());
}

TEST(CheckpointIo, TrailingGarbageIsMalformed) {
  const auto path = temp_path("ckpt_trailing.bin");
  ASSERT_TRUE(core::save_checkpoint_file(sample_checkpoint(), path));
  auto bytes = file_bytes(path);
  bytes.push_back('x');
  write_bytes(path, bytes);
  IoStatus status = IoStatus::kOk;
  EXPECT_FALSE(core::load_checkpoint_file(path, &status).has_value());
  EXPECT_EQ(status, IoStatus::kMalformed);
  std::remove(path.c_str());
}

// --- resume safety ----------------------------------------------------------

TEST(AnytimePrm, ResumeRefusesMismatchedFingerprint) {
  const auto e = env::small_cube();
  const auto grid = core::RegionGrid::make_auto(
      e->space().position_bounds(), 27, false);
  const auto path = temp_path("ckpt_mismatch.bin");

  // Interrupt a build with one set of parameters to get a checkpoint.
  runtime::CancelToken token;
  token.request_cancel();
  core::ParallelPrmConfig cfg;
  cfg.total_attempts = 2048;
  cfg.workers = 2;
  cfg.seed = 91;
  cfg.anytime.cancel = &token;
  cfg.anytime.checkpoint_path = path;
  const auto partial = core::parallel_build_prm(*e, grid, cfg);
  ASSERT_TRUE(partial.degradation.checkpoint_written);

  // Resume with a different attempt budget: fingerprint mismatch, fresh
  // build, and the build still completes.
  core::ParallelPrmConfig cfg2;
  cfg2.total_attempts = 4096;  // different => different roadmap
  cfg2.workers = 2;
  cfg2.seed = 91;
  cfg2.anytime.checkpoint_path = path;
  cfg2.anytime.resume = true;
  const auto r = core::parallel_build_prm(*e, grid, cfg2);
  EXPECT_EQ(r.degradation.resume_status, IoStatus::kFingerprintMismatch);
  EXPECT_EQ(r.degradation.regions_restored, 0u);
  EXPECT_TRUE(r.degradation.complete());
  std::remove(path.c_str());
}

TEST(AnytimePrm, CheckpointRemovedOnceBuildCompletes) {
  const auto e = env::small_cube();
  const auto grid = core::RegionGrid::make_auto(
      e->space().position_bounds(), 27, false);
  const auto path = temp_path("ckpt_removed.bin");
  core::ParallelPrmConfig cfg;
  cfg.total_attempts = 2048;
  cfg.workers = 4;
  cfg.anytime.checkpoint_path = path;
  cfg.anytime.checkpoint_every = 4;  // periodic snapshots during the build
  const auto r = core::parallel_build_prm(*e, grid, cfg);
  EXPECT_TRUE(r.degradation.complete());
  EXPECT_FALSE(r.degradation.checkpoint_written);
  std::ifstream check(path);
  EXPECT_FALSE(check.good()) << "checkpoint left behind after completion";
}

// --- checkpoint/resume determinism (the tentpole property) ------------------

TEST(AnytimePrm, InterruptedAndResumedBuildIsBitIdentical) {
  const auto e = env::med_cube();
  const auto grid = core::RegionGrid::make_auto(
      e->space().position_bounds(), 64, false);
  const std::size_t attempts = 1 << 15;
  const std::uint64_t seed = 101;

  core::ParallelPrmConfig ref_cfg;
  ref_cfg.total_attempts = attempts;
  ref_cfg.workers = 4;
  ref_cfg.seed = seed;
  const auto reference = core::parallel_build_prm(*e, grid, ref_cfg);
  ASSERT_TRUE(reference.degradation.complete());

  // Interrupt at varying points (different deadlines), chaining resumes
  // through the same checkpoint file until the build completes. Whatever
  // subset each interruption leaves behind, the final roadmap must be
  // bit-identical to the uninterrupted reference.
  const auto path = temp_path("ckpt_determinism_prm.bin");
  std::remove(path.c_str());
  const double deadlines_ms[] = {2.0, 10.0, 40.0, 160.0};
  bool complete = false;
  std::size_t restored_total = 0;
  std::size_t runs = 0;
  for (const double d : deadlines_ms) {
    ++runs;
    const runtime::CancelToken token(runtime::Deadline::after_ms(d));
    core::ParallelPrmConfig cfg;
    cfg.total_attempts = attempts;
    cfg.workers = 4;
    cfg.seed = seed;
    cfg.anytime.cancel = &token;
    cfg.anytime.checkpoint_path = path;
    cfg.anytime.checkpoint_every = 4;
    cfg.anytime.resume = true;
    const auto r = core::parallel_build_prm(*e, grid, cfg);
    restored_total += r.degradation.regions_restored;
    if (r.degradation.complete()) {
      complete = true;
      expect_identical_roadmaps(r.roadmap, reference.roadmap);
      expect_identical_stats(r.stats, reference.stats);
      break;
    }
  }
  if (!complete) {
    // Finish without a deadline; resume from whatever the attempts left.
    core::ParallelPrmConfig cfg;
    cfg.total_attempts = attempts;
    cfg.workers = 4;
    cfg.seed = seed;
    cfg.anytime.checkpoint_path = path;
    cfg.anytime.resume = true;
    const auto r = core::parallel_build_prm(*e, grid, cfg);
    ASSERT_TRUE(r.degradation.complete());
    expect_identical_roadmaps(r.roadmap, reference.roadmap);
    expect_identical_stats(r.stats, reference.stats);
  }
  // Unless the whole build fit inside the very first deadline, the chain
  // must have actually restored regions from a checkpoint — otherwise the
  // bit-equivalence property was tested vacuously.
  if (runs > 1 || !complete) {
    EXPECT_GT(restored_total, 0u);
  }
  std::remove(path.c_str());
}

TEST(AnytimeRrt, InterruptedAndResumedBuildIsBitIdentical) {
  const auto e = env::mixed(0.30);
  const core::RadialRegions regions({50, 50, 50}, 45.0, 48, 4, 111, false);
  Xoshiro256ss rng(112);
  const auto root = e->space().at_position({50, 50, 50}, rng);
  const std::size_t nodes = 1 << 13;
  const std::uint64_t seed = 113;

  core::ParallelRrtConfig ref_cfg;
  ref_cfg.total_nodes = nodes;
  ref_cfg.workers = 4;
  ref_cfg.seed = seed;
  const auto reference = core::parallel_build_rrt(*e, regions, root, ref_cfg);
  ASSERT_TRUE(reference.degradation.complete());

  const auto path = temp_path("ckpt_determinism_rrt.bin");
  std::remove(path.c_str());
  const double deadlines_ms[] = {2.0, 10.0, 40.0, 160.0};
  bool complete = false;
  for (const double d : deadlines_ms) {
    const runtime::CancelToken token(runtime::Deadline::after_ms(d));
    core::ParallelRrtConfig cfg;
    cfg.total_nodes = nodes;
    cfg.workers = 4;
    cfg.seed = seed;
    cfg.anytime.cancel = &token;
    cfg.anytime.checkpoint_path = path;
    cfg.anytime.checkpoint_every = 4;
    cfg.anytime.resume = true;
    const auto r = core::parallel_build_rrt(*e, regions, root, cfg);
    if (r.degradation.complete()) {
      complete = true;
      expect_identical_roadmaps(r.roadmap, reference.roadmap);
      expect_identical_stats(r.stats, reference.stats);
      EXPECT_TRUE(graph::is_forest(r.roadmap));
      break;
    }
  }
  if (!complete) {
    core::ParallelRrtConfig cfg;
    cfg.total_nodes = nodes;
    cfg.workers = 4;
    cfg.seed = seed;
    cfg.anytime.checkpoint_path = path;
    cfg.anytime.resume = true;
    const auto r = core::parallel_build_rrt(*e, regions, root, cfg);
    ASSERT_TRUE(r.degradation.complete());
    expect_identical_roadmaps(r.roadmap, reference.roadmap);
    expect_identical_stats(r.stats, reference.stats);
    EXPECT_TRUE(graph::is_forest(r.roadmap));
  }
  std::remove(path.c_str());
}

// --- checkpoint fingerprints ------------------------------------------------

// A build resumes only from a checkpoint whose fingerprint matches its own
// configuration, so the fingerprint of a given configuration must never
// drift: a checkpoint written by an earlier build of the library has to
// keep resuming. These pin the PRM and RRT fingerprints of one fixed
// configuration each, read from the snapshot a pre-cancelled build leaves.
std::uint64_t pinned_fingerprint(const std::string& path,
                                 std::uint32_t kind) {
  const auto ckpt = core::load_checkpoint_file(path);
  std::remove(path.c_str());
  EXPECT_TRUE(ckpt.has_value());
  if (!ckpt) return 0;
  EXPECT_EQ(ckpt->kind, kind);
  EXPECT_TRUE(ckpt->regions.empty());
  return ckpt->fingerprint;
}

TEST(CheckpointFingerprint, PrmIsPinned) {
  const auto e = env::small_cube();
  const auto grid = core::RegionGrid::make_auto(
      e->space().position_bounds(), 27, false);
  const auto path = temp_path("ckpt_fingerprint_prm.bin");
  runtime::CancelToken token;
  token.request_cancel();
  core::ParallelPrmConfig cfg;
  cfg.total_attempts = 2048;
  cfg.workers = 2;
  cfg.seed = 91;
  cfg.anytime.cancel = &token;
  cfg.anytime.checkpoint_path = path;
  const auto r = core::parallel_build_prm(*e, grid, cfg);
  ASSERT_TRUE(r.degradation.checkpoint_written);
  EXPECT_EQ(pinned_fingerprint(path, core::kCheckpointKindPrm),
            7376344903738730875ull);
}

TEST(CheckpointFingerprint, RrtIsPinned) {
  const auto e = env::mixed(0.30);
  const core::RadialRegions regions({50, 50, 50}, 45.0, 48, 4, 111, false);
  Xoshiro256ss rng(112);
  const auto root = e->space().at_position({50, 50, 50}, rng);
  const auto path = temp_path("ckpt_fingerprint_rrt.bin");
  runtime::CancelToken token;
  token.request_cancel();
  core::ParallelRrtConfig cfg;
  cfg.total_nodes = 1 << 13;
  cfg.workers = 2;
  cfg.seed = 113;
  cfg.anytime.cancel = &token;
  cfg.anytime.checkpoint_path = path;
  const auto r = core::parallel_build_rrt(*e, regions, root, cfg);
  ASSERT_TRUE(r.degradation.checkpoint_written);
  EXPECT_EQ(pinned_fingerprint(path, core::kCheckpointKindRrt),
            11215057826940535022ull);
}

// A PRM checkpoint must never resume an RRT build (kind mismatch).
TEST(AnytimeRrt, RefusesPrmCheckpoint) {
  const auto path = temp_path("ckpt_kind_mismatch.bin");
  auto c = sample_checkpoint();  // kind = PRM
  c.num_regions = 32;
  ASSERT_TRUE(core::save_checkpoint_file(c, path));

  const auto e = env::free_env();
  const core::RadialRegions regions({50, 50, 50}, 40.0, 32, 4, 121, false);
  Xoshiro256ss rng(122);
  const auto root = e->space().at_position({50, 50, 50}, rng);
  core::ParallelRrtConfig cfg;
  cfg.total_nodes = 512;
  cfg.workers = 2;
  cfg.anytime.checkpoint_path = path;
  cfg.anytime.resume = true;
  const auto r = core::parallel_build_rrt(*e, regions, root, cfg);
  EXPECT_EQ(r.degradation.resume_status, IoStatus::kFingerprintMismatch);
  EXPECT_EQ(r.degradation.regions_restored, 0u);
  EXPECT_TRUE(r.degradation.complete());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace pmpl
