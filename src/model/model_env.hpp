#pragma once
/// \file model_env.hpp
/// The paper's theoretical model (§IV-B, Fig 4): a 2D unit workspace with
/// one centered square obstacle, subdivided into an n x n region mesh.
///
/// Per-region free area V_free is computed *analytically* (box-box overlap),
/// so the load a region experiences (∝ V_free) is exact. From it we derive:
///  - the coefficient of variation under the naive column mapping
///    ("model imbalance"),
///  - the CV under the best partition a greedy global algorithm finds,
///    ignoring edge cuts ("model improvement" — exact balance is
///    NP-complete),
///  - the bound on the reduction of the most-loaded processor's V_free that
///    *any* load balancing technique can achieve ("theoretical (unit
///    area)" in Fig 4b).

#include <cstdint>
#include <vector>

#include "geometry/shapes.hpp"

namespace pmpl::model {

/// Analytic model environment.
class ModelEnvironment {
 public:
  /// Unit square with a centered square obstacle of area
  /// `blocked_fraction`, subdivided into `grid_side` x `grid_side` regions.
  ModelEnvironment(double blocked_fraction, std::uint32_t grid_side);

  std::uint32_t grid_side() const noexcept { return side_; }
  std::size_t num_regions() const noexcept { return vfree_.size(); }
  double blocked_fraction() const noexcept { return blocked_; }

  /// Per-processor V_free under the naive mapping (contiguous blocks of
  /// region columns).
  std::vector<double> naive_load(std::uint32_t procs) const;

  /// Per-processor V_free under the greedy (LPT) best-balance partition.
  std::vector<double> best_load(std::uint32_t procs) const;

  /// CV of the naive mapping ("model imbalance", Fig 4a).
  double cv_naive(std::uint32_t procs) const;

  /// CV of the greedy best partition ("model improvement", Fig 4a).
  double cv_best(std::uint32_t procs) const;

  /// Percentage reduction of the most-loaded processor's V_free achievable
  /// by the best partition: the Fig 4b "theoretical (unit area)" series.
  double max_load_improvement_pct(std::uint32_t procs) const;

 private:
  double blocked_;
  std::uint32_t side_;
  std::vector<double> vfree_;
};

}  // namespace pmpl::model
