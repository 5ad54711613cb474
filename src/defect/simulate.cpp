#include "defect/simulate.hpp"

#include <algorithm>

#include "util/parallel.hpp"

namespace dot::defect {

namespace {

/// Defects are sprinkled in fixed blocks of this many spots. Each block
/// draws from its own RNG stream (split from the master seed by block
/// index), so the campaign decomposes into independent work items whose
/// union is a pure function of (seed, defect_count) -- bit-identical at
/// any thread count. Cluster tails are confined to their block, exactly
/// as the former serial loop confined them to the campaign tail.
constexpr std::size_t kSprinkleBlock = 8192;

/// Partial campaign over one block; merged in block order afterwards.
struct BlockResult {
  std::size_t faults_extracted = 0;
  std::array<std::size_t, fault::kFaultKindCount> faults_by_kind{};
  std::array<std::size_t, kDefectTypeCount> defects_by_type{};
  std::array<std::size_t, kDefectTypeCount> faulting_by_type{};
  /// Collapsed classes in first-occurrence order plus their keys (kept
  /// so the merge does not recompute fault::CircuitFault::key()).
  std::vector<fault::FaultClass> classes;
  std::vector<std::string> keys;
};

/// What every block of one sprinkle shares: the sampler, and per defect
/// type the size variate below which a spot is narrower than its
/// layer's net spacing (DefectAnalyzer::harmless_below).
struct Sprinkle {
  layout::Rect area;
  DefectSampler sample;
  std::array<double, kDefectTypeCount> harmless_variate{};

  Sprinkle(const DefectAnalyzer& analyzer, const DefectStatistics& stats)
      : area(analyzer.cell().bounding_box()), sample(stats, area) {
    for (std::size_t t = 0; t < harmless_variate.size(); ++t)
      harmless_variate[t] = sample.variate_below(
          analyzer.harmless_below(static_cast<DefectType>(t)));
  }
};

BlockResult sprinkle_block(const DefectAnalyzer& analyzer,
                           const CampaignOptions& options,
                           const Sprinkle& sprinkle, std::size_t block_index,
                           std::size_t budget) {
  util::Rng rng = util::Rng(options.seed).split(block_index);
  const layout::Rect& area = sprinkle.area;
  const auto& clustering = options.statistics.clustering;

  BlockResult result;
  std::unordered_map<std::string, std::size_t> class_index;
  // Cluster members waiting to be sprinkled; they count against the
  // block's defect budget like any other spot, and inherit the seed's
  // defect type (a scratch is all extra-metal, a splash all one
  // material).
  struct PendingMember {
    layout::Point at;
    DefectType type;
  };
  std::vector<PendingMember> pending_cluster;
  for (std::size_t n = 0; n < budget; ++n) {
    const SpotDraw spot = sprinkle.sample.draw(rng);
    Defect defect{spot.type, spot.center};
    if (!pending_cluster.empty()) {
      defect.center = pending_cluster.back().at;
      defect.type = pending_cluster.back().type;
      pending_cluster.pop_back();
    } else if (clustering.enabled() &&
               rng.chance(clustering.cluster_fraction)) {
      // Geometric number of additional spots around this seed.
      while (rng.chance(clustering.mean_extra /
                        (clustering.mean_extra + 1.0))) {
        layout::Point member{
            defect.center.x + rng.normal(0.0, clustering.radius),
            defect.center.y + rng.normal(0.0, clustering.radius)};
        member.x = std::clamp(member.x, area.x_lo, area.x_hi);
        member.y = std::clamp(member.y, area.y_lo, area.y_hi);
        pending_cluster.push_back({member, defect.type});
      }
    }
    const auto type = static_cast<std::size_t>(defect.type);
    ++result.defects_by_type[type];
    // A spot narrower than its layer's net spacing bridges nothing:
    // settle it before its size is computed or the grid is queried.
    if (spot.size_variate < sprinkle.harmless_variate[type]) continue;
    defect.size = sprinkle.sample.size_of(spot.size_variate);
    const auto fault = analyzer.analyze(defect);
    if (!fault) continue;
    ++result.faults_extracted;
    ++result.faulting_by_type[type];
    ++result.faults_by_kind[static_cast<std::size_t>(fault->kind)];
    std::string key = fault->key();
    auto [it, inserted] = class_index.emplace(key, result.classes.size());
    if (inserted) {
      result.classes.push_back(fault::FaultClass{*fault, 1});
      result.keys.push_back(std::move(key));
    } else {
      ++result.classes[it->second].count;
    }
  }
  return result;
}

}  // namespace

CampaignResult run_campaign(const layout::CellLayout& cell,
                            const CampaignOptions& options) {
  AnalyzerOptions analyzer_options;
  analyzer_options.vdd_net = options.vdd_net;
  const DefectAnalyzer analyzer(cell, analyzer_options);
  return run_campaign(analyzer, options);
}

CampaignResult run_campaign(const DefectAnalyzer& analyzer,
                            const CampaignOptions& options) {
  CampaignResult result;
  result.defects_sprinkled = options.defect_count;

  const std::size_t blocks =
      (options.defect_count + kSprinkleBlock - 1) / kSprinkleBlock;
  const Sprinkle sprinkle(analyzer, options.statistics);
  // One RNG stream per block: the analyzer is read-only, so blocks run
  // concurrently; the merge below walks them in index order, which
  // keeps class first-occurrence order (and therefore tie-breaks of
  // the final sort) independent of scheduling.
  const auto partials =
      util::parallel_map(blocks, [&](std::size_t block) {
        const std::size_t lo = block * kSprinkleBlock;
        const std::size_t budget =
            std::min(options.defect_count - lo, kSprinkleBlock);
        return sprinkle_block(analyzer, options, sprinkle, block, budget);
      });

  std::unordered_map<std::string, std::size_t> class_index;
  for (const auto& partial : partials) {
    result.faults_extracted += partial.faults_extracted;
    for (std::size_t k = 0; k < partial.faults_by_kind.size(); ++k)
      result.faults_by_kind[k] += partial.faults_by_kind[k];
    for (std::size_t t = 0; t < partial.defects_by_type.size(); ++t) {
      result.defects_by_type[t] += partial.defects_by_type[t];
      result.faulting_by_type[t] += partial.faulting_by_type[t];
    }
    for (std::size_t c = 0; c < partial.classes.size(); ++c) {
      auto [it, inserted] =
          class_index.emplace(partial.keys[c], result.classes.size());
      if (inserted)
        result.classes.push_back(partial.classes[c]);
      else
        result.classes[it->second].count += partial.classes[c].count;
    }
  }

  for (const auto& cls : result.classes)
    ++result.classes_by_kind[static_cast<std::size_t>(
        cls.representative.kind)];

  std::stable_sort(result.classes.begin(), result.classes.end(),
                   [](const fault::FaultClass& a, const fault::FaultClass& b) {
                     return a.count > b.count;
                   });
  return result;
}

}  // namespace dot::defect
