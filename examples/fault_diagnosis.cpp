// Fault-dictionary diagnosis: the downstream use of a defect-oriented
// campaign. The fault simulation results double as a dictionary mapping
// observed test syndromes (which tests failed) back to candidate
// defects, ranked by likelihood -- where failure analysis should look
// first.
//
// Usage: fault_diagnosis [--quick]
#include <cstdio>
#include <cstring>

#include "flashadc/campaign.hpp"
#include "macro/diagnosis.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace dot;

  flashadc::CampaignConfig config;
  config.defect_count = 150000;
  config.envelope_samples = 15;
  config.max_classes = 120;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      config.defect_count = 50000;
      config.max_classes = 40;
    } else {
      const bool help = std::strcmp(argv[i], "--help") == 0;
      if (!help)
        std::fprintf(stderr, "%s: unknown argument '%s'\n", argv[0], argv[i]);
      std::fprintf(stderr, "usage: %s [--quick]\n", argv[0]);
      return help ? 0 : 2;
    }
  }

  std::printf("building the fault dictionary from a comparator campaign "
              "(%zu defects)...\n",
              config.defect_count);
  const auto campaign = flashadc::run_macro_campaign(config, "comparator");

  macro::FaultDictionary dictionary;
  for (const auto& outcome : campaign.catastrophic)
    dictionary.add(outcome.cls, outcome.detection);
  const auto res = dictionary.resolution();
  std::printf("dictionary: %zu fault classes across %d distinct syndromes; "
              "expected posterior of the true fault %.2f\n\n",
              dictionary.size(), res.distinct_syndromes,
              res.expected_posterior);

  // Play tester: draw "failing devices" by sampling fault classes by
  // likelihood, observe their syndromes, diagnose, and score how often
  // the true fault ranks first / in the top three.
  util::Rng rng(77);
  std::vector<double> weights;
  for (const auto& o : campaign.catastrophic)
    weights.push_back(static_cast<double>(o.cls.count));
  int rank1 = 0, top3 = 0, trials = 400;
  for (int t = 0; t < trials; ++t) {
    const auto& truth = campaign.catastrophic[rng.weighted(weights)];
    macro::Syndrome observed;
    observed.missing_code = truth.detection.missing_code;
    observed.ivdd = truth.detection.ivdd;
    observed.iddq = truth.detection.iddq;
    observed.iinput = truth.detection.iinput;
    const auto candidates = dictionary.diagnose(observed, 3);
    for (std::size_t rank = 0; rank < candidates.size(); ++rank) {
      if (candidates[rank].fault.key() == truth.cls.representative.key()) {
        if (rank == 0) ++rank1;
        ++top3;
        break;
      }
    }
  }
  util::TextTable table({"metric", "value"});
  table.add_row({"true fault ranked #1",
                 util::pct(static_cast<double>(rank1) / trials) + " %"});
  table.add_row({"true fault in top 3",
                 util::pct(static_cast<double>(top3) / trials) + " %"});
  std::printf("%s\n", table.str().c_str());

  // Show one concrete diagnosis: the famous IDDQ-only syndrome.
  macro::Syndrome iddq_only;
  iddq_only.iddq = true;
  const auto candidates = dictionary.diagnose(iddq_only, 5);
  std::printf("diagnosis for syndrome {IDDQ only} -- %zu candidates:\n",
              candidates.size());
  for (const auto& c : candidates) {
    std::string nets;
    for (const auto& net : c.fault.nets) nets += net + " ";
    std::printf("  p=%.2f  %-20s nets: %s%s\n", c.posterior,
                fault::fault_kind_name(c.fault.kind).c_str(), nets.c_str(),
                c.fault.device.empty() ? "" :
                    ("device: " + c.fault.device).c_str());
  }
  std::printf("\nthe IDDQ-only bucket is dominated by shorts onto the clock\n"
              "distribution lines -- the paper's section 4 observation that\n"
              "'many faults disturb the boundary between analog and\n"
              "digital' made actionable for failure analysis.\n");
  return 0;
}
