#include <gtest/gtest.h>

#include <iterator>
#include <sstream>

#include "defect/simulate.hpp"
#include "flashadc/biasgen.hpp"
#include "flashadc/comparator.hpp"
#include "layout/cell_io.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace dot::layout {
namespace {

TEST(CellIo, RoundTripComparator) {
  const CellLayout original = flashadc::build_comparator_layout();
  const std::string text1 = to_text(original);
  const CellLayout reparsed = parse_text(text1);
  EXPECT_EQ(to_text(reparsed), text1);
  EXPECT_EQ(reparsed.name(), original.name());
  EXPECT_EQ(reparsed.shapes().size(), original.shapes().size());
  EXPECT_EQ(reparsed.taps().size(), original.taps().size());
  EXPECT_EQ(reparsed.mos_regions().size(), original.mos_regions().size());
  EXPECT_EQ(reparsed.nwells().size(), original.nwells().size());
  EXPECT_NEAR(reparsed.area(), original.area(), 1e-6);
}

TEST(CellIo, ReparsedCellGivesIdenticalCampaign) {
  // The serialized geometry must drive the defect simulator to the
  // exact same results as the in-memory original.
  const CellLayout original = flashadc::build_biasgen_layout();
  const CellLayout reparsed = parse_text(to_text(original));
  defect::CampaignOptions opt;
  opt.defect_count = 40000;
  opt.seed = 3;
  const auto a = defect::run_campaign(original, opt);
  const auto b = defect::run_campaign(reparsed, opt);
  EXPECT_EQ(a.faults_extracted, b.faults_extracted);
  ASSERT_EQ(a.classes.size(), b.classes.size());
  for (std::size_t i = 0; i < a.classes.size(); ++i)
    EXPECT_EQ(a.classes[i].representative.key(),
              b.classes[i].representative.key());
}

TEST(CellIo, CommentsAndErrors) {
  const CellLayout cell = parse_text(
      "# a comment\n"
      "cell tiny\n"
      "shape metal1 0 0 2 1.2 a  # trailing comment\n"
      "tap a pin 0 1 0.6 metal1\n");
  EXPECT_EQ(cell.name(), "tiny");
  EXPECT_EQ(cell.shapes().size(), 1u);

  EXPECT_THROW(parse_text("shape weird 0 0 1 1 a\n"),
               util::InvalidInputError);
  EXPECT_THROW(parse_text("shape metal1 0 0\n"), util::InvalidInputError);
  EXPECT_THROW(parse_text("frob 1 2 3\n"), util::InvalidInputError);
  EXPECT_THROW(parse_text("shape metal1 0 0 x 1 a\n"),
               util::InvalidInputError);
  // Non-finite coordinates parse as numbers but are not geometry.
  EXPECT_THROW(parse_text("cell t\nshape metal1 0 0 inf 1 a\n"),
               util::InvalidInputError);
  EXPECT_THROW(parse_text("cell t\nshape metal1 0 0 nan 1 a\n"),
               util::InvalidInputError);
}

// Fixed-seed mutation fuzz of the reader: every mutant of a serialized
// comparator cell either parses or is rejected with InvalidInputError.
TEST(CellIo, MutantsParseOrThrowInvalidInput) {
  const std::string text = to_text(flashadc::build_comparator_layout());
  std::vector<std::string> lines;
  for (std::size_t at = 0; at < text.size();) {
    const std::size_t end = text.find('\n', at);
    lines.push_back(text.substr(at, end - at + 1));
    at = end + 1;
  }
  const char* const kOddNumbers[] = {"inf", "-inf", "nan", "1e999", "-1e30",
                                     "0x1p3", "3e9"};
  util::Rng rng(1234);
  int rejected = 0;
  constexpr int kMutants = 400;
  for (int m = 0; m < kMutants; ++m) {
    std::string mutant;
    switch (m % 4) {
      case 0:  // byte flips
        mutant = text;
        for (int k = 1 + static_cast<int>(rng.below(4)); k > 0; --k)
          mutant[rng.below(mutant.size())] ^=
              static_cast<char>(1u << rng.below(8));
        break;
      case 1:  // truncation
        mutant = text.substr(0, rng.below(text.size()));
        break;
      case 2: {  // a duplicated line
        const std::size_t dup = rng.below(lines.size());
        for (std::size_t l = 0; l < lines.size(); ++l) {
          mutant += lines[l];
          if (l == dup) mutant += lines[l];
        }
        break;
      }
      default: {  // one field of one line replaced by an odd number
        const std::size_t hit = rng.below(lines.size());
        for (std::size_t l = 0; l < lines.size(); ++l) {
          if (l != hit) {
            mutant += lines[l];
            continue;
          }
          std::istringstream fields(lines[l]);
          std::vector<std::string> tokens;
          for (std::string tok; fields >> tok;) tokens.push_back(tok);
          tokens[1 + rng.below(tokens.size() - 1)] =
              kOddNumbers[rng.below(std::size(kOddNumbers))];
          for (const auto& tok : tokens) mutant += tok + ' ';
          mutant += '\n';
        }
        break;
      }
    }
    try {
      (void)parse_text(mutant);
    } catch (const util::InvalidInputError&) {
      ++rejected;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "mutant " << m << " threw " << e.what();
    }
  }
  // Both outcomes occur, so the fuzz reaches past the first line.
  EXPECT_GT(rejected, 0);
  EXPECT_LT(rejected, kMutants);
}

}  // namespace
}  // namespace dot::layout
