// Robustness ("fuzz-lite") tests: every file reader in the library must
// return a Status on arbitrary malformed input — never crash, never
// accept garbage as valid data. Inputs are random byte soups, random
// printable soups, and truncations/mutations of valid files.

#include <fstream>
#include <string>

#include <gtest/gtest.h>

#include "core/ledger.h"
#include "data/csv.h"
#include "io/model_io.h"
#include "random/rng.h"

namespace mbp {
namespace {

class ReaderFuzzTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  std::string WriteContent(const std::string& name,
                           const std::string& content) {
    const std::string path = testing::TempDir() + "/" + name;
    std::ofstream out(path, std::ios::binary);
    out << content;
    return path;
  }

  // Random bytes including NULs and newlines.
  std::string RandomBytes(random::Rng& rng, size_t length) {
    std::string out(length, '\0');
    for (char& c : out) {
      c = static_cast<char>(rng.NextBounded(256));
    }
    return out;
  }

  // Random printable soup with structure-ish characters.
  std::string RandomPrintable(random::Rng& rng, size_t length) {
    static constexpr char kAlphabet[] =
        "abcdefghij0123456789 .,-+eE\n\r\t";
    std::string out(length, ' ');
    for (char& c : out) {
      c = kAlphabet[rng.NextBounded(sizeof(kAlphabet) - 1)];
    }
    return out;
  }
};

TEST_P(ReaderFuzzTest, AllReadersSurviveRandomBytes) {
  random::Rng rng(GetParam());
  const std::string path = WriteContent(
      "fuzz_bytes_" + std::to_string(GetParam()),
      RandomBytes(rng, 64 + rng.NextBounded(512)));
  // Every reader must return (not crash); garbage must not parse as OK
  // except ReadCsv, which can legitimately accept numeric soups.
  EXPECT_FALSE(io::ReadModel(path).ok());
  EXPECT_FALSE(io::ReadPricing(path).ok());
  EXPECT_FALSE(core::TransactionLedger::LoadFrom(path).ok());
  (void)data::ReadCsv(path);
}

TEST_P(ReaderFuzzTest, AllReadersSurvivePrintableSoup) {
  random::Rng rng(GetParam() ^ 0xBEEF);
  const std::string path = WriteContent(
      "fuzz_text_" + std::to_string(GetParam()),
      RandomPrintable(rng, 64 + rng.NextBounded(512)));
  EXPECT_FALSE(io::ReadModel(path).ok());
  EXPECT_FALSE(io::ReadPricing(path).ok());
  EXPECT_FALSE(core::TransactionLedger::LoadFrom(path).ok());
  (void)data::ReadCsv(path);
}

TEST_P(ReaderFuzzTest, TruncatedValidModelNeverCrashes) {
  // Build a valid model file, truncate at a random byte.
  const ml::LinearModel model(ml::ModelKind::kLinearSvm,
                              linalg::Vector{1.5, -2.5, 3.25});
  // Seed-keyed name: the parameterized instances run as concurrent
  // processes under ctest -j, and a shared fixed path races (a reader can
  // see another instance's half-written file).
  const std::string full_path = testing::TempDir() + "/fuzz_full_model_" +
                                std::to_string(GetParam()) + ".mbp";
  ASSERT_TRUE(io::WriteModel(model, full_path).ok());
  std::ifstream in(full_path);
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  random::Rng rng(GetParam() ^ 0xCAFE);
  const size_t cut = rng.NextBounded(content.size());
  const std::string path = WriteContent(
      "fuzz_trunc_" + std::to_string(GetParam()), content.substr(0, cut));
  auto result = io::ReadModel(path);
  if (result.ok()) {
    // Only acceptable if the truncation kept the whole logical payload.
    EXPECT_EQ(result->num_features(), 3u);
  }
}

TEST_P(ReaderFuzzTest, MutatedValidPricingNeverCrashes) {
  auto pricing = core::PiecewiseLinearPricing::Create(
      {{1.0, 5.0}, {2.0, 8.0}, {4.0, 12.0}});
  ASSERT_TRUE(pricing.ok());
  const std::string full_path = testing::TempDir() + "/fuzz_full_pricing_" +
                                std::to_string(GetParam()) + ".mbp";
  ASSERT_TRUE(io::WritePricing(*pricing, full_path).ok());
  std::ifstream in(full_path);
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  random::Rng rng(GetParam() ^ 0xF00D);
  // Flip a handful of characters.
  for (int i = 0; i < 5; ++i) {
    content[rng.NextBounded(content.size())] =
        static_cast<char>('0' + rng.NextBounded(75));
  }
  const std::string path = WriteContent(
      "fuzz_mut_" + std::to_string(GetParam()), content);
  auto result = io::ReadPricing(path);
  if (result.ok()) {
    // Whatever parsed must still satisfy the structural invariants.
    double prev_x = 0.0;
    for (const core::PricePoint& point : result->points()) {
      EXPECT_GT(point.x, prev_x);
      EXPECT_GE(point.price, 0.0);
      prev_x = point.x;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReaderFuzzTest,
                         ::testing::Range<uint64_t>(1, 26));

}  // namespace
}  // namespace mbp
