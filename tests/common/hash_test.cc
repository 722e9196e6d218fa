#include "common/hash.h"

#include <gtest/gtest.h>

namespace mbp {
namespace {

// Published FNV-1a known answers. Wire checksums, WAL frames, ring points
// and training-set seeds are all keyed on these exact functions.
TEST(HashTest, Fnv1a64MatchesPublishedVectors) {
  EXPECT_EQ(Fnv1a64(""), 0xcbf29ce484222325ull);
  EXPECT_EQ(Fnv1a64("a"), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(Fnv1a64("foobar"), 0x85944171f73967e8ull);
}

TEST(HashTest, Fnv1a32MatchesPublishedVectors) {
  EXPECT_EQ(Fnv1a32("", 0), 0x811c9dc5u);
  EXPECT_EQ(Fnv1a32("a", 1), 0xe40c292cu);
  EXPECT_EQ(Fnv1a32("foobar", 6), 0xbf9cf968u);
}

}  // namespace
}  // namespace mbp
