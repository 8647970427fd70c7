// Length-mixture distributions (src/data/mixture.h): component weights are
// normalized and a zero-weight component contributes no mass.
#include <gtest/gtest.h>

#include "src/data/distribution.h"
#include "src/data/mixture.h"

namespace zeppelin {
namespace {

TEST(MixtureTest, MixtureNormalizesComponents) {
  const LengthDistribution mix = MakeMixtureDistribution(
      "m", {{"stackexchange", 1.0}, {"prolong64k", 1.0}});
  // Half the mass from each: the 32-64k bin gets ~half of prolong's 0.673
  // normalized share.
  const double share = mix.MassInRange(32768, 65536);
  EXPECT_NEAR(share, 0.5 * 0.673 / 1.0, 0.05);
}

TEST(MixtureTest, PretrainMixtureIsShortDominatedWithLongTail) {
  const LengthDistribution mix = MakePretrainMixture();
  EXPECT_GT(mix.MassInRange(0, 2048), 0.5);
  EXPECT_GT(mix.MassInRange(32768, 262144), 0.01);
  EXPECT_EQ(mix.MaxLength(), 262143);  // GitHub's tail survives the blend.
}

TEST(MixtureTest, ZeroWeightComponentVanishes) {
  const LengthDistribution mix =
      MakeMixtureDistribution("m", {{"stackexchange", 1.0}, {"prolong64k", 0.0}});
  EXPECT_NEAR(mix.MassInRange(32768, 65536), 0.001, 0.0015);
}

}  // namespace
}  // namespace zeppelin
