// Tests for the tournament tree topology (Section 3.2.2) and Feige's
// lightest-bin election (Section 3.3, Lemma 4).
#include <gtest/gtest.h>

#include <set>

#include "adversary/strategies.h"
#include "election/feige.h"
#include "tree/tournament_tree.h"

namespace ba {
namespace {

TreeParams small_params(std::size_t n = 64, std::size_t q = 4) {
  TreeParams p;
  p.n = n;
  p.q = q;
  p.k1 = 8;
  p.d_up = 9;
  p.d_link = 4;
  return p;
}

TEST(Tree, LevelStructure) {
  Rng rng(1);
  TournamentTree tree(small_params(64, 4), rng);
  // 64 -> 16 -> 4 -> 1: four levels.
  EXPECT_EQ(tree.num_levels(), 4u);
  EXPECT_EQ(tree.nodes_at(1), 64u);
  EXPECT_EQ(tree.nodes_at(2), 16u);
  EXPECT_EQ(tree.nodes_at(3), 4u);
  EXPECT_EQ(tree.nodes_at(4), 1u);
}

TEST(Tree, RaggedSizesRoundUp) {
  Rng rng(2);
  TournamentTree tree(small_params(100, 4), rng);
  EXPECT_EQ(tree.nodes_at(1), 100u);
  EXPECT_EQ(tree.nodes_at(2), 25u);
  // 7 < 4q: the root absorbs all seven level-3 nodes directly, so the
  // root agreement gets 7 * w candidates (coin rounds).
  EXPECT_EQ(tree.nodes_at(3), 7u);
  EXPECT_EQ(tree.num_levels(), 4u);
  EXPECT_EQ(tree.node(4, 0).children.size(), 7u);
}

TEST(Tree, MembershipSizesGrowGeometrically) {
  Rng rng(3);
  TournamentTree tree(small_params(64, 4), rng);
  EXPECT_EQ(tree.node(1, 0).members.size(), 8u);
  EXPECT_EQ(tree.node(2, 0).members.size(), 32u);
  EXPECT_EQ(tree.node(3, 0).members.size(), 64u);  // capped at n
  EXPECT_EQ(tree.node(4, 0).members.size(), 64u);  // root: everyone
}

TEST(Tree, MembersAreDistinctProcessors) {
  Rng rng(4);
  TournamentTree tree(small_params(64, 4), rng);
  for (std::size_t lvl = 1; lvl <= tree.num_levels(); ++lvl) {
    for (std::size_t i = 0; i < tree.nodes_at(lvl); ++i) {
      const auto& m = tree.node(lvl, i).members;
      std::set<std::uint32_t> set(m.begin(), m.end());
      EXPECT_EQ(set.size(), m.size());
      for (auto p : set) EXPECT_LT(p, 64u);
    }
  }
}

TEST(Tree, RootContainsEveryProcessorInOrder) {
  Rng rng(5);
  TournamentTree tree(small_params(64, 4), rng);
  const auto& root = tree.node(tree.num_levels(), 0).members;
  ASSERT_EQ(root.size(), 64u);
  for (std::size_t p = 0; p < 64; ++p) EXPECT_EQ(root[p], p);
}

TEST(Tree, ParentChildConsistency) {
  Rng rng(6);
  TournamentTree tree(small_params(64, 4), rng);
  for (std::size_t lvl = 1; lvl < tree.num_levels(); ++lvl) {
    for (std::size_t i = 0; i < tree.nodes_at(lvl); ++i) {
      const auto& nd = tree.node(lvl, i);
      ASSERT_NE(nd.parent, SIZE_MAX);
      const auto& parent = tree.node(lvl + 1, nd.parent);
      EXPECT_TRUE(std::find(parent.children.begin(), parent.children.end(),
                            i) != parent.children.end());
    }
  }
}

TEST(Tree, LeafRangesPartition) {
  Rng rng(7);
  TournamentTree tree(small_params(64, 4), rng);
  for (std::size_t lvl = 2; lvl <= tree.num_levels(); ++lvl) {
    std::size_t covered = 0;
    for (std::size_t i = 0; i < tree.nodes_at(lvl); ++i) {
      const auto& nd = tree.node(lvl, i);
      EXPECT_EQ(nd.leaf_begin, covered);
      covered = nd.leaf_end;
    }
    EXPECT_EQ(covered, 64u);
  }
}

TEST(Tree, UplinksPositionalAndInRange) {
  Rng rng(8);
  TournamentTree tree(small_params(64, 4), rng);
  for (std::size_t lvl = 1; lvl < tree.num_levels(); ++lvl) {
    const auto& up = tree.uplinks(lvl);
    const std::size_t k_child = tree.node(lvl, 0).members.size();
    const std::size_t k_parent = tree.node(lvl + 1, 0).members.size();
    EXPECT_EQ(up.domain_size(), k_child);
    for (std::size_t pos = 0; pos < k_child; ++pos) {
      std::set<std::uint32_t> set(up.at(pos).begin(), up.at(pos).end());
      EXPECT_EQ(set.size(), up.at(pos).size());  // distinct
      for (auto t : set) EXPECT_LT(t, k_parent);
    }
  }
}

TEST(Tree, EllLinksPointIntoSubtree) {
  Rng rng(9);
  TournamentTree tree(small_params(64, 4), rng);
  for (std::size_t lvl = 2; lvl <= tree.num_levels(); ++lvl) {
    for (std::size_t i = 0; i < tree.nodes_at(lvl); ++i) {
      const auto& nd = tree.node(lvl, i);
      ASSERT_EQ(nd.ell.size(), nd.members.size());
      for (const auto& links : nd.ell) {
        EXPECT_GE(links.size(), 1u);
        for (auto leaf : links) {
          EXPECT_GE(leaf, nd.leaf_begin);
          EXPECT_LT(leaf, nd.leaf_end);
        }
      }
    }
  }
}

TEST(Tree, GoodFractionAndGoodNodes) {
  Rng rng(10);
  TournamentTree tree(small_params(64, 4), rng);
  std::vector<bool> corrupt(64, false);
  EXPECT_DOUBLE_EQ(tree.good_member_fraction(2, 0, corrupt), 1.0);
  EXPECT_TRUE(tree.is_good_node(2, 0, corrupt, 2.0 / 3.0));
  for (std::size_t p = 0; p < 64; ++p) corrupt[p] = true;
  EXPECT_DOUBLE_EQ(tree.good_member_fraction(2, 0, corrupt), 0.0);
}

TEST(Tree, RejectsBadParams) {
  Rng rng(11);
  TreeParams p = small_params();
  p.q = 1;
  EXPECT_THROW(TournamentTree(p, rng), std::logic_error);
  p = small_params();
  p.n = 1;
  EXPECT_THROW(TournamentTree(p, rng), std::logic_error);
}

// ------------------------------------------------------------ election --

TEST(Election, ParamsDeriveBinsAndBits) {
  ElectionParams ep{16, 2};
  EXPECT_EQ(ep.num_bins(), 8u);
  EXPECT_EQ(ep.bits_per_bin(), 3u);
  ElectionParams tight{4, 2};
  EXPECT_EQ(tight.num_bins(), 2u);
  EXPECT_EQ(tight.bits_per_bin(), 1u);
  ElectionParams degenerate{3, 2};
  EXPECT_EQ(degenerate.num_bins(), 2u);  // floor would be 1; clamped
}

TEST(Election, LightestBinWins) {
  ElectionParams ep{6, 2};
  // bins: 0 -> {c0, c1, c2}, 1 -> {c3}, 2 -> {c4, c5}; lightest = bin 1.
  std::vector<std::uint32_t> bins{0, 0, 0, 1, 2, 2};
  auto w = lightest_bin_winners(bins, ep);
  ASSERT_EQ(w.size(), 2u);
  // The bin-1 candidate (3) wins; the set is padded with the first
  // omitted index (0) and reported sorted.
  EXPECT_EQ(w[0], 0u);
  EXPECT_EQ(w[1], 3u);
}

TEST(Election, TruncatesToNumWinners) {
  ElectionParams ep{6, 2};
  std::vector<std::uint32_t> bins{1, 1, 1, 0, 0, 0};
  // Both bins have 3; tie broken toward bin 0 -> candidates 3,4,5; keep 2.
  auto w = lightest_bin_winners(bins, ep);
  ASSERT_EQ(w.size(), 2u);
  EXPECT_EQ(w[0], 3u);
  EXPECT_EQ(w[1], 4u);
}

TEST(Election, EmptyBinsIgnored) {
  ElectionParams ep{4, 2};
  std::vector<std::uint32_t> bins{1, 1, 1, 1};  // bin 0 empty
  auto w = lightest_bin_winners(bins, ep);
  ASSERT_EQ(w.size(), 2u);
  EXPECT_EQ(w[0], 0u);
  EXPECT_EQ(w[1], 1u);
}

TEST(Election, OutOfRangeBinsFoldedIn) {
  ElectionParams ep{4, 2};
  std::vector<std::uint32_t> bins{7, 5, 0, 1};  // folded mod 2 -> 1,1,0,1
  auto w = lightest_bin_winners(bins, ep);
  ASSERT_EQ(w.size(), 2u);
  // Candidate 2 (the only bin-0 pick) wins, padded with index 0, sorted.
  EXPECT_EQ(w[0], 0u);
  EXPECT_EQ(w[1], 2u);
}

TEST(Election, BinChoiceFromWordIsUniformish) {
  Rng rng(12);
  std::size_t counts[4] = {};
  for (int i = 0; i < 40000; ++i)
    ++counts[bin_choice_from_word(rng.next(), 4)];
  for (auto c : counts) EXPECT_NEAR(c, 10000, 800);
}

TEST(Election, RejectsMismatchedSizes) {
  ElectionParams ep{4, 2};
  std::vector<std::uint32_t> bins{0, 1};
  EXPECT_THROW(lightest_bin_winners(bins, ep), std::logic_error);
}

/// Good-winner fraction of `trials` Feige elections over r candidates:
/// the first 2r/3 bin choices honest-random, the rest placed by `attack`
/// after seeing them (Lemma 4's setting).
std::vector<double> good_winner_fractions(
    std::size_t r, std::size_t w, decltype(&bins_with_stuffing) attack,
    int trials, std::uint64_t seed) {
  const std::size_t good = 2 * r / 3;
  ElectionParams ep{r, w};
  Rng rng(seed);
  std::vector<double> out;
  for (int trial = 0; trial < trials; ++trial) {
    std::vector<std::uint32_t> gbins(good);
    for (auto& b : gbins)
      b = static_cast<std::uint32_t>(rng.below(ep.num_bins()));
    auto winners =
        lightest_bin_winners(attack(gbins, r - good, ep.num_bins()), ep);
    std::size_t good_winners = 0;
    for (auto c : winners) good_winners += c < good ? 1 : 0;
    out.push_back(static_cast<double>(good_winners) /
                  static_cast<double>(winners.size()));
  }
  return out;
}

// Lemma 4 (statistical): the fraction of good winners stays near the good
// fraction on average. Stuffing the lightest bin always places the
// adversary among the winners but cannot push good winners below a
// constant fraction (|S|/r - theta); spreading buys it nothing.
TEST(Election, GoodWinnerFractionSurvivesStuffing) {
  for (auto [attack, floor] : {std::pair{bins_with_stuffing, 0.35},
                               std::pair{bins_with_spread, 0.6}}) {
    const auto fractions = good_winner_fractions(64, 8, attack, 400, 13);
    double sum = 0;
    for (double f : fractions) sum += f;
    EXPECT_GT(sum / static_cast<double>(fractions.size()), floor);
  }
}

// Lemma 4's failure exponent is 2|S| / (3 numBins), the honest bin load:
// at r = 512 under stuffing, the rate at which good winners fall below
// |S|/r - 0.15 shrinks as the load grows (fewer winners, fuller bins).
TEST(Election, FailRateFallsAsBinLoadRises) {
  std::vector<double> fail_rates;
  for (std::size_t w : {4u, 16u, 128u}) {  // bin load 2.7, 10.7, 85.3
    const auto fractions =
        good_winner_fractions(512, w, bins_with_stuffing, 800, 31 + w);
    double fails = 0;
    for (double f : fractions) fails += f < 2.0 / 3.0 - 0.15 ? 1 : 0;
    fail_rates.push_back(fails / static_cast<double>(fractions.size()));
  }
  EXPECT_GT(fail_rates[0], fail_rates[1]);
  EXPECT_GT(fail_rates[1], fail_rates[2]);
  EXPECT_LT(fail_rates[2], 0.05);
}

class ElectionGrid
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {};

TEST_P(ElectionGrid, WinnerCountAlwaysExact) {
  const auto [r, w] = GetParam();
  Rng rng(14 + r + w);
  ElectionParams ep{r, w};
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<std::uint32_t> bins(r);
    for (auto& b : bins)
      b = static_cast<std::uint32_t>(rng.below(ep.num_bins()));
    auto winners = lightest_bin_winners(bins, ep);
    EXPECT_EQ(winners.size(), w);
    std::set<std::uint32_t> set(winners.begin(), winners.end());
    EXPECT_EQ(set.size(), w);  // distinct
    for (auto c : set) EXPECT_LT(c, r);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ElectionGrid,
    ::testing::Values(std::make_tuple(4, 1), std::make_tuple(8, 2),
                      std::make_tuple(16, 2), std::make_tuple(16, 4),
                      std::make_tuple(32, 4), std::make_tuple(64, 8)));

}  // namespace
}  // namespace ba
