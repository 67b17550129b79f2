#include "core/ti_partition.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <set>
#include <sstream>

#include "common/rng.h"
#include "core/vaq_index.h"
#include "datasets/synthetic.h"
#include "reference_oracle.h"

namespace vaq {
namespace {

class TiPartitionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(5);
    data_.Resize(800, 8);
    for (size_t i = 0; i < data_.size(); ++i) {
      data_.data()[i] = static_cast<float>(rng.Gaussian());
    }
    auto layout = SubspaceLayout::Uniform(8, 4);
    ASSERT_TRUE(layout.ok());
    CodebookOptions copts;
    copts.seed = 3;
    ASSERT_TRUE(books_.Train(data_, *layout, {4, 4, 3, 3}, copts).ok());
    auto codes = books_.Encode(data_);
    ASSERT_TRUE(codes.ok());
    codes_ = *codes;

    TiPartitionOptions topts;
    topts.num_clusters = 16;
    topts.prefix_subspaces = 2;
    topts.seed = 9;
    ASSERT_TRUE(ti_.Build(codes_, books_, topts, &members_).ok());
  }

  FloatMatrix data_;
  VariableCodebooks books_;
  CodeMatrix codes_;
  TiPartition ti_;
  std::vector<std::vector<uint32_t>> members_;  ///< ids per cluster
};

/// order[0, visit) ascends by (dist, cluster id), and no cluster outside
/// it is nearer than the last one inside it.
void ExpectRankedAscending(const std::vector<float>& dist,
                           const std::vector<size_t>& order, size_t visit) {
  ASSERT_EQ(order.size(), dist.size());
  ASSERT_GT(visit, 0u);
  std::vector<bool> ranked(dist.size(), false);
  for (size_t v = 0; v < visit; ++v) {
    ranked[order[v]] = true;
    if (v == 0) continue;
    const size_t a = order[v - 1], b = order[v];
    EXPECT_TRUE(dist[a] < dist[b] || (dist[a] == dist[b] && a < b))
        << "rank " << v;
  }
  const size_t last = order[visit - 1];
  for (size_t c = 0; c < dist.size(); ++c) {
    if (!ranked[c]) {
      EXPECT_TRUE(dist[last] < dist[c] || (dist[last] == dist[c] && last < c))
          << "cluster " << c << " left out of the ranked prefix";
    }
  }
}

/// Cluster `c`'s cached distances: those of `ti` at the positions of
/// partition c of a store built over `members`, whose clusters it lays
/// out in order.
std::vector<float> ClusterDistances(
    const TiPartition& ti, const std::vector<std::vector<uint32_t>>& members,
    size_t c) {
  size_t begin = 0;
  for (size_t p = 0; p < c; ++p) begin += members[p].size();
  const std::vector<float>& all = ti.distances();
  if (begin + members[c].size() > all.size()) return {};  // fails callers
  return {all.begin() + static_cast<ptrdiff_t>(begin),
          all.begin() + static_cast<ptrdiff_t>(begin + members[c].size())};
}

/// `members` and the cached distances of `ti` equal, bit for bit, what the
/// row-at-a-time oracle assigns over `codes` with the same centroids.
void ExpectMatchesOracle(const TiPartition& ti, const CodeMatrix& codes,
                         const VariableCodebooks& books,
                         const std::vector<std::vector<uint32_t>>& members) {
  std::vector<std::vector<uint32_t>> want_members;
  std::vector<std::vector<float>> want_distances;
  ReferenceTiAssign(codes, books, ti.centroids(), ti.prefix_subspaces(),
                    &want_members, &want_distances);
  ASSERT_EQ(members.size(), want_members.size());
  for (size_t c = 0; c < want_members.size(); ++c) {
    EXPECT_EQ(members[c], want_members[c]) << "cluster " << c;
    EXPECT_EQ(ClusterDistances(ti, members, c), want_distances[c])
        << "cluster " << c;
  }
}

TEST_F(TiPartitionTest, BuildMatchesRowAtATimeOracle) {
  // 800 and 130 rows end inside a 64-row block. Over 2 prefix subspaces of
  // 4 bits there are at most 256 distinct prefix codes, so 300 clusters
  // force duplicate centroids, whose ties go to the smaller index.
  std::vector<size_t> first(130);
  std::iota(first.begin(), first.end(), size_t{0});
  CodeMatrix head = codes_.GatherRows(first);
  for (const CodeMatrix* codes : {&codes_, &head}) {
    for (size_t clusters : {size_t{16}, size_t{300}}) {
      for (size_t threads : {size_t{1}, size_t{3}, size_t{0}}) {
        SCOPED_TRACE(::testing::Message()
                     << "rows=" << codes->rows() << " clusters=" << clusters
                     << " threads=" << threads);
        TiPartitionOptions topts;
        topts.num_clusters = clusters;
        topts.prefix_subspaces = 2;
        topts.seed = 9;
        topts.num_threads = threads;
        TiPartition ti;
        std::vector<std::vector<uint32_t>> members;
        ASSERT_TRUE(ti.Build(*codes, books_, topts, &members).ok());
        ExpectMatchesOracle(ti, *codes, books_, members);
      }
    }
  }
  // The 300-cluster build over 800 rows really has duplicate centroids.
  TiPartitionOptions topts;
  topts.num_clusters = 300;
  topts.prefix_subspaces = 2;
  topts.seed = 9;
  TiPartition ti;
  std::vector<std::vector<uint32_t>> members;
  ASSERT_TRUE(ti.Build(codes_, books_, topts, &members).ok());
  std::set<std::vector<float>> distinct;
  for (size_t c = 0; c < ti.num_clusters(); ++c) {
    const float* row = ti.centroids().row(c);
    distinct.insert(std::vector<float>(row, row + ti.prefix_dims()));
  }
  EXPECT_LT(distinct.size(), ti.num_clusters());
}

TEST_F(TiPartitionTest, TrainThenAddMatchesOracleOverMergedCodes) {
  // Add rebuilds the partition over the merged codes; its clusters are
  // the store's partitions.
  const FloatMatrix data = GenerateSpectrumMixture(
      1000, 32, PowerLawSpectrum(32, 1.2), 8, 1.0, 21);
  FloatMatrix head(700, data.cols()), rest(300, data.cols());
  std::copy_n(data.data(), head.size(), head.data());
  std::copy_n(data.data() + head.size(), rest.size(), rest.data());
  for (size_t threads : {size_t{1}, size_t{3}}) {
    SCOPED_TRACE(::testing::Message() << "train_threads=" << threads);
    VaqOptions opts;
    opts.num_subspaces = 8;
    opts.total_bits = 48;
    opts.ti_clusters = 40;
    opts.kmeans_iters = 8;
    opts.train_threads = threads;
    auto index = VaqIndex::Train(head, opts);
    ASSERT_TRUE(index.ok()) << index.status().ToString();
    ASSERT_TRUE(index->Add(rest).ok());
    const PartitionedCodes& store = index->store();
    ASSERT_EQ(store.rows(), data.rows());
    std::vector<std::vector<uint32_t>> members(store.num_partitions());
    for (size_t c = 0; c < members.size(); ++c) {
      members[c].assign(store.ids().begin() + store.partition_begin(c),
                        store.ids().begin() + store.partition_end(c));
    }
    ExpectMatchesOracle(index->ti_partition(), store.RowCodes(),
                        index->codebooks(), members);
  }
}

TEST_F(TiPartitionTest, EveryIdAppearsExactlyOnce) {
  std::set<uint32_t> seen;
  size_t total = 0;
  ASSERT_EQ(members_.size(), ti_.num_clusters());
  for (size_t c = 0; c < ti_.num_clusters(); ++c) {
    for (uint32_t id : members_[c]) {
      EXPECT_TRUE(seen.insert(id).second) << "duplicate id " << id;
      ++total;
    }
  }
  EXPECT_EQ(total, codes_.rows());
}

TEST_F(TiPartitionTest, ClusterDistancesSortedAscending) {
  for (size_t c = 0; c < ti_.num_clusters(); ++c) {
    const std::vector<float> dists = ClusterDistances(ti_, members_, c);
    for (size_t i = 1; i < dists.size(); ++i) {
      EXPECT_LE(dists[i - 1], dists[i]);
    }
    EXPECT_EQ(dists.size(), members_[c].size());
  }
}

TEST_F(TiPartitionTest, MembersAssignedToNearestCentroid) {
  // Spot-check: a member's cached distance equals its decoded-prefix
  // distance to its own centroid, and no other centroid is closer.
  std::vector<float> decoded(books_.dim());
  const size_t pd = ti_.prefix_dims();
  for (size_t c = 0; c < std::min<size_t>(4, ti_.num_clusters()); ++c) {
    const std::vector<uint32_t>& ids = members_[c];
    const std::vector<float> cached = ClusterDistances(ti_, members_, c);
    for (size_t i = 0; i < std::min<size_t>(5, ids.size()); ++i) {
      books_.DecodeRow(codes_.row(ids[i]), decoded.data());
      const float own = std::sqrt(
          SquaredL2(decoded.data(), ti_.centroids().row(c), pd));
      EXPECT_NEAR(cached[i], own, 1e-3f);
      for (size_t other = 0; other < ti_.num_clusters(); ++other) {
        const float dist = std::sqrt(
            SquaredL2(decoded.data(), ti_.centroids().row(other), pd));
        EXPECT_GE(dist, own - 1e-3f);
      }
    }
  }
}

TEST_F(TiPartitionTest, QueryDistancesMatchDirectComputation) {
  Rng rng(77);
  std::vector<float> query(books_.dim());
  for (auto& v : query) v = static_cast<float>(rng.Gaussian());
  std::vector<float> dists;
  std::vector<size_t> order;
  RankPartitions(ti_.centroids(), query.data(), ti_.num_clusters(), &dists,
                 &order);
  ASSERT_EQ(dists.size(), ti_.num_clusters());
  for (size_t c = 0; c < ti_.num_clusters(); ++c) {
    const float direct = std::sqrt(SquaredL2(
        query.data(), ti_.centroids().row(c), ti_.prefix_dims()));
    EXPECT_NEAR(std::sqrt(dists[c]), direct, 1e-4f);
  }
  ExpectRankedAscending(dists, order, ti_.num_clusters());
}

TEST_F(TiPartitionTest, TriangleInequalityBoundHolds) {
  // For every member x and any query q:
  // |d(q, c) - d(x, c)| <= d_prefix(q, decoded(x)) <= full ADC distance.
  Rng rng(13);
  std::vector<float> query(books_.dim());
  for (auto& v : query) v = static_cast<float>(rng.Gaussian());
  std::vector<float> qdists;
  std::vector<size_t> order;
  const size_t visit = ti_.num_clusters() / 4;
  RankPartitions(ti_.centroids(), query.data(), visit, &qdists, &order);
  ExpectRankedAscending(qdists, order, visit);
  std::vector<float> decoded(books_.dim());
  for (size_t c = 0; c < ti_.num_clusters(); ++c) {
    const std::vector<uint32_t>& ids = members_[c];
    const std::vector<float> cached = ClusterDistances(ti_, members_, c);
    for (size_t i = 0; i < ids.size(); ++i) {
      books_.DecodeRow(codes_.row(ids[i]), decoded.data());
      const float prefix_dist = std::sqrt(SquaredL2(
          query.data(), decoded.data(), ti_.prefix_dims()));
      const float bound = std::fabs(std::sqrt(qdists[c]) - cached[i]);
      EXPECT_LE(bound, prefix_dist + 1e-2f);
      const float full_dist =
          std::sqrt(SquaredL2(query.data(), decoded.data(), books_.dim()));
      EXPECT_LE(prefix_dist, full_dist + 1e-3f);
    }
  }
}

TEST_F(TiPartitionTest, SaveLoadRoundtrip) {
  // The member ids are saved from the code store built over the clusters.
  auto store = PartitionedCodes::Build(codes_, members_);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  std::stringstream ss;
  ti_.Save(ss, *store);
  TiPartition loaded;
  std::vector<std::vector<uint32_t>> loaded_members;
  ASSERT_TRUE(loaded.Load(ss, &loaded_members).ok());
  EXPECT_EQ(loaded.num_clusters(), ti_.num_clusters());
  EXPECT_EQ(loaded.prefix_subspaces(), ti_.prefix_subspaces());
  EXPECT_TRUE(loaded.centroids() == ti_.centroids());
  EXPECT_EQ(loaded_members, members_);
  EXPECT_EQ(loaded.distances(), ti_.distances());
  EXPECT_TRUE(loaded.ValidateInvariants(*store, 4, ti_.prefix_dims()).ok());
}

TEST_F(TiPartitionTest, ClusterCountCappedByRows) {
  CodeMatrix tiny = codes_.GatherRows({0, 1, 2});
  TiPartition small;
  TiPartitionOptions topts;
  topts.num_clusters = 100;
  topts.prefix_subspaces = 2;
  std::vector<std::vector<uint32_t>> members;
  ASSERT_TRUE(small.Build(tiny, books_, topts, &members).ok());
  EXPECT_EQ(small.num_clusters(), 3u);
}

TEST_F(TiPartitionTest, RejectsBadInputs) {
  TiPartition bad;
  TiPartitionOptions topts;
  std::vector<std::vector<uint32_t>> members;
  topts.num_clusters = 0;
  EXPECT_FALSE(bad.Build(codes_, books_, topts, &members).ok());
  topts.num_clusters = 4;
  EXPECT_FALSE(bad.Build(CodeMatrix(), books_, topts, &members).ok());
  VariableCodebooks untrained;
  EXPECT_FALSE(bad.Build(codes_, untrained, topts, &members).ok());
}

}  // namespace
}  // namespace vaq
