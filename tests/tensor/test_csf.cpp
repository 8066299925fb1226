#include "tensor/csf.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <map>
#include <tuple>
#include <vector>

#include "testing/helpers.hpp"
#include "util/error.hpp"

namespace aoadmm {
namespace {

/// Expand a CSF tree back into coordinate/value tuples for verification.
std::map<std::vector<index_t>, real_t> expand(const CsfTensor& csf) {
  std::map<std::vector<index_t>, real_t> out;
  const std::size_t order = csf.order();
  // Walk root-to-leaf paths.
  std::vector<index_t> path(order);
  const auto walk = [&](auto&& self, std::size_t level, offset_t node) -> void {
    path[csf.level_mode(level)] = csf.fids(level)[node];
    if (level == order - 1) {
      out[path] += csf.vals()[node];
      return;
    }
    const auto fptr = csf.fptr(level);
    for (offset_t c = fptr[node]; c < fptr[node + 1]; ++c) {
      self(self, level + 1, c);
    }
  };
  for (std::size_t r = 0; r < csf.num_nodes(0); ++r) {
    walk(walk, 0, r);
  }
  return out;
}

std::map<std::vector<index_t>, real_t> coo_map(const CooTensor& x) {
  std::map<std::vector<index_t>, real_t> out;
  std::vector<index_t> c(x.order());
  for (offset_t n = 0; n < x.nnz(); ++n) {
    for (std::size_t m = 0; m < x.order(); ++m) {
      c[m] = x.index(m, n);
    }
    out[c] += x.value(n);
  }
  return out;
}

TEST(Csf, RoundTripsTinyTensor) {
  const CooTensor x = testing::tiny_tensor();
  for (std::size_t root = 0; root < 3; ++root) {
    const CsfTensor csf = CsfTensor::build_for_mode(x, root);
    EXPECT_EQ(csf.nnz(), x.nnz());
    EXPECT_EQ(expand(csf), coo_map(x)) << "root mode " << root;
  }
}

TEST(Csf, RoundTripsRandomTensors) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    const CooTensor x = testing::random_coo({9, 7, 11}, 150, seed);
    for (std::size_t root = 0; root < 3; ++root) {
      const CsfTensor csf = CsfTensor::build_for_mode(x, root);
      EXPECT_EQ(expand(csf), coo_map(x));
    }
  }
}

TEST(Csf, RoundTripsFourModeTensor) {
  const CooTensor x = testing::random_coo({4, 5, 6, 3}, 80, 4);
  for (std::size_t root = 0; root < 4; ++root) {
    const CsfTensor csf = CsfTensor::build_for_mode(x, root);
    EXPECT_EQ(expand(csf), coo_map(x));
  }
}

TEST(Csf, RoundTripsMatrix) {
  const CooTensor x = testing::random_coo({6, 8}, 20, 5);
  for (std::size_t root = 0; root < 2; ++root) {
    const CsfTensor csf = CsfTensor::build_for_mode(x, root);
    EXPECT_EQ(expand(csf), coo_map(x));
  }
}

TEST(Csf, RootFidsAreSortedAndUnique) {
  const CooTensor x = testing::random_coo({20, 10, 10}, 200, 6);
  const CsfTensor csf = CsfTensor::build_for_mode(x, 0);
  const auto fids = csf.fids(0);
  for (std::size_t i = 1; i < fids.size(); ++i) {
    EXPECT_LT(fids[i - 1], fids[i]);
  }
}

TEST(Csf, BuildForModePutsRootFirst) {
  const CooTensor x = testing::random_coo({4, 50, 9}, 60, 7);
  const CsfTensor csf = CsfTensor::build_for_mode(x, 1);
  EXPECT_EQ(csf.level_mode(0), 1u);
  // Remaining modes sorted by increasing length: 4 (mode 0) then 9 (mode 2).
  EXPECT_EQ(csf.level_mode(1), 0u);
  EXPECT_EQ(csf.level_mode(2), 2u);
}

TEST(Csf, RootWeightsSumToNnz) {
  const CooTensor x = testing::random_coo({15, 9, 9}, 120, 8);
  for (std::size_t root = 0; root < 3; ++root) {
    const CsfTensor csf = CsfTensor::build_for_mode(x, root);
    const auto weights = csf.root_weights();
    offset_t total = 0;
    for (const auto w : weights) {
      EXPECT_GT(w, 0u);  // a root node exists only if it has non-zeros
      total += w;
    }
    EXPECT_EQ(total, x.nnz());
  }
}

TEST(Csf, RootWeightsMatchSliceCounts) {
  const CooTensor x = testing::random_coo({10, 6, 6}, 90, 9);
  const CsfTensor csf = CsfTensor::build_for_mode(x, 0);
  const auto slice = x.slice_nnz(0);
  const auto fids = csf.fids(0);
  const auto weights = csf.root_weights();
  ASSERT_EQ(fids.size(), weights.size());
  for (std::size_t r = 0; r < fids.size(); ++r) {
    EXPECT_EQ(weights[r], slice[fids[r]]);
  }
}

TEST(Csf, CompressionSharesPrefixes) {
  // Two non-zeros sharing (i, j): level-1 must have one node for them.
  CooTensor x({2, 2, 4});
  const index_t a[3] = {0, 1, 0};
  const index_t b[3] = {0, 1, 3};
  const index_t c[3] = {1, 0, 2};
  x.add({a, 3}, 1);
  x.add({b, 3}, 2);
  x.add({c, 3}, 3);
  const CsfTensor csf = CsfTensor::build(x, {0, 1, 2});
  EXPECT_EQ(csf.num_nodes(0), 2u);  // slices 0 and 1
  EXPECT_EQ(csf.num_nodes(1), 2u);  // fibers (0,1) and (1,0)
  EXPECT_EQ(csf.num_nodes(2), 3u);  // leaves
}

TEST(Csf, StorageBytesPositive) {
  const CooTensor x = testing::random_coo({5, 5, 5}, 30, 10);
  const CsfTensor csf = CsfTensor::build_for_mode(x, 0);
  EXPECT_GT(csf.storage_bytes(), 0u);
}

TEST(Csf, RejectsBadPermutation) {
  const CooTensor x = testing::tiny_tensor();
  EXPECT_THROW(CsfTensor::build(x, {0, 0, 2}), InvalidArgument);
  EXPECT_THROW(CsfTensor::build(x, {0, 1}), InvalidArgument);
}

// Property sweep: round-trip and weight invariants across random shapes.
using CsfShapeParam = std::tuple<int /*order*/, int /*nnz*/>;

class CsfShapeSweep : public ::testing::TestWithParam<CsfShapeParam> {};

TEST_P(CsfShapeSweep, RoundTripAndWeightsHold) {
  const auto [order, nnz] = GetParam();
  Rng shape_rng(static_cast<std::uint64_t>(order * 1000 + nnz));
  std::vector<index_t> dims;
  for (int m = 0; m < order; ++m) {
    dims.push_back(static_cast<index_t>(2 + shape_rng.uniform_index(20)));
  }
  const CooTensor x = testing::random_coo(
      dims, static_cast<offset_t>(nnz),
      static_cast<std::uint64_t>(order * 7 + nnz));

  for (std::size_t root = 0; root < dims.size(); ++root) {
    const CsfTensor csf = CsfTensor::build_for_mode(x, root);
    EXPECT_EQ(expand(csf), coo_map(x))
        << "order " << order << " nnz " << nnz << " root " << root;
    offset_t total = 0;
    for (const offset_t w : csf.root_weights()) {
      total += w;
    }
    EXPECT_EQ(total, x.nnz());
    // Node counts never shrink with depth (every node has >= 1 child).
    for (std::size_t level = 1; level < csf.order(); ++level) {
      EXPECT_GE(csf.num_nodes(level), csf.num_nodes(level - 1));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    ShapesAndSizes, CsfShapeSweep,
    ::testing::Combine(::testing::Values(2, 3, 4, 6),
                       ::testing::Values(1, 15, 200)),
    [](const ::testing::TestParamInfo<CsfShapeParam>& info) {
      return "order" + std::to_string(std::get<0>(info.param)) + "_nnz" +
             std::to_string(std::get<1>(info.param));
    });

TEST(CsfSetTest, OneTreePerMode) {
  const CooTensor x = testing::random_coo({8, 9, 10}, 100, 11);
  const CsfSet set(x);
  EXPECT_EQ(set.order(), 3u);
  EXPECT_EQ(set.nnz(), x.nnz());
  for (std::size_t m = 0; m < 3; ++m) {
    EXPECT_EQ(set.for_mode(m).level_mode(0), m);
    EXPECT_EQ(expand(set.for_mode(m)), coo_map(x));
  }
}

TEST(CsfSetTest, NormSqSharesTheBitsOfCooNormSqBeforeAndAfterPatching) {
  CooTensor x = testing::random_coo({30, 40, 50}, 5000, 12);
  CsfSet set(x, CsfStrategy::kAllMode, /*tile_rows=*/0,
             /*track_value_patching=*/true);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(set.norm_sq()),
            std::bit_cast<std::uint64_t>(x.norm_sq()));

  // Value-only churn, then compare the patched set with a fresh build.
  for (offset_t n = 0; n < x.nnz(); ++n) {
    x.value(n) = x.value(n) * real_t{3} + real_t{1e-7} * static_cast<real_t>(n);
  }
  set.patch_values(x);
  const CsfSet fresh(x);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(set.norm_sq()),
            std::bit_cast<std::uint64_t>(fresh.norm_sq()));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(fresh.norm_sq()),
            std::bit_cast<std::uint64_t>(x.norm_sq()));
}

}  // namespace
}  // namespace aoadmm
