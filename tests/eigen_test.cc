#include "linalg/eigen.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"

namespace vaq {
namespace {

DoubleMatrix RandomSymmetric(size_t n, uint64_t seed) {
  Rng rng(seed);
  DoubleMatrix m(n, n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i; j < n; ++j) {
      const double v = rng.Gaussian();
      m(i, j) = v;
      m(j, i) = v;
    }
  }
  return m;
}

TEST(EigenTest, IdentityMatrix) {
  DoubleMatrix id(4, 4, 0.0);
  for (size_t i = 0; i < 4; ++i) id(i, i) = 1.0;
  auto result = EigenSymmetric(id);
  ASSERT_TRUE(result.ok());
  for (double v : result->values) EXPECT_NEAR(v, 1.0, 1e-10);
}

TEST(EigenTest, DiagonalMatrixSortedDescending) {
  DoubleMatrix d(3, 3, 0.0);
  d(0, 0) = 1.0;
  d(1, 1) = 5.0;
  d(2, 2) = 3.0;
  auto result = EigenSymmetric(d);
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result->values[0], 5.0, 1e-10);
  EXPECT_NEAR(result->values[1], 3.0, 1e-10);
  EXPECT_NEAR(result->values[2], 1.0, 1e-10);
}

TEST(EigenTest, Known2x2) {
  // [[2, 1], [1, 2]] has eigenvalues 3 and 1.
  DoubleMatrix m(2, 2);
  m(0, 0) = 2;
  m(0, 1) = 1;
  m(1, 0) = 1;
  m(1, 1) = 2;
  auto result = EigenSymmetric(m);
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result->values[0], 3.0, 1e-10);
  EXPECT_NEAR(result->values[1], 1.0, 1e-10);
  // Eigenvector of 3 is (1,1)/sqrt(2) up to sign.
  EXPECT_NEAR(std::fabs(result->vectors(0, 0)), 1.0 / std::sqrt(2.0), 1e-8);
}

TEST(EigenTest, RejectsNonSquare) {
  DoubleMatrix m(2, 3, 0.0);
  EXPECT_FALSE(EigenSymmetric(m).ok());
}

TEST(EigenTest, RejectsNonSymmetric) {
  DoubleMatrix m(2, 2, 0.0);
  m(0, 1) = 1.0;
  m(1, 0) = 5.0;
  EXPECT_EQ(EigenSymmetric(m).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(EigenTest, RejectsEmpty) {
  DoubleMatrix m;
  EXPECT_FALSE(EigenSymmetric(m).ok());
}

class EigenPropertyTest : public ::testing::TestWithParam<size_t> {};

TEST_P(EigenPropertyTest, ReconstructsInput) {
  const size_t n = GetParam();
  const DoubleMatrix m = RandomSymmetric(n, 1000 + n);
  auto result = EigenSymmetric(m);
  ASSERT_TRUE(result.ok());
  // Check A == V diag(values) V^T entry-wise.
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (size_t k = 0; k < n; ++k) {
        acc += result->vectors(i, k) * result->values[k] *
               result->vectors(j, k);
      }
      EXPECT_NEAR(acc, m(i, j), 1e-8) << i << "," << j;
    }
  }
}

TEST_P(EigenPropertyTest, EigenvectorsOrthonormal) {
  const size_t n = GetParam();
  const DoubleMatrix m = RandomSymmetric(n, 2000 + n);
  auto result = EigenSymmetric(m);
  ASSERT_TRUE(result.ok());
  for (size_t a = 0; a < n; ++a) {
    for (size_t b = a; b < n; ++b) {
      double dot = 0.0;
      for (size_t i = 0; i < n; ++i) {
        dot += result->vectors(i, a) * result->vectors(i, b);
      }
      EXPECT_NEAR(dot, a == b ? 1.0 : 0.0, 1e-9);
    }
  }
}

TEST_P(EigenPropertyTest, TraceEqualsEigenvalueSum) {
  const size_t n = GetParam();
  const DoubleMatrix m = RandomSymmetric(n, 3000 + n);
  auto result = EigenSymmetric(m);
  ASSERT_TRUE(result.ok());
  double trace = 0.0, sum = 0.0;
  for (size_t i = 0; i < n; ++i) trace += m(i, i);
  for (double v : result->values) sum += v;
  EXPECT_NEAR(trace, sum, 1e-8);
}

INSTANTIATE_TEST_SUITE_P(Sizes, EigenPropertyTest,
                         ::testing::Values(1, 2, 3, 5, 8, 16, 32, 64));

}  // namespace
}  // namespace vaq
