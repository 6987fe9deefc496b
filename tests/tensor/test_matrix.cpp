#include "tensor/matrix.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace gt {
namespace {

TEST(Matrix, ShapeAndAccess) {
  Matrix m(2, 3, 1.5f);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_EQ(m.size(), 6u);
  EXPECT_EQ(m.bytes(), 24u);
  EXPECT_FLOAT_EQ(m.at(1, 2), 1.5f);
  m.at(1, 2) = 7.0f;
  EXPECT_FLOAT_EQ(m.at(1, 2), 7.0f);
}

TEST(Matrix, RowSpanViewsUnderlyingData) {
  Matrix m(2, 2);
  m.row(1)[0] = 3.0f;
  EXPECT_FLOAT_EQ(m.at(1, 0), 3.0f);
}

TEST(Matrix, FillAndZeros) {
  Matrix m = Matrix::zeros(3, 3);
  for (float v : m.data()) EXPECT_FLOAT_EQ(v, 0.0f);
  m.fill(2.0f);
  for (float v : m.data()) EXPECT_FLOAT_EQ(v, 2.0f);
}

TEST(Matrix, GlorotBounded) {
  Xoshiro256 rng(1);
  Matrix m = Matrix::glorot(10, 20, rng);
  const float limit = std::sqrt(6.0f / 30.0f);
  for (float v : m.data()) {
    EXPECT_GE(v, -limit);
    EXPECT_LT(v, limit);
  }
}

TEST(Matrix, UniformDeterministic) {
  Xoshiro256 a(5), b(5);
  EXPECT_EQ(Matrix::uniform(4, 4, a), Matrix::uniform(4, 4, b));
}

TEST(Matrix, MaxAbsDiff) {
  Matrix a(2, 2, 1.0f), b(2, 2, 1.0f);
  b.at(1, 1) = 1.5f;
  EXPECT_FLOAT_EQ(max_abs_diff(a, b), 0.5f);
  EXPECT_TRUE(allclose(a, b, 0.6f));
  EXPECT_FALSE(allclose(a, b, 0.4f));
}

TEST(Matrix, ShapeMismatchIsInfinitelyFar) {
  Matrix a(2, 2), b(2, 3);
  EXPECT_FALSE(allclose(a, b));
}

TEST(Matrix, StorageRoundTripKeepsBufferWithoutAllocating) {
  Matrix m(3, 4);
  m.at(2, 3) = 1.5f;
  const float* data = m.data().data();
  const std::uint64_t heap = Matrix::heap_allocations();
  std::vector<float> storage = m.release_storage();
  EXPECT_EQ(m.rows(), 0u);
  EXPECT_EQ(m.cols(), 0u);
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(storage.data(), data);
  m.adopt_storage(3, 4, std::move(storage));
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 4u);
  EXPECT_EQ(m.data().data(), data);
  EXPECT_FLOAT_EQ(m.at(2, 3), 1.5f);
  EXPECT_EQ(Matrix::heap_allocations(), heap);
}

}  // namespace
}  // namespace gt
