// Dense row-major float32 matrix: the embedding tables, MLP weights, and
// all intermediate activations of the DFG. Kept deliberately simple — the
// interesting execution modelling lives in gpusim; this type provides
// correct, testable numerics.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "util/rng.hpp"

namespace gt {

class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, float fill = 0.0f)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {
    if (!data_.empty()) count_heap_allocation();
  }

  Matrix(const Matrix& o)
      : rows_(o.rows_), cols_(o.cols_), data_(o.data_) {
    if (!data_.empty()) count_heap_allocation();
  }
  Matrix& operator=(const Matrix& o) {
    if (this == &o) return *this;
    if (o.data_.size() > data_.capacity()) count_heap_allocation();
    rows_ = o.rows_;
    cols_ = o.cols_;
    data_ = o.data_;
    return *this;
  }
  Matrix(Matrix&&) = default;
  Matrix& operator=(Matrix&&) = default;

  static Matrix zeros(std::size_t rows, std::size_t cols) {
    return Matrix(rows, cols, 0.0f);
  }

  /// Glorot/Xavier-uniform init used for MLP weights.
  static Matrix glorot(std::size_t rows, std::size_t cols, Xoshiro256& rng);

  /// Entries iid uniform in [lo, hi) — synthetic embedding tables.
  static Matrix uniform(std::size_t rows, std::size_t cols, Xoshiro256& rng,
                        float lo = -1.0f, float hi = 1.0f);

  std::size_t rows() const noexcept { return rows_; }
  std::size_t cols() const noexcept { return cols_; }
  std::size_t size() const noexcept { return data_.size(); }
  std::size_t bytes() const noexcept { return data_.size() * sizeof(float); }
  bool empty() const noexcept { return data_.empty(); }

  float& at(std::size_t r, std::size_t c) noexcept {
    assert(r < rows_ && c < cols_ && "Matrix::at out of bounds");
    return data_[r * cols_ + c];
  }
  float at(std::size_t r, std::size_t c) const noexcept {
    assert(r < rows_ && c < cols_ && "Matrix::at out of bounds");
    return data_[r * cols_ + c];
  }

  std::span<float> row(std::size_t r) noexcept {
    assert(r < rows_ && "Matrix::row out of bounds");
    return {data_.data() + r * cols_, cols_};
  }
  std::span<const float> row(std::size_t r) const noexcept {
    assert(r < rows_ && "Matrix::row out of bounds");
    return {data_.data() + r * cols_, cols_};
  }

  std::span<float> data() noexcept { return data_; }
  std::span<const float> data() const noexcept { return data_; }

  void fill(float v) noexcept { std::fill(data_.begin(), data_.end(), v); }

  /// Reshape to rows x cols, zero-filled. Reuses existing capacity; when
  /// growth is unavoidable it reserves 1.5x so a slightly larger batch on
  /// the next epoch stays allocation-free (steady-state contract).
  void resize(std::size_t rows, std::size_t cols) {
    const std::size_t n = rows * cols;
    if (n > data_.capacity()) {
      count_heap_allocation();
      data_.reserve(n + n / 2);
    }
    data_.assign(n, 0.0f);
    rows_ = rows;
    cols_ = cols;
  }

  /// Hand the storage out, leaving a 0 x 0 matrix. The vector keeps its
  /// capacity, so adopt_storage() can take it back with no allocation.
  std::vector<float> release_storage() noexcept {
    rows_ = cols_ = 0;
    return std::exchange(data_, {});
  }

  /// Take `data` as the rows x cols storage (data.size() == rows * cols).
  /// Counts no heap allocation: the vector was allocated elsewhere.
  void adopt_storage(std::size_t rows, std::size_t cols,
                     std::vector<float>&& data) noexcept {
    assert(data.size() == rows * cols && "Matrix::adopt_storage shape");
    rows_ = rows;
    cols_ = cols;
    data_ = std::move(data);
  }

  bool same_shape(const Matrix& o) const noexcept {
    return rows_ == o.rows_ && cols_ == o.cols_;
  }

  bool operator==(const Matrix& o) const {
    return rows_ == o.rows_ && cols_ == o.cols_ && data_ == o.data_;
  }

  /// Process-wide count of float-buffer heap allocations performed by
  /// Matrix objects (construction, copies, and capacity growth). The
  /// steady-state regression test snapshots this across epochs to prove
  /// the hot path stopped allocating.
  static std::uint64_t heap_allocations() noexcept;

 private:
  static void count_heap_allocation() noexcept;

  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<float> data_;
};

/// Max absolute elementwise difference; infinity if shapes differ.
float max_abs_diff(const Matrix& a, const Matrix& b);

/// True iff all elements differ by at most `tol`.
bool allclose(const Matrix& a, const Matrix& b, float tol = 1e-4f);

}  // namespace gt
