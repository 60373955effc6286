#pragma once

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <span>
#include <vector>

#include "common/error.hpp"

namespace hdc::tensor {

/// Dense row-major matrix. Deliberately simple: contiguous storage, value
/// semantics, bounds-checked element access. This is the single numeric
/// container shared by the HDC core, the HDLite builder and interpreter
/// and the TPU simulator, so conversions between subsystems are free.
template <typename T>
class Matrix {
 public:
  Matrix() = default;

  Matrix(std::size_t rows, std::size_t cols, T fill_value = T{})
      : rows_(rows), cols_(cols), data_(rows * cols, fill_value) {}

  Matrix(std::size_t rows, std::size_t cols, std::vector<T> data)
      : rows_(rows), cols_(cols), data_(std::move(data)) {
    HDC_CHECK(data_.size() == rows_ * cols_, "matrix storage size mismatch");
  }

  /// Brace-initialized literal, e.g. Matrix<float>({{1, 2}, {3, 4}}).
  Matrix(std::initializer_list<std::initializer_list<T>> rows_list) {
    rows_ = rows_list.size();
    cols_ = rows_ == 0 ? 0 : rows_list.begin()->size();
    data_.reserve(rows_ * cols_);
    for (const auto& row : rows_list) {
      HDC_CHECK(row.size() == cols_, "ragged matrix literal");
      data_.insert(data_.end(), row.begin(), row.end());
    }
  }

  std::size_t rows() const noexcept { return rows_; }
  std::size_t cols() const noexcept { return cols_; }
  std::size_t size() const noexcept { return data_.size(); }
  bool empty() const noexcept { return data_.empty(); }

  T& at(std::size_t r, std::size_t c) {
    HDC_CHECK(r < rows_ && c < cols_, "matrix index out of range");
    return data_[r * cols_ + c];
  }
  const T& at(std::size_t r, std::size_t c) const {
    HDC_CHECK(r < rows_ && c < cols_, "matrix index out of range");
    return data_[r * cols_ + c];
  }

  /// Unchecked access for hot loops (callers validate shapes once up front).
  T& operator()(std::size_t r, std::size_t c) noexcept { return data_[r * cols_ + c]; }
  const T& operator()(std::size_t r, std::size_t c) const noexcept {
    return data_[r * cols_ + c];
  }

  T* data() noexcept { return data_.data(); }
  const T* data() const noexcept { return data_.data(); }
  std::vector<T>& storage() noexcept { return data_; }
  const std::vector<T>& storage() const noexcept { return data_; }

  std::span<T> row(std::size_t r) {
    HDC_CHECK(r < rows_, "row index out of range");
    return {data_.data() + r * cols_, cols_};
  }
  std::span<const T> row(std::size_t r) const {
    HDC_CHECK(r < rows_, "row index out of range");
    return {data_.data() + r * cols_, cols_};
  }

  void fill(T value) { data_.assign(data_.size(), value); }

  bool same_shape(const Matrix& other) const noexcept {
    return rows_ == other.rows_ && cols_ == other.cols_;
  }

  bool operator==(const Matrix& other) const = default;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<T> data_;
};

using MatrixF = Matrix<float>;
using MatrixI8 = Matrix<std::int8_t>;
using MatrixI32 = Matrix<std::int32_t>;

}  // namespace hdc::tensor
