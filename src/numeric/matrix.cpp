#include "numeric/matrix.hpp"

#include <algorithm>

namespace dot::numeric {

Matrix::Matrix(std::size_t rows, std::size_t cols, double fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

void Matrix::fill(double value) {
  std::fill(data_.begin(), data_.end(), value);
}

}  // namespace dot::numeric
