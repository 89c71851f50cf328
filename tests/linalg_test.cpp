// Unit tests for csecg::linalg — vectors, matrices, factorizations,
// operators, iterative solvers.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <utility>
#include <vector>

#include "csecg/linalg/matrix.hpp"
#include "csecg/linalg/operator.hpp"
#include "csecg/linalg/solve.hpp"
#include "csecg/linalg/vector.hpp"
#include "csecg/parallel/thread_pool.hpp"
#include "csecg/rng/distributions.hpp"
#include "csecg/rng/xoshiro.hpp"
#include "sign_packed.hpp"

namespace csecg::linalg {
namespace {

Matrix random_matrix(std::size_t rows, std::size_t cols, std::uint64_t seed) {
  rng::Xoshiro256 g(seed);
  Matrix a(rows, cols);
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t j = 0; j < cols; ++j) a(i, j) = rng::normal(g);
  }
  return a;
}

Vector random_vector(std::size_t n, std::uint64_t seed) {
  rng::Xoshiro256 g(seed);
  Vector v(n);
  for (auto& x : v) x = rng::normal(g);
  return v;
}

TEST(Vector, ConstructionAndFill) {
  Vector v(5);
  EXPECT_EQ(v.size(), 5u);
  for (double x : v) EXPECT_EQ(x, 0.0);
  v.fill(2.5);
  for (double x : v) EXPECT_EQ(x, 2.5);
}

TEST(Vector, InitializerListAndEquality) {
  const Vector v{1.0, 2.0, 3.0};
  EXPECT_EQ(v.size(), 3u);
  EXPECT_EQ(v[1], 2.0);
  EXPECT_EQ(v, (Vector{1.0, 2.0, 3.0}));
  EXPECT_NE(v, (Vector{1.0, 2.0, 4.0}));
}

TEST(Vector, Arithmetic) {
  const Vector a{1.0, 2.0};
  const Vector b{10.0, 20.0};
  EXPECT_EQ(a + b, (Vector{11.0, 22.0}));
  EXPECT_EQ(b - a, (Vector{9.0, 18.0}));
  EXPECT_EQ(2.0 * a, (Vector{2.0, 4.0}));
  EXPECT_EQ(a * 2.0, (Vector{2.0, 4.0}));
}

TEST(Vector, DimensionMismatchThrows) {
  Vector a(3);
  const Vector b(4);
  EXPECT_THROW(a += b, std::invalid_argument);
  EXPECT_THROW(a -= b, std::invalid_argument);
  EXPECT_THROW(dot(a, b), std::invalid_argument);
  EXPECT_THROW(axpy(1.0, b, a), std::invalid_argument);
}

TEST(Vector, DotAndNorms) {
  const Vector a{3.0, 4.0};
  EXPECT_DOUBLE_EQ(dot(a, a), 25.0);
  EXPECT_DOUBLE_EQ(norm2(a), 5.0);
  EXPECT_DOUBLE_EQ(norm2_squared(a), 25.0);
  EXPECT_DOUBLE_EQ(norm1(a), 7.0);
  EXPECT_DOUBLE_EQ(norm_inf(a), 4.0);
}

TEST(Vector, NormsOfNegativeEntries) {
  const Vector a{-3.0, 4.0, -1.0};
  EXPECT_DOUBLE_EQ(norm1(a), 8.0);
  EXPECT_DOUBLE_EQ(norm_inf(a), 4.0);
}

TEST(Vector, AxpyAccumulates) {
  const Vector x{1.0, -1.0};
  Vector y{10.0, 10.0};
  axpy(3.0, x, y);
  EXPECT_EQ(y, (Vector{13.0, 7.0}));
}

TEST(Vector, CountAboveAndMean) {
  const Vector v{0.0, 0.5, -2.0, 1e-9};
  EXPECT_EQ(count_above(v, 1e-6), 2u);
  EXPECT_DOUBLE_EQ(mean(v), (0.5 - 2.0 + 1e-9) / 4.0);
  EXPECT_DOUBLE_EQ(mean(Vector{}), 0.0);
  EXPECT_DOUBLE_EQ(norm_inf(Vector{}), 0.0);
}

TEST(Matrix, IdentityAndAccess) {
  const Matrix eye = Matrix::identity(3);
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < 3; ++j) {
      EXPECT_EQ(eye(i, j), i == j ? 1.0 : 0.0);
    }
  }
  EXPECT_THROW(eye.at(3, 0), std::out_of_range);
  EXPECT_THROW(eye.at(0, 3), std::out_of_range);
}

TEST(Matrix, MultiplyVector) {
  Matrix a(2, 3);
  a(0, 0) = 1;
  a(0, 1) = 2;
  a(0, 2) = 3;
  a(1, 0) = 4;
  a(1, 1) = 5;
  a(1, 2) = 6;
  const Vector x{1.0, 0.0, -1.0};
  const Vector y = multiply(a, x);
  EXPECT_EQ(y, (Vector{-2.0, -2.0}));
  EXPECT_THROW(multiply(a, Vector(2)), std::invalid_argument);
}

TEST(Matrix, MultiplyTransposeMatchesExplicitTranspose) {
  const Matrix a = random_matrix(6, 4, 1);
  const Vector y = random_vector(6, 2);
  const Vector via_fast = multiply_transpose(a, y);
  const Vector via_explicit = multiply(transpose(a), y);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_NEAR(via_fast[i], via_explicit[i], 1e-12);
  }
}

namespace {

// Straightforward row-dot reference kernels the blocked/unrolled production
// gemv paths are checked against.
Vector naive_gemv(const Matrix& a, const Vector& x) {
  Vector y(a.rows());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    double sum = 0.0;
    for (std::size_t j = 0; j < a.cols(); ++j) sum += a(i, j) * x[j];
    y[i] = sum;
  }
  return y;
}

Vector naive_gemv_transpose(const Matrix& a, const Vector& y) {
  Vector x(a.cols());
  for (std::size_t j = 0; j < a.cols(); ++j) {
    double sum = 0.0;
    for (std::size_t i = 0; i < a.rows(); ++i) sum += a(i, j) * y[i];
    x[j] = sum;
  }
  return x;
}

}  // namespace

TEST(Matrix, BlockedGemvMatchesNaiveOnOddAndNonSquareShapes) {
  // Shapes straddle the 4-row blocking: multiples of 4, remainders 1–3,
  // tall, wide, and single-row/column edge cases.
  const std::size_t shapes[][2] = {{1, 1},  {1, 7},  {3, 5},  {4, 4},
                                   {5, 3},  {7, 1},  {8, 12}, {9, 2},
                                   {13, 6}, {64, 256}, {255, 33}};
  int seed = 100;
  for (const auto& shape : shapes) {
    const Matrix a = random_matrix(shape[0], shape[1], seed++);
    const Vector x = random_vector(shape[1], seed++);
    const Vector blocked = multiply(a, x);
    const Vector naive = naive_gemv(a, x);
    ASSERT_EQ(blocked.size(), naive.size());
    for (std::size_t i = 0; i < blocked.size(); ++i) {
      EXPECT_NEAR(blocked[i], naive[i], 1e-11 * (1.0 + std::abs(naive[i])))
          << shape[0] << "x" << shape[1] << " row " << i;
    }

    Vector into(shape[0]);
    multiply_into(a, x, into);
    EXPECT_EQ(into, blocked);  // same kernel, bit-identical
  }
}

TEST(Matrix, BlockedGemvTransposeMatchesNaiveOnOddAndNonSquareShapes) {
  const std::size_t shapes[][2] = {{1, 1}, {1, 9}, {2, 7},  {4, 4},
                                   {5, 5}, {6, 3}, {11, 8}, {33, 255}};
  int seed = 300;
  for (const auto& shape : shapes) {
    const Matrix a = random_matrix(shape[0], shape[1], seed++);
    const Vector y = random_vector(shape[0], seed++);
    const Vector blocked = multiply_transpose(a, y);
    const Vector naive = naive_gemv_transpose(a, y);
    ASSERT_EQ(blocked.size(), naive.size());
    for (std::size_t j = 0; j < blocked.size(); ++j) {
      EXPECT_NEAR(blocked[j], naive[j], 1e-11 * (1.0 + std::abs(naive[j])))
          << shape[0] << "x" << shape[1] << " col " << j;
    }

    Vector into(shape[1]);
    multiply_transpose_into(a, y, into);
    EXPECT_EQ(into, blocked);
  }
}

TEST(Matrix, BlockedGemvTransposeHandlesZeroEntriesInY) {
  // The seed kernel skipped rows where y[i] == 0; the blocked kernel is
  // branch-free and must produce the same result.
  Matrix a(6, 3);
  for (std::size_t i = 0; i < 6; ++i) {
    for (std::size_t j = 0; j < 3; ++j) {
      a(i, j) = static_cast<double>(i * 3 + j + 1);
    }
  }
  const Vector y{0.0, 2.0, 0.0, -1.0, 0.0, 0.5};
  const Vector fast = multiply_transpose(a, y);
  const Vector naive = naive_gemv_transpose(a, y);
  for (std::size_t j = 0; j < 3; ++j) EXPECT_DOUBLE_EQ(fast[j], naive[j]);
}

TEST(Matrix, MultiplyIntoValidatesShapes) {
  const Matrix a = random_matrix(4, 6, 42);
  Vector y(4);
  EXPECT_THROW(multiply_into(a, Vector(5), y), std::invalid_argument);
  Vector x(6);
  EXPECT_THROW(multiply_transpose_into(a, Vector(3), x),
               std::invalid_argument);
  // Destination is resized, not validated.
  Vector wrong_size(1);
  multiply_into(a, Vector(6), wrong_size);
  EXPECT_EQ(wrong_size.size(), 4u);
}

TEST(Matrix, MatrixMultiplyAssociatesWithIdentity) {
  const Matrix a = random_matrix(4, 5, 3);
  const Matrix ai = multiply(a, Matrix::identity(5));
  const Matrix ia = multiply(Matrix::identity(4), a);
  EXPECT_LT(max_abs_diff(a, ai), 1e-15);
  EXPECT_LT(max_abs_diff(a, ia), 1e-15);
}

TEST(Matrix, GramMatchesExplicitProduct) {
  const Matrix a = random_matrix(7, 3, 4);
  const Matrix g1 = gram(a);
  const Matrix g2 = multiply(transpose(a), a);
  EXPECT_LT(max_abs_diff(g1, g2), 1e-12);
}

TEST(Matrix, NormalizeColumnsUnitNorm) {
  Matrix a = random_matrix(10, 4, 5);
  normalize_columns(a);
  for (std::size_t j = 0; j < 4; ++j) {
    double acc = 0.0;
    for (std::size_t i = 0; i < 10; ++i) acc += a(i, j) * a(i, j);
    EXPECT_NEAR(acc, 1.0, 1e-12);
  }
}

TEST(Matrix, NormalizeColumnsLeavesZeroColumn) {
  Matrix a(3, 2);
  a(0, 1) = 2.0;
  normalize_columns(a);
  EXPECT_EQ(a(0, 0), 0.0);
  EXPECT_NEAR(a(0, 1), 1.0, 1e-15);
}

TEST(Cholesky, SolvesSpdSystem) {
  const Matrix b = random_matrix(5, 5, 6);
  Matrix spd = gram(b);
  for (std::size_t i = 0; i < 5; ++i) spd(i, i) += 5.0;
  const Vector x_true = random_vector(5, 7);
  const Vector rhs = multiply(spd, x_true);
  const Vector x = Cholesky(spd).solve(rhs);
  for (std::size_t i = 0; i < 5; ++i) EXPECT_NEAR(x[i], x_true[i], 1e-9);
}

TEST(Cholesky, RejectsNonSquare) {
  EXPECT_THROW(Cholesky(Matrix(3, 4)), std::invalid_argument);
}

TEST(Cholesky, RejectsIndefinite) {
  Matrix a = Matrix::identity(2);
  a(1, 1) = -1.0;
  EXPECT_THROW(Cholesky{a}, std::runtime_error);
}

TEST(Cholesky, FactorReproducesMatrix) {
  const Matrix b = random_matrix(4, 4, 8);
  Matrix spd = gram(b);
  for (std::size_t i = 0; i < 4; ++i) spd(i, i) += 3.0;
  const Cholesky chol(spd);
  const Matrix l = chol.factor();
  const Matrix llt = multiply(l, transpose(l));
  EXPECT_LT(max_abs_diff(spd, llt), 1e-10);
}

TEST(TriangularSolvers, RoundTrip) {
  Matrix l(3, 3);
  l(0, 0) = 2;
  l(1, 0) = 1;
  l(1, 1) = 3;
  l(2, 0) = -1;
  l(2, 1) = 0.5;
  l(2, 2) = 4;
  const Vector x_true{1.0, -2.0, 0.5};
  EXPECT_EQ(solve_lower(l, multiply(l, x_true)).size(), 3u);
  const Vector x = solve_lower(l, multiply(l, x_true));
  for (std::size_t i = 0; i < 3; ++i) EXPECT_NEAR(x[i], x_true[i], 1e-12);
}

TEST(TriangularSolvers, ZeroDiagonalThrows) {
  Matrix l = Matrix::identity(2);
  l(1, 1) = 0.0;
  EXPECT_THROW(solve_lower(l, Vector(2)), std::invalid_argument);
}

TEST(LinearOperator, FromMatrixMatchesDense) {
  const Matrix a = random_matrix(4, 6, 14);
  const LinearOperator op = LinearOperator::from_matrix(a);
  EXPECT_EQ(op.rows(), 4u);
  EXPECT_EQ(op.cols(), 6u);
  const Vector x = random_vector(6, 15);
  const Vector y1 = op.apply(x);
  const Vector y2 = multiply(a, x);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_NEAR(y1[i], y2[i], 1e-14);
}

TEST(LinearOperator, DimensionValidation) {
  const LinearOperator op =
      LinearOperator::from_matrix(random_matrix(4, 6, 16));
  EXPECT_THROW(op.apply(Vector(4)), std::invalid_argument);
  EXPECT_THROW(op.apply_adjoint(Vector(6)), std::invalid_argument);
}

TEST(LinearOperator, IdentityIsIdentity) {
  const LinearOperator id = LinearOperator::identity(4);
  const Vector x = random_vector(4, 23);
  EXPECT_EQ(id.apply(x), x);
  EXPECT_EQ(id.apply_adjoint(x), x);
}

// ---------------------------------------------------------------------------
// from_matrix on ±c_j matrices (sign-packed kernels) and on everything else
// (dense kernels).

Matrix sign_matrix(std::size_t rows, std::size_t cols, std::uint64_t seed) {
  rng::Xoshiro256 g(seed);
  Matrix a(rows, cols);
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t j = 0; j < cols; ++j) {
      a(i, j) = (g.next() >> 63) != 0 ? 1.0 : -1.0;
    }
  }
  return a;
}

/// ‖a − b‖₂ / ‖b‖₂.
double relative_error(const Vector& a, const Vector& b) {
  return norm2(a - b) / norm2(b);
}

TEST(SignPackedOperator, AdjointBitIdenticalToDense) {
  for (const auto& [m, n] : {std::pair<std::size_t, std::size_t>{96, 512},
                             {256, 512}}) {
    const Matrix a = sign_matrix(m, n, 30 + m);
    ASSERT_TRUE(detail::SignPackedMatrix::pack(a).has_value());
    const LinearOperator op = LinearOperator::from_matrix(a);
    for (std::uint64_t probe = 0; probe < 3; ++probe) {
      const Vector q = random_vector(m, 40 + probe);
      EXPECT_EQ(op.apply_adjoint(q), multiply_transpose(a, q))
          << m << "x" << n;
      Vector into;
      op.apply_adjoint_into(q, into);
      EXPECT_EQ(into, multiply_transpose(a, q)) << m << "x" << n;
    }
  }
}

TEST(SignPackedOperator, ForwardMatchesDense) {
  for (const auto& [m, n] : {std::pair<std::size_t, std::size_t>{96, 512},
                             {256, 512}}) {
    const Matrix a = sign_matrix(m, n, 50 + m);
    const LinearOperator op = LinearOperator::from_matrix(a);
    EXPECT_LT(adjoint_mismatch(op), 1e-12) << m << "x" << n;
    for (std::uint64_t probe = 0; probe < 3; ++probe) {
      const Vector x = random_vector(n, 60 + probe);
      EXPECT_LT(relative_error(op.apply(x), multiply(a, x)), 1e-12);
      Vector into;
      op.apply_into(x, into);
      EXPECT_EQ(into, op.apply(x));
    }
  }
}

TEST(SignPackedOperator, RaggedShapes) {
  // m and n off multiples of 4 (tail rows, padded column groups), and
  // larger shapes whose rows and columns split into eight-wide
  // interleaved runs plus a remainder.
  for (const auto& [m, n] : {std::pair<std::size_t, std::size_t>{5, 7},
                             {1, 1},
                             {3, 2},
                             {7, 5},
                             {37, 33},
                             {66, 130}}) {
    const Matrix a = sign_matrix(m, n, 70 + 3 * m + n);
    const LinearOperator op = LinearOperator::from_matrix(a);
    const Vector x = random_vector(n, 80 + m);
    const Vector q = random_vector(m, 90 + n);
    EXPECT_LT(relative_error(op.apply(x), multiply(a, x)), 1e-12)
        << m << "x" << n;
    EXPECT_EQ(op.apply_adjoint(q), multiply_transpose(a, q)) << m << "x" << n;
    EXPECT_LT(adjoint_mismatch(op), 1e-12) << m << "x" << n;
  }
}

TEST(SignPackedOperator, LeakyColumnScalesMatchDense) {
  // The RMPI matrix with integrator leakage: column j is ±(1 − λ)^(n−1−j).
  const std::size_t m = 96;
  const std::size_t n = 512;
  Matrix a = sign_matrix(m, n, 100);
  for (std::size_t j = 0; j < n; ++j) {
    const double w = std::pow(0.99, static_cast<double>(n - 1 - j));
    for (std::size_t i = 0; i < m; ++i) a(i, j) *= w;
  }
  ASSERT_TRUE(detail::SignPackedMatrix::pack(a).has_value());
  const LinearOperator op = LinearOperator::from_matrix(a);
  const Vector x = random_vector(n, 101);
  const Vector q = random_vector(m, 102);
  EXPECT_LT(relative_error(op.apply(x), multiply(a, x)), 1e-12);
  EXPECT_LT(relative_error(op.apply_adjoint(q), multiply_transpose(a, q)),
            1e-12);
  EXPECT_LT(adjoint_mismatch(op), 1e-12);
}

TEST(SignPackedOperator, OtherMatricesStayDense) {
  const std::size_t m = 24;
  const std::size_t n = 64;
  Matrix sparse_binary(m, n);
  rng::Xoshiro256 g(120);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      sparse_binary(i, j) = (g.next() >> 62) == 0 ? 1.0 : 0.0;
    }
  }
  Matrix zero_column = sign_matrix(m, n, 121);
  for (std::size_t i = 0; i < m; ++i) zero_column(i, 5) = 0.0;
  Matrix mixed_magnitude = sign_matrix(m, n, 122);
  mixed_magnitude(3, 9) = 2.0;
  Matrix not_a_number = sign_matrix(m, n, 124);
  not_a_number(7, 2) = std::nan("");
  EXPECT_FALSE(detail::SignPackedMatrix::pack(not_a_number).has_value());
  for (const Matrix& a : {random_matrix(m, n, 123), sparse_binary,
                          zero_column, mixed_magnitude}) {
    EXPECT_FALSE(detail::SignPackedMatrix::pack(a).has_value());
    const LinearOperator op = LinearOperator::from_matrix(a);
    for (std::uint64_t probe = 0; probe < 3; ++probe) {
      const Vector x = random_vector(n, 130 + probe);
      const Vector q = random_vector(m, 140 + probe);
      EXPECT_EQ(op.apply(x), multiply(a, x));
      EXPECT_EQ(op.apply_adjoint(q), multiply_transpose(a, q));
    }
  }
}

TEST(SignPackedOperator, SharedOperatorIsThreadSafe) {
  // One operator applied from every pool thread at once (as one Decoder
  // serves all workers): each thread's table scratch is its own, so every
  // result equals the serial one.
  const std::size_t m = 96;
  const std::size_t n = 512;
  const LinearOperator op =
      LinearOperator::from_matrix(sign_matrix(m, n, 150));
  constexpr std::size_t kTasks = 64;
  std::vector<Vector> xs;
  std::vector<Vector> qs;
  for (std::size_t t = 0; t < kTasks; ++t) {
    xs.push_back(random_vector(n, 200 + t));
    qs.push_back(random_vector(m, 300 + t));
  }
  std::vector<Vector> forward(kTasks);
  std::vector<Vector> adjoint(kTasks);
  parallel::ThreadPool pool(4);
  pool.parallel_for(0, kTasks, [&](std::size_t t) {
    for (int rep = 0; rep < 20; ++rep) {
      op.apply_into(xs[t], forward[t]);
      op.apply_adjoint_into(qs[t], adjoint[t]);
    }
  });
  for (std::size_t t = 0; t < kTasks; ++t) {
    EXPECT_EQ(forward[t], op.apply(xs[t])) << t;
    EXPECT_EQ(adjoint[t], op.apply_adjoint(qs[t])) << t;
  }
}

std::vector<std::uint64_t> bits_of(const Vector& v) {
  std::vector<std::uint64_t> bits;
  for (const double x : v) bits.push_back(std::bit_cast<std::uint64_t>(x));
  return bits;
}

/// Random row masks over m rows: each four-row block is wholly kept,
/// wholly lost or mixed, and so are the m % 4 tail rows; plus the all-kept,
/// all-lost and single-kept-row masks.
std::vector<std::vector<std::uint8_t>> random_row_masks(std::size_t m,
                                                        std::uint64_t seed) {
  rng::Xoshiro256 g(seed);
  std::vector<std::vector<std::uint8_t>> masks;
  for (int trial = 0; trial < 6; ++trial) {
    std::vector<std::uint8_t> keep(m);
    for (std::size_t first = 0; first < m; first += 4) {
      const std::uint64_t kind = g.next() % 3;
      for (std::size_t i = first; i < std::min(first + 4, m); ++i) {
        keep[i] = kind == 0 ? 1 : kind == 1 ? 0 : (g.next() >> 63) & 1u;
      }
    }
    masks.push_back(std::move(keep));
  }
  masks.emplace_back(m, std::uint8_t{1});
  masks.emplace_back(m, std::uint8_t{0});
  std::vector<std::uint8_t> one(m, 0);
  one[m - 1] = 1;
  masks.push_back(std::move(one));
  return masks;
}

TEST(RowMaskedOperator, BitIdenticalToApplyThenZero) {
  // The masked forward must equal the full product with the lost rows
  // zeroed, and the masked adjoint the full adjoint of q with the lost
  // entries zeroed, bit for bit: for ±1 and leaky sign-packed matrices
  // (which skip the lost rows' work) and a dense one (which does not).
  // Shapes cover m % 4 tails and eight-wide runs with remainders.
  for (const auto& [m, n] : {std::pair<std::size_t, std::size_t>{96, 512},
                             {37, 33},
                             {66, 130},
                             {7, 5},
                             {1, 3}}) {
    Matrix leaky = sign_matrix(m, n, 400 + m);
    for (std::size_t j = 0; j < n; ++j) {
      const double w = std::pow(0.99, static_cast<double>(n - 1 - j));
      for (std::size_t i = 0; i < m; ++i) leaky(i, j) *= w;
    }
    for (const Matrix& a :
         {sign_matrix(m, n, 410 + n), leaky, random_matrix(m, n, 420)}) {
      const LinearOperator op = LinearOperator::from_matrix(a);
      const Vector x = random_vector(n, 430 + m);
      const Vector q = random_vector(m, 440 + n);
      for (const auto& keep : random_row_masks(m, 450 + m + n)) {
        const LinearOperator masked = op.with_row_mask(keep);
        Vector forward_ref = op.apply(x);
        Vector q_zeroed = q;
        for (std::size_t i = 0; i < m; ++i) {
          if (keep[i] == 0) {
            forward_ref[i] = 0.0;
            q_zeroed[i] = 0.0;
          }
        }
        EXPECT_EQ(bits_of(masked.apply(x)), bits_of(forward_ref))
            << m << "x" << n;
        EXPECT_EQ(bits_of(masked.apply_adjoint(q)),
                  bits_of(op.apply_adjoint(q_zeroed)))
            << m << "x" << n;
      }
    }
  }
}

TEST(RowMaskedOperator, RejectsWrongMaskLength) {
  const LinearOperator op = LinearOperator::from_matrix(sign_matrix(8, 4, 1));
  EXPECT_THROW(op.with_row_mask(std::vector<std::uint8_t>(7, 1)),
               std::invalid_argument);
}

// The AVX-512 lookup kernel against the portable one, which is the
// reference: SignPackedMatrix::pack(a, kernel) builds one matrix per
// kernel, and every product must agree byte for byte.

/// Skips the calling test on a CPU without AVX-512F, where only the
/// portable kernel runs.
#define SKIP_WITHOUT_AVX512()                                              \
  if (!detail::kernel_supported(detail::LookupKernel::kAvx512)) {          \
    GTEST_SKIP() << "this CPU has no AVX-512F: only the portable "          \
                    "sign-packed kernel runs here";                         \
  }

/// The ±1 matrix and its leaky form, column j scaled by 0.99^(n−1−j).
std::vector<Matrix> unit_and_leaky(std::size_t m, std::size_t n,
                                   std::uint64_t seed) {
  Matrix leaky = sign_matrix(m, n, seed);
  for (std::size_t j = 0; j < n; ++j) {
    const double w = std::pow(0.99, static_cast<double>(n - 1 - j));
    for (std::size_t i = 0; i < m; ++i) leaky(i, j) *= w;
  }
  return {sign_matrix(m, n, seed), leaky};
}

/// No mask, one lost row, lost runs at the start and at the end, a lost
/// 32-row packet (as a lossy link drops) and every row lost.
std::vector<std::vector<std::uint8_t>> link_row_masks(std::size_t m) {
  std::vector<std::vector<std::uint8_t>> masks{{}};
  auto lose = [m](std::size_t first, std::size_t count) {
    std::vector<std::uint8_t> keep(m, 1);
    for (std::size_t i = first; i < std::min(first + count, m); ++i) {
      keep[i] = 0;
    }
    return keep;
  };
  masks.push_back(lose(m / 2, 1));
  masks.push_back(lose(0, (m + 2) / 3));
  masks.push_back(lose(m - (m + 2) / 3, m));
  masks.push_back(lose(m >= 64 ? 32 : 0, 32));
  masks.push_back(lose(0, m));
  return masks;
}

/// Both products of the two kernels on one input pair, compared by
/// `same` entry by entry.
template <typename Same>
void expect_kernels_agree(const Matrix& a, const Vector& x, const Vector& q,
                          Same same) {
  const auto avx512 = detail::SignPackedMatrix::pack(
      a, detail::LookupKernel::kAvx512);
  const auto portable = detail::SignPackedMatrix::pack(
      a, detail::LookupKernel::kPortable);
  ASSERT_TRUE(avx512.has_value() && portable.has_value());
  for (const auto& keep : link_row_masks(a.rows())) {
    Vector fast;
    Vector reference;
    avx512->multiply_into(x, fast, keep);
    portable->multiply_into(x, reference, keep);
    ASSERT_EQ(fast.size(), reference.size());
    for (std::size_t i = 0; i < fast.size(); ++i) {
      EXPECT_TRUE(same(fast[i], reference[i]))
          << a.rows() << "x" << a.cols() << " mask " << keep.size()
          << " forward row " << i << ": " << fast[i] << " vs "
          << reference[i];
    }
    avx512->multiply_transpose_into(q, fast, keep);
    portable->multiply_transpose_into(q, reference, keep);
    ASSERT_EQ(fast.size(), reference.size());
    for (std::size_t j = 0; j < fast.size(); ++j) {
      EXPECT_TRUE(same(fast[j], reference[j]))
          << a.rows() << "x" << a.cols() << " mask " << keep.size()
          << " adjoint column " << j << ": " << fast[j] << " vs "
          << reference[j];
    }
  }
}

bool same_bytes(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

TEST(SignPackedKernels, Avx512MatchesPortableBitForBit) {
  SKIP_WITHOUT_AVX512();
  // m and n straddle the eight-wide lane vectors, the 32-output passes and
  // the four-row blocks, and reach the decoder's 96×512 and 256×512.
  for (const std::size_t m : {1, 3, 5, 8, 9, 37, 87, 95, 96, 97, 256}) {
    for (const std::size_t n : {1, 5, 33, 130, 510, 512}) {
      for (const Matrix& a : unit_and_leaky(m, n, 500 + 7 * m + n)) {
        expect_kernels_agree(a, random_vector(n, 600 + m),
                             random_vector(m, 700 + n), same_bytes);
      }
    }
  }
}

TEST(SignPackedKernels, SignedZerosAndSubnormalsBitForBit) {
  SKIP_WITHOUT_AVX512();
  // −0.0 + −0.0 is the one sum whose sign depends on both operands, and
  // subnormal sums must not be flushed.
  const double tiny = std::numeric_limits<double>::denorm_min();
  const double values[] = {0.0, -0.0, tiny, -tiny, 3.0 * tiny, -0.0, 0.0,
                           std::numeric_limits<double>::min() / 4.0};
  for (const auto& [m, n] : {std::pair<std::size_t, std::size_t>{96, 512},
                             {37, 130},
                             {9, 5}}) {
    Vector x(n);
    Vector q(m);
    for (std::size_t j = 0; j < n; ++j) x[j] = values[(3 * j) % 8];
    for (std::size_t i = 0; i < m; ++i) q[i] = values[(5 * i + 1) % 8];
    Vector all_negative_zero(n, -0.0);
    for (const Matrix& a : unit_and_leaky(m, n, 800 + m)) {
      expect_kernels_agree(a, x, q, same_bytes);
      expect_kernels_agree(a, all_negative_zero, Vector(m, -0.0),
                           same_bytes);
    }
  }
}

TEST(SignPackedKernels, NonFiniteInputsKeepTheirClass) {
  SKIP_WITHOUT_AVX512();
  // NaN payloads may differ between kernels; every entry must still be NaN
  // in both or the same bytes in both (so ±Inf keeps its sign).
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const auto& [m, n] : {std::pair<std::size_t, std::size_t>{96, 512},
                             {97, 33},
                             {5, 130}}) {
    Vector x = random_vector(n, 900 + m);
    Vector q = random_vector(m, 910 + n);
    x[0] = inf;
    x[n / 2] = -inf;
    x[n - 1] = nan;
    q[0] = -inf;
    q[m / 2] = nan;
    q[m - 1] = inf;
    for (const Matrix& a : unit_and_leaky(m, n, 920 + m)) {
      expect_kernels_agree(a, x, q, [](double fast, double reference) {
        return (std::isnan(fast) && std::isnan(reference)) ||
               same_bytes(fast, reference);
      });
    }
  }
}

TEST(SignPackedKernels, SelectedKernelIsSupported) {
  const detail::LookupKernel kernel = detail::selected_kernel();
  EXPECT_TRUE(detail::kernel_supported(kernel));
  EXPECT_TRUE(detail::kernel_supported(detail::LookupKernel::kPortable));
  EXPECT_EQ(kernel == detail::LookupKernel::kAvx512,
            detail::kernel_supported(detail::LookupKernel::kAvx512));
  RecordProperty("sign_packed_kernel", detail::kernel_name(kernel));
}

TEST(OperatorNorm, MatchesKnownSingularValue) {
  // Diagonal operator: norm is max |diag|.
  Matrix d(3, 3);
  d(0, 0) = 1.0;
  d(1, 1) = -7.0;
  d(2, 2) = 3.0;
  const double est =
      operator_norm_estimate(LinearOperator::from_matrix(d), 200);
  EXPECT_NEAR(est, 7.0, 1e-6);
}

TEST(OperatorNorm, IdentityHasUnitNorm) {
  EXPECT_NEAR(operator_norm_estimate(LinearOperator::identity(10), 30), 1.0,
              1e-9);
}

TEST(AdjointMismatch, DetectsWrongAdjoint) {
  // Deliberately wrong adjoint (scaled by 2).
  const LinearOperator bad(
      3, 3, [](const Vector& x, Vector& y) { y = x; },
      [](const Vector& y, Vector& x) { x = 2.0 * y; });
  EXPECT_GT(adjoint_mismatch(bad), 0.1);
}

}  // namespace
}  // namespace csecg::linalg
