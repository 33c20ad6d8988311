// GEMM kernel tests: all backends vs. the naive reference, parameterized
// over shapes (the property sweep style the paper's Level 0 validation
// uses over DeepBench sizes).
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <tuple>

#include "core/rng.hpp"
#include "core/simd.hpp"
#include "core/threadpool.hpp"
#include "ops/gemm.hpp"
#include "ops/validation.hpp"

namespace d500 {
namespace {

void fill_random(std::vector<float>& v, Rng& rng) {
  for (auto& x : v) x = rng.uniform(-1.0f, 1.0f);
}

class GemmBackendShapes
    : public ::testing::TestWithParam<
          std::tuple<GemmBackend, std::tuple<int, int, int>>> {};

TEST_P(GemmBackendShapes, MatchesNaive) {
  const auto [backend, dims] = GetParam();
  const auto [M, N, K] = dims;
  Rng rng(42);
  std::vector<float> A(static_cast<std::size_t>(M) * K);
  std::vector<float> B(static_cast<std::size_t>(K) * N);
  std::vector<float> C_ref(static_cast<std::size_t>(M) * N);
  std::vector<float> C(static_cast<std::size_t>(M) * N);
  fill_random(A, rng);
  fill_random(B, rng);

  gemm(GemmBackend::kNaive, M, N, K, 1.0f, A.data(), B.data(), 0.0f,
       C_ref.data());
  gemm(backend, M, N, K, 1.0f, A.data(), B.data(), 0.0f, C.data());
  for (std::size_t i = 0; i < C.size(); ++i)
    ASSERT_NEAR(C[i], C_ref[i], 1e-3f) << "i=" << i;
}

INSTANTIATE_TEST_SUITE_P(
    AllBackends, GemmBackendShapes,
    ::testing::Combine(
        ::testing::Values(GemmBackend::kNaive, GemmBackend::kBlocked,
                          GemmBackend::kPacked),
        ::testing::Values(std::tuple{1, 1, 1}, std::tuple{4, 4, 4},
                          std::tuple{17, 33, 9}, std::tuple{64, 64, 64},
                          std::tuple{5, 128, 7}, std::tuple{100, 1, 50},
                          std::tuple{1, 200, 3}, std::tuple{37, 41, 43})),
    [](const auto& info) {
      const GemmBackend backend = std::get<0>(info.param);
      const auto dims = std::get<1>(info.param);
      return std::string(gemm_backend_name(backend)) + "_" +
             std::to_string(std::get<0>(dims)) + "x" +
             std::to_string(std::get<1>(dims)) + "x" +
             std::to_string(std::get<2>(dims));
    });

TEST(Gemm, AlphaBetaSemantics) {
  const int M = 3, N = 4, K = 5;
  Rng rng(1);
  std::vector<float> A(M * K), B(K * N), C(M * N, 2.0f), C2(M * N, 2.0f);
  fill_random(A, rng);
  fill_random(B, rng);
  // C = 0.5*A*B + 3*C
  gemm(GemmBackend::kBlocked, M, N, K, 0.5f, A.data(), B.data(), 3.0f,
       C.data());
  gemm(GemmBackend::kNaive, M, N, K, 0.5f, A.data(), B.data(), 3.0f,
       C2.data());
  for (int i = 0; i < M * N; ++i) ASSERT_NEAR(C[i], C2[i], 1e-4f);
}

TEST(Gemm, ZeroKDegenerate) {
  std::vector<float> C(6, 5.0f);
  gemm(GemmBackend::kPacked, 2, 3, 0, 1.0f, nullptr, nullptr, 0.0f, C.data());
  for (float x : C) EXPECT_EQ(x, 0.0f);
}

TEST(Gemm, TransposedHelpersMatchNaive) {
  // Sizes larger than the tile constants so the blocked paths cross block
  // boundaries; every backend must agree with the hand-rolled reference.
  const int M = 70, N = 37, K = 130;
  Rng rng(3);
  // gemm_at_b: C(MxN) += A^T x B with A stored KxM.
  std::vector<float> A(K * M), B(K * N), C_ref(M * N, 0.0f);
  fill_random(A, rng);
  fill_random(B, rng);
  for (int i = 0; i < M; ++i)
    for (int j = 0; j < N; ++j)
      for (int k = 0; k < K; ++k)
        C_ref[i * N + j] += A[k * M + i] * B[k * N + j];
  for (GemmBackend backend :
       {GemmBackend::kNaive, GemmBackend::kBlocked, GemmBackend::kPacked}) {
    std::vector<float> C(M * N, 0.0f);
    gemm_at_b(backend, M, N, K, A.data(), B.data(), C.data());
    for (int i = 0; i < M * N; ++i)
      ASSERT_NEAR(C[i], C_ref[i], 1e-3f)
          << "backend=" << gemm_backend_name(backend);
  }

  // gemm_a_bt: C(MxN) += A x B^T with B stored NxK.
  std::vector<float> A2(M * K), B2(N * K), D_ref(M * N, 0.0f);
  fill_random(A2, rng);
  fill_random(B2, rng);
  for (int i = 0; i < M; ++i)
    for (int j = 0; j < N; ++j)
      for (int k = 0; k < K; ++k)
        D_ref[i * N + j] += A2[i * K + k] * B2[j * K + k];
  for (GemmBackend backend :
       {GemmBackend::kNaive, GemmBackend::kBlocked, GemmBackend::kPacked}) {
    std::vector<float> D(M * N, 0.0f);
    gemm_a_bt(backend, M, N, K, A2.data(), B2.data(), D.data());
    for (int i = 0; i < M * N; ++i)
      ASSERT_NEAR(D[i], D_ref[i], 1e-3f)
          << "backend=" << gemm_backend_name(backend);
  }
}

// kPacked gemm_at_b packs A^T panels and adds every term, where kBlocked
// skips exact zeros of A; with C written from zero and a finite B the two
// are bitwise equal (gemm.hpp). A holds +0 and -0 entries so the skipped
// terms are exercised, at shapes on both sides of the single-row-block
// split, under both dispatch modes and at 1 and 4 threads.
TEST(Gemm, PackedAtBMatchesBlockedBitwiseWithZerosInA) {
  const simd::KernelDispatch saved = simd::kernel_dispatch();
  for (const int threads : {1, 4}) {
    ThreadPool::instance().reset(threads);
    for (const auto dm :
         {simd::KernelDispatch::kScalar, simd::KernelDispatch::kSimd}) {
      simd::set_kernel_dispatch(dm);
      for (const auto& [M, N, K] :
           {std::tuple{1, 1, 1}, std::tuple{5, 17, 3}, std::tuple{6, 16, 8},
            std::tuple{13, 40, 4}, std::tuple{70, 37, 130},
            std::tuple{7, 33, 65}}) {
        Rng rng(static_cast<std::uint64_t>(M * 1000 + N * 10 + K));
        std::vector<float> A(static_cast<std::size_t>(K) * M);
        std::vector<float> B(static_cast<std::size_t>(K) * N);
        fill_random(A, rng);
        fill_random(B, rng);
        for (std::size_t i = 0; i < A.size(); i += 3)
          A[i] = (i % 2 == 0) ? 0.0f : -0.0f;
        const std::size_t mn = static_cast<std::size_t>(M) * N;
        std::vector<float> blocked(mn, 0.0f), packed(mn, 0.0f);
        gemm_at_b(GemmBackend::kBlocked, M, N, K, A.data(), B.data(),
                  blocked.data());
        gemm_at_b(GemmBackend::kPacked, M, N, K, A.data(), B.data(),
                  packed.data());
        const std::string what = std::to_string(M) + "x" + std::to_string(N) +
                                 "x" + std::to_string(K) + " threads=" +
                                 std::to_string(threads) + " dispatch=" +
                                 simd::kernel_dispatch_name(dm);
        ASSERT_EQ(std::memcmp(blocked.data(), packed.data(), mn * 4), 0)
            << "accumulate into zeros " << what;
        // beta = 0 overwrites whatever C held, on both backends.
        std::vector<float> b0(mn, 7.0f), p0(mn, -3.0f);
        gemm_at_b(GemmBackend::kBlocked, M, N, K, A.data(), B.data(),
                  b0.data(), 0.0f);
        gemm_at_b(GemmBackend::kPacked, M, N, K, A.data(), B.data(),
                  p0.data(), 0.0f);
        ASSERT_EQ(std::memcmp(b0.data(), blocked.data(), mn * 4), 0) << what;
        ASSERT_EQ(std::memcmp(p0.data(), blocked.data(), mn * 4), 0) << what;
      }
    }
  }
  simd::set_kernel_dispatch(saved);
  ThreadPool::instance().reset(1);
}

// The documented edge of that equality: a zero of A against an infinite B
// is skipped by kBlocked but adds 0 * inf = NaN on kPacked.
TEST(Gemm, PackedAtBDiffersFromBlockedOnlyThroughNonFiniteB) {
  const float A[2] = {0.0f, 1.0f};  // K=2, M=1
  const float B[2] = {std::numeric_limits<float>::infinity(), 2.0f};
  float blocked = 0.0f, packed = 0.0f;
  gemm_at_b(GemmBackend::kBlocked, 1, 1, 2, A, B, &blocked);
  gemm_at_b(GemmBackend::kPacked, 1, 1, 2, A, B, &packed);
  EXPECT_EQ(blocked, 2.0f);
  EXPECT_TRUE(std::isnan(packed));
}

TEST(MatMulOp, ShapeInferenceAndForward) {
  MatMulOp op;
  EXPECT_EQ(op.output_shapes({{2, 3}, {3, 4}}), (std::vector<Shape>{{2, 4}}));
  EXPECT_THROW(op.output_shapes({{2, 3}, {4, 4}}), ShapeError);

  Tensor A({2, 2}, std::vector<float>{1, 2, 3, 4});
  Tensor B({2, 2}, std::vector<float>{5, 6, 7, 8});
  Tensor C({2, 2});
  op.forward({&A, &B}, {&C});
  EXPECT_FLOAT_EQ(C.at(0), 19.0f);
  EXPECT_FLOAT_EQ(C.at(3), 50.0f);
}

TEST(MatMulOp, FlopsCount) {
  MatMulOp op;
  EXPECT_EQ(op.forward_flops({{2, 3}, {3, 4}}), 2ull * 2 * 4 * 3);
}

TEST(LinearOp, MatchesManualComputation) {
  LinearOp op;
  Tensor X({1, 2}, std::vector<float>{1, 2});
  Tensor W({3, 2}, std::vector<float>{1, 0, 0, 1, 1, 1});
  Tensor b({3}, std::vector<float>{0.5f, -0.5f, 0.0f});
  Tensor Y({1, 3});
  op.forward({&X, &W, &b}, {&Y});
  EXPECT_FLOAT_EQ(Y.at(0), 1.5f);
  EXPECT_FLOAT_EQ(Y.at(1), 1.5f);
  EXPECT_FLOAT_EQ(Y.at(2), 3.0f);
}

TEST(LinearOp, GradientCheck) {
  LinearOp op;
  Rng rng(5);
  Tensor X({3, 4});
  Tensor W({2, 4});
  Tensor b({2});
  X.fill_uniform(rng, -1, 1);
  W.fill_uniform(rng, -1, 1);
  b.fill_uniform(rng, -1, 1);
  const auto res = test_gradient(op, {X, W, b});
  EXPECT_TRUE(res.passed) << "max_rel=" << res.max_rel_error
                          << " max_abs=" << res.max_abs_error;
}

TEST(MatMulOp, GradientCheck) {
  MatMulOp op(GemmBackend::kBlocked);
  Rng rng(6);
  Tensor A({3, 5});
  Tensor B({5, 2});
  A.fill_uniform(rng, -1, 1);
  B.fill_uniform(rng, -1, 1);
  const auto res = test_gradient(op, {A, B});
  EXPECT_TRUE(res.passed) << "max_rel=" << res.max_rel_error;
}

}  // namespace
}  // namespace d500
