// SIMD kernel-layer tests (ctest -L kernels): scalar-vs-SIMD dispatch
// agreement for every vectorized kernel family at the tail-critical sizes
// N = 1, W-1, W, W+1 and a large size, on aligned and unaligned storage;
// the kPacked bit-identity contract across dispatch modes; the exp
// approximation's error bound; and the PlanExecutor pre-packed weight
// cache (per-call equivalence, optimizer-driven invalidation, stale-source
// fallback).
//
// Tolerances are ULP-scaled: per-lane-independent kernels reproduce the
// scalar op sequence exactly (0 ULP); kernels whose reduction order moves
// between instantiations (softmax lane merges, dot-product accumulators)
// get a small ULP budget instead.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "core/rng.hpp"
#include "core/simd.hpp"
#include "core/threadpool.hpp"
#include "core/trace.hpp"
#include "dist/dist_optimizer.hpp"
#include "frameworks/native_optimizers.hpp"
#include "frameworks/plan_executor.hpp"
#include "graph/executor.hpp"
#include "graph/visitor.hpp"
#include "models/builders.hpp"
#include "ops/conv2d.hpp"
#include "ops/elementwise.hpp"
#include "ops/gemm.hpp"
#include "ops/softmax.hpp"
#include "train/optimizers.hpp"
#include "train/update_kernels.hpp"

namespace d500 {
namespace {

/// Restores the process dispatch mode on scope exit, so a failing ASSERT
/// inside a forced-scalar section cannot leak the mode into other tests.
struct DispatchGuard {
  simd::KernelDispatch saved = simd::kernel_dispatch();
  ~DispatchGuard() { simd::set_kernel_dispatch(saved); }
};

/// Tail-critical element counts around the native vector width.
std::vector<std::int64_t> kernel_sizes() {
  const std::int64_t w = simd::kNativeWidth;
  std::vector<std::int64_t> sizes{1, w, w + 1, 1000};
  if (w > 1) sizes.insert(sizes.begin() + 1, w - 1);
  return sizes;
}

void expect_close_ulps(const float* ref, const float* got, std::int64_t n,
                       double ulps, const std::string& what) {
  for (std::int64_t i = 0; i < n; ++i) {
    const float tol = static_cast<float>(ulps) *
                      std::max(std::abs(ref[i]), 1.0f) *
                      std::numeric_limits<float>::epsilon();
    ASSERT_NEAR(ref[i], got[i], tol) << what << " i=" << i;
  }
}

/// Runs `kernel` (writing `n` floats into its argument) under both dispatch
/// modes and compares the outputs with a ULP-scaled tolerance.
template <class F>
void compare_dispatch_modes(std::int64_t n, double ulps,
                            const std::string& what, F&& kernel) {
  std::vector<float> scalar_out(static_cast<std::size_t>(n));
  std::vector<float> simd_out(static_cast<std::size_t>(n));
  DispatchGuard guard;
  simd::set_kernel_dispatch(simd::KernelDispatch::kScalar);
  kernel(scalar_out.data());
  simd::set_kernel_dispatch(simd::KernelDispatch::kSimd);
  kernel(simd_out.data());
  expect_close_ulps(scalar_out.data(), simd_out.data(), n, ulps, what);
}

/// Fills `n` floats starting at an optionally unaligned offset inside a
/// fresh buffer and returns a borrowed [n]-tensor over them: SIMD kernels
/// must not assume vector alignment of operand storage.
struct UnalignedInput {
  std::vector<float> storage;
  Tensor view;

  UnalignedInput(std::int64_t n, bool unaligned, Rng& rng, float lo, float hi)
      : storage(static_cast<std::size_t>(n) + 1) {
    float* base = storage.data() + (unaligned ? 1 : 0);
    for (std::int64_t i = 0; i < n; ++i) base[i] = rng.uniform(lo, hi);
    view = Tensor::borrow(base, {n});
  }
};

// ---------------------------------------------------------------------------
// exp approximation: shared by every instantiation, so its error bound is
// the determinism story for sigmoid/tanh/softmax.

TEST(SimdKernels, VexpMatchesStdExpWithinRelativeBound) {
  for (float x = -87.0f; x <= 88.0f; x += 0.37f) {
    const float got = simd::vexp(simd::Vec1::broadcast(x)).hsum();
    const float want = std::exp(x);
    ASSERT_NEAR(got, want, 4e-7f * std::max(want, 1e-30f)) << "x=" << x;
  }
  // Wide and scalar instantiations evaluate the same polynomial: identical.
  for (float x = -20.0f; x <= 20.0f; x += 0.11f) {
    alignas(64) float lanes[simd::kNativeWidth];
    simd::vexp(simd::VecN::broadcast(x)).storeu(lanes);
    const float s = simd::vexp(simd::Vec1::broadcast(x)).hsum();
    for (int l = 0; l < simd::kNativeWidth; ++l)
      ASSERT_EQ(lanes[l], s) << "x=" << x;
  }
}

// ---------------------------------------------------------------------------
// Elementwise activations and binary ops: per-lane independent, identical
// op sequence in both instantiations -> 0 ULP budget.

TEST(SimdKernels, ActivationsAgreeAcrossDispatch) {
  for (const auto kind :
       {Activation::kReLU, Activation::kSigmoid, Activation::kTanh}) {
    ActivationOp op(kind);
    for (const std::int64_t n : kernel_sizes()) {
      for (const bool unaligned : {false, true}) {
        Rng rng(17);
        UnalignedInput x(n, unaligned, rng, -4.0f, 4.0f);
        UnalignedInput dy(n, unaligned, rng, -1.0f, 1.0f);
        const std::string what = "activation kind=" +
                                 std::to_string(static_cast<int>(kind)) +
                                 " n=" + std::to_string(n) +
                                 (unaligned ? " unaligned" : "");
        compare_dispatch_modes(n, 0.0, what + " fwd", [&](float* out) {
          Tensor y = Tensor::borrow(out, {n});
          op.forward({&x.view}, {&y});
        });
        compare_dispatch_modes(n, 0.0, what + " bwd", [&](float* out) {
          Tensor y({n});
          op.forward({&x.view}, {&y});
          Tensor dx = Tensor::borrow(out, {n});
          dx.fill(0.0f);
          op.backward({&dy.view}, {&x.view}, {&y}, {&dx});
        });
      }
    }
  }
}

TEST(SimdKernels, BinaryOpsAgreeAcrossDispatch) {
  for (const auto kind : {BinaryKind::kAdd, BinaryKind::kSub, BinaryKind::kMul}) {
    BinaryOp op(kind);
    for (const std::int64_t n : kernel_sizes()) {
      for (const bool unaligned : {false, true}) {
        Rng rng(23);
        UnalignedInput a(n, unaligned, rng, -2.0f, 2.0f);
        UnalignedInput b(n, unaligned, rng, -2.0f, 2.0f);
        const std::string what = "binary kind=" +
                                 std::to_string(static_cast<int>(kind)) +
                                 " n=" + std::to_string(n) +
                                 (unaligned ? " unaligned" : "");
        compare_dispatch_modes(n, 0.0, what, [&](float* out) {
          Tensor c = Tensor::borrow(out, {n});
          op.forward({&a.view, &b.view}, {&c});
        });
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Tensor helpers (axpy/scale/add/sub/mul): exact scalar op sequence in the
// vector body -> bitwise equal across dispatch modes.

TEST(SimdKernels, TensorHelpersBitIdenticalAcrossDispatch) {
  for (const std::int64_t n : kernel_sizes()) {
    Rng rng(31);
    Tensor x({n}), y0({n});
    x.fill_uniform(rng, -2, 2);
    y0.fill_uniform(rng, -2, 2);
    compare_dispatch_modes(n, 0.0, "axpy n=" + std::to_string(n),
                           [&](float* out) {
                             Tensor y = Tensor::borrow(out, {n});
                             std::memcpy(out, y0.data(), y0.bytes());
                             axpy(0.37f, x, y);
                           });
    compare_dispatch_modes(n, 0.0, "scale n=" + std::to_string(n),
                           [&](float* out) {
                             Tensor y = Tensor::borrow(out, {n});
                             std::memcpy(out, y0.data(), y0.bytes());
                             scale(y, -1.75f);
                           });
    compare_dispatch_modes(n, 0.0, "mul n=" + std::to_string(n),
                           [&](float* out) {
                             Tensor c = Tensor::borrow(out, {n});
                             mul(x, y0, c);
                           });
  }
}

// ---------------------------------------------------------------------------
// Softmax: the fused online pass keeps per-lane running maxima/sums whose
// merge order differs between instantiations -> small ULP budget.

TEST(SimdKernels, SoftmaxRowsAgreeAcrossDispatch) {
  const std::int64_t B = 3;
  for (const std::int64_t c : kernel_sizes()) {
    Rng rng(41);
    UnalignedInput x(B * c, true, rng, -6.0f, 6.0f);
    compare_dispatch_modes(
        B * c, 64.0, "softmax C=" + std::to_string(c), [&](float* out) {
          softmax_rows(x.view.data(), out, B, c);
        });
    // Rows are normalized distributions in both modes.
    DispatchGuard guard;
    for (const auto dm :
         {simd::KernelDispatch::kScalar, simd::KernelDispatch::kSimd}) {
      simd::set_kernel_dispatch(dm);
      std::vector<float> y(static_cast<std::size_t>(B * c));
      softmax_rows(x.view.data(), y.data(), B, c);
      for (std::int64_t b = 0; b < B; ++b) {
        double sum = 0.0;
        for (std::int64_t i = 0; i < c; ++i) {
          const float v = y[static_cast<std::size_t>(b * c + i)];
          ASSERT_GE(v, 0.0f);
          sum += v;
        }
        ASSERT_NEAR(sum, 1.0, 1e-5) << "C=" << c << " row=" << b;
      }
    }
  }
}

TEST(SimdKernels, SoftmaxBackwardAgreesAcrossDispatch) {
  SoftmaxOp op;
  const std::int64_t B = 2;
  for (const std::int64_t c : kernel_sizes()) {
    Rng rng(43);
    UnalignedInput x(B * c, false, rng, -3.0f, 3.0f);
    UnalignedInput dy(B * c, true, rng, -1.0f, 1.0f);
    Tensor x2 = Tensor::borrow(const_cast<float*>(x.view.data()), {B, c});
    Tensor dy2 = Tensor::borrow(const_cast<float*>(dy.view.data()), {B, c});
    compare_dispatch_modes(
        B * c, 64.0, "softmax bwd C=" + std::to_string(c), [&](float* out) {
          Tensor y({B, c});
          op.forward({&x2}, {&y});
          Tensor dx = Tensor::borrow(out, {B, c});
          dx.fill(0.0f);
          op.backward({&dy2}, {&x2}, {&y}, {&dx});
        });
  }
}

// ---------------------------------------------------------------------------
// GEMM: kBlocked shares the per-element fma accumulation between
// instantiations except in its dot-product reductions (transposed
// helpers), so forward gets 0 ULP; kPacked is contractually bit-identical
// across dispatch modes AND against per-call/pre-packed operands.

TEST(SimdKernels, GemmBackendsAgreeAcrossDispatch) {
  for (const std::int64_t n : kernel_sizes()) {
    const std::int64_t M = 5, K = 7;
    Rng rng(53);
    UnalignedInput a(M * K, true, rng, -1.0f, 1.0f);
    UnalignedInput b(K * n, true, rng, -1.0f, 1.0f);
    for (const auto backend : {GemmBackend::kBlocked, GemmBackend::kPacked}) {
      compare_dispatch_modes(
          M * n, 0.0,
          std::string("gemm ") + gemm_backend_name(backend) + " N=" +
              std::to_string(n),
          [&](float* out) {
            std::memset(out, 0, static_cast<std::size_t>(M * n) * 4);
            gemm(backend, M, n, K, 1.0f, a.view.data(), b.view.data(), 0.0f,
                 out);
          });
    }
  }
}

TEST(SimdKernels, PackedBitIdenticalAcrossDispatchAndPrepack) {
  const std::int64_t M = 23, N = 2 * simd::kNativeWidth + 3, K = 31;
  Rng rng(59);
  Tensor A({M, K}), B({K, N});
  A.fill_uniform(rng, -1, 1);
  B.fill_uniform(rng, -1, 1);
  std::vector<float> pa(static_cast<std::size_t>(gemm_packed_a_elems(M, K)));
  std::vector<float> pb(static_cast<std::size_t>(gemm_packed_b_elems(K, N)));

  DispatchGuard guard;
  std::vector<std::vector<float>> results;
  for (const auto dm :
       {simd::KernelDispatch::kScalar, simd::KernelDispatch::kSimd}) {
    simd::set_kernel_dispatch(dm);
    gemm_pack_a(M, K, A.data(), pa.data());
    gemm_pack_b(K, N, B.data(), pb.data());
    std::vector<float> per_call(static_cast<std::size_t>(M * N));
    std::vector<float> prepacked(per_call.size());
    gemm(GemmBackend::kPacked, M, N, K, 1.0f, A.data(), B.data(), 0.0f,
         per_call.data());
    gemm_packed_ex(M, N, K, 1.0f, A.data(), pa.data(), B.data(), pb.data(),
                   false, 0.0f, prepacked.data());
    ASSERT_EQ(std::memcmp(per_call.data(), prepacked.data(),
                          per_call.size() * 4),
              0)
        << "per-call vs prepacked, dispatch="
        << simd::kernel_dispatch_name(dm);
    results.push_back(std::move(per_call));
  }
  ASSERT_EQ(
      std::memcmp(results[0].data(), results[1].data(), results[0].size() * 4),
      0)
      << "kPacked scalar vs simd dispatch";
}

// Single-row-block kPacked GEMMs (M <= MR) stream their B panels: a full
// panel of a non-transposed B is read in place, a transposed or ragged one
// is packed into a per-thread tile just before its one use. Row r of C
// depends only on row r of A, so the first M rows of an (M + MR)-row GEMM —
// which takes the full-workspace path — are the reference: streamed and
// prepacked results must match them bit for bit, at the panel-tail widths,
// at K values that exercise both the 8 x 8 transpose blocks and their
// element tails, with and without the fused epilogue, in both dispatch
// modes (kScalar also selects the portable transpose, and the reference
// must match across modes), at 1 and 4 threads.

TEST(SimdKernels, PackedSingleRowBlockMatchesWorkspaceAndPrepackBitwise) {
  DispatchGuard dispatch_guard;
  const std::int64_t mr = gemm_micro_mr(), nr = gemm_micro_nr();
  const std::int64_t max_m = 7, big_m = max_m + mr;  // big_m spans 2+ blocks
  std::vector<std::int64_t> widths{nr - 1, nr, nr + 1, 3 * nr + 5};
  widths.erase(std::remove(widths.begin(), widths.end(), 0), widths.end());
  const Activation chain[] = {Activation::kTanh, Activation::kReLU};
  enum class Epi { kNone, kAlphaBeta, kBias, kChainSavePre };

  for (const int threads : {1, 4}) {
    ThreadPool::instance().reset(threads);
    for (const auto dm :
         {simd::KernelDispatch::kScalar, simd::KernelDispatch::kSimd}) {
      simd::set_kernel_dispatch(dm);
      for (const std::int64_t K : {1, 7, 8, 1029}) {
        for (const std::int64_t N : widths) {
          for (const bool bt : {false, true}) {
            Rng rng(113 + static_cast<std::uint64_t>(K * 7 + N));
            Tensor A({big_m, K}), B(bt ? Shape{N, K} : Shape{K, N});
            Tensor bias({N}), C0({big_m, N});
            A.fill_uniform(rng, -1, 1);
            B.fill_uniform(rng, -1, 1);
            bias.fill_uniform(rng, -1, 1);
            C0.fill_uniform(rng, -1, 1);  // beta != 0 reads it
            std::vector<float> panels(
                static_cast<std::size_t>(gemm_packed_b_elems(K, N)));
            if (bt)
              gemm_pack_bt(N, K, B.data(), panels.data());
            else
              gemm_pack_b(K, N, B.data(), panels.data());

            for (const Epi kind : {Epi::kNone, Epi::kAlphaBeta, Epi::kBias,
                                   Epi::kChainSavePre}) {
              const float alpha = kind == Epi::kAlphaBeta ? 0.75f : 1.0f;
              const float beta = kind == Epi::kAlphaBeta ? 0.5f : 0.0f;
              // Runs one GEMM over the first m rows; returns C then the
              // saved pre-chain values (empty unless kChainSavePre).
              auto run = [&](std::int64_t m, const float* pb) {
                std::vector<float> c(C0.data(), C0.data() + m * N);
                std::vector<float> pre(
                    kind == Epi::kChainSavePre ? static_cast<std::size_t>(m * N)
                                               : 0);
                GemmEpilogue epi;
                if (kind == Epi::kBias || kind == Epi::kChainSavePre)
                  epi.bias = bias.data();
                if (kind == Epi::kChainSavePre) {
                  epi.chain = chain;
                  epi.chain_len = 2;
                  epi.save_pre = pre.data();
                }
                gemm_packed_ex(m, N, K, alpha, A.data(), nullptr, B.data(), pb,
                               bt, beta, c.data(), &epi);
                c.insert(c.end(), pre.begin(), pre.end());
                return c;
              };
              const std::vector<float> ref = run(big_m, nullptr);
              // kScalar packs transposed panels with the element loop, so
              // this also pins the 8 x 8 transpose blocks to it.
              simd::set_kernel_dispatch(simd::KernelDispatch::kScalar);
              const std::vector<float> scalar_ref = run(big_m, nullptr);
              simd::set_kernel_dispatch(dm);
              ASSERT_EQ(std::memcmp(ref.data(), scalar_ref.data(),
                                    ref.size() * 4),
                        0)
                  << "workspace path vs scalar dispatch, N=" << N
                  << " K=" << K << " bt=" << bt;
              for (std::int64_t M = 1; M <= max_m; ++M) {
                const std::string what =
                    "M=" + std::to_string(M) + " N=" + std::to_string(N) +
                    " K=" + std::to_string(K) + " bt=" + std::to_string(bt) +
                    " epi=" + std::to_string(static_cast<int>(kind)) +
                    " threads=" + std::to_string(threads) + " dispatch=" +
                    simd::kernel_dispatch_name(dm);
                const std::size_t mn = static_cast<std::size_t>(M * N);
                for (const float* pb : {static_cast<const float*>(nullptr),
                                        static_cast<const float*>(
                                            panels.data())}) {
                  const std::vector<float> got = run(M, pb);
                  const char* path = pb ? "prepacked" : "streamed";
                  ASSERT_EQ(std::memcmp(got.data(), ref.data(), mn * 4), 0)
                      << path << " C vs workspace " << what;
                  if (kind == Epi::kChainSavePre) {
                    ASSERT_EQ(std::memcmp(got.data() + mn,
                                          ref.data() + big_m * N, mn * 4),
                              0)
                        << path << " save_pre vs workspace " << what;
                  }
                }
              }
            }
          }
        }
      }
    }
  }
  ThreadPool::instance().reset(1);
}

// ---------------------------------------------------------------------------
// Shared optimizer update kernels (train/update_kernels) against a scalar
// oracle that spells out the same fma pairing with std::fma: bitwise equal
// under both dispatch modes, at lengths with and without a vector tail and
// across several kUpdateGrain chunks.

struct UpdateCase {
  Tensor g, s1, s2, p;
};

UpdateCase update_case(std::int64_t n, std::uint64_t seed) {
  Rng rng(seed);
  UpdateCase c{Tensor({n}), Tensor({n}), Tensor({n}), Tensor({n})};
  c.g.fill_uniform(rng, -1, 1);
  c.s1.fill_uniform(rng, 0, 1);  // non-negative: sqrt'd by some rules
  c.s2.fill_uniform(rng, 0, 1);
  c.p.fill_uniform(rng, -1, 1);
  return c;
}

void expect_bits(const Tensor& got, const Tensor& want,
                 const std::string& what) {
  ASSERT_EQ(got.elements(), want.elements()) << what;
  for (std::int64_t i = 0; i < got.elements(); ++i) {
    std::uint32_t a, b;
    std::memcpy(&a, got.data() + i, 4);
    std::memcpy(&b, want.data() + i, 4);
    ASSERT_EQ(a, b) << what << " differs at " << i << ": " << got.at(i)
                    << " vs " << want.at(i);
  }
}

TEST(SimdKernels, UpdateKernelsMatchScalarFmaOracleBitwise) {
  const float lr = 0.0123f, mu = 0.9f, eps = 1e-8f, b1 = 0.9f, b2 = 0.999f;
  const std::int64_t t = 3;
  using Kernel = std::function<void(UpdateCase&)>;
  using Oracle = std::function<void(float g, float& s1, float& s2, float& p)>;
  const float bc1 = 1.0f - std::pow(b1, static_cast<float>(t));
  const float bc2 = 1.0f - std::pow(b2, static_cast<float>(t));
  struct Rule {
    std::string name;
    Kernel kernel;
    Oracle oracle;
  };
  const std::vector<Rule> rules = {
      {"sgd", [&](UpdateCase& c) { update::sgd(c.g, c.p, lr); },
       [&](float g, float&, float&, float& p) { p = std::fma(-lr, g, p); }},
      {"momentum",
       [&](UpdateCase& c) { update::momentum(c.g, c.s1, c.p, lr, mu, false); },
       [&](float g, float& v, float&, float& p) {
         v = std::fma(-lr, g, v * mu);
         p = p + v;
       }},
      {"nesterov",
       [&](UpdateCase& c) { update::momentum(c.g, c.s1, c.p, lr, mu, true); },
       [&](float g, float& v, float&, float& p) {
         v = std::fma(-lr, g, v * mu);
         p = std::fma(-lr, g, std::fma(mu, v, p));
       }},
      {"adagrad",
       [&](UpdateCase& c) { update::adagrad(c.g, c.s1, c.p, lr, eps); },
       [&](float g, float& a, float&, float& p) {
         a = std::fma(g, g, a);
         p = p - lr * g / (std::sqrt(a) + eps);
       }},
      {"rmsprop",
       [&](UpdateCase& c) { update::rmsprop(c.g, c.s1, c.p, lr, mu, eps); },
       [&](float g, float& ms, float&, float& p) {
         ms = std::fma(mu, ms, (1.0f - mu) * g * g);
         p = p - lr * g / (std::sqrt(ms) + eps);
       }},
      {"adam",
       [&](UpdateCase& c) {
         update::adam(c.g, c.s1, c.s2, c.p, lr, b1, b2, eps, t);
       },
       [&](float g, float& m, float& v, float& p) {
         m = std::fma(b1, m, (1.0f - b1) * g);
         v = std::fma(b2, v, (1.0f - b2) * g * g);
         p = p - lr * (m / bc1) / (std::sqrt(v / bc2) + eps);
       }},
  };

  DispatchGuard guard;
  for (const std::int64_t n : {1, 7, 8, 16387}) {
    for (const Rule& rule : rules) {
      UpdateCase want = update_case(n, 97 + static_cast<std::uint64_t>(n));
      for (std::int64_t i = 0; i < n; ++i)
        rule.oracle(want.g.at(i), want.s1.at(i), want.s2.at(i), want.p.at(i));
      for (const auto dm :
           {simd::KernelDispatch::kScalar, simd::KernelDispatch::kSimd}) {
        simd::set_kernel_dispatch(dm);
        UpdateCase got = update_case(n, 97 + static_cast<std::uint64_t>(n));
        rule.kernel(got);
        const std::string what = rule.name + " n=" + std::to_string(n) +
                                 " dispatch=" + simd::kernel_dispatch_name(dm);
        expect_bits(got.p, want.p, what + " param");
        expect_bits(got.s1, want.s1, what + " state");
        expect_bits(got.s2, want.s2, what + " state2");
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Optimizer updates write every multiply-add as an explicit fma, so their
// scalar and vector bodies round identically: full training trajectories
// must agree across dispatch modes (softmax-family kernels inject small
// ULP noise, hence tolerance).

TEST(SimdKernels, AdamTrainingTrajectoryAgreesAcrossDispatch) {
  ThreadPool::instance().reset(1);
  const Model m = models::mlp(4, 24, {16}, 4, 71);
  TensorMap feeds;
  {
    Network net = build_network(m);
    Rng rng(73);
    for (const auto& iname : net.inputs()) {
      Tensor t(net.input_shape(iname));
      if (iname == "labels")
        for (std::int64_t i = 0; i < t.elements(); ++i)
          t.at(i) = static_cast<float>(rng.below(4));
      else
        t.fill_uniform(rng, -1, 1);
      feeds[iname] = std::move(t);
    }
  }

  DispatchGuard guard;
  std::vector<TensorMap> params;
  for (const auto dm :
       {simd::KernelDispatch::kScalar, simd::KernelDispatch::kSimd}) {
    simd::set_kernel_dispatch(dm);
    PlanExecutor exec(build_network(m), "simd-adam", ExecOptions{});
    FusedAdamOptimizer opt(exec, "test", 1e-2);
    opt.set_loss_value("loss");
    for (int s = 0; s < 3; ++s) opt.train(feeds);
    TensorMap snapshot;
    for (const auto& pname : exec.network().parameters())
      snapshot[pname] = exec.network().fetch_tensor(pname);
    params.push_back(std::move(snapshot));
  }
  for (const auto& [pname, t] : params[0]) {
    const Tensor& other = params[1].at(pname);
    ASSERT_EQ(t.shape(), other.shape()) << pname;
    expect_close_ulps(t.data(), other.data(), t.elements(), 256.0,
                      "adam param " + pname);
  }
}

// ---------------------------------------------------------------------------
// Pre-packed weight cache: two optimizer steps under prepack on vs off
// must stay bitwise equal — step 2's forward runs on weights the optimizer
// just rewrote in place (same storage, so only the params_version bump of
// the mutable fetch_tensor marks the panels stale), and any stale panel
// shows up as divergent parameters. Snapshots read through a const
// Network so the test itself never bumps the version.

/// Random feeds for a models::mlp network with 4 classes.
TensorMap mlp_feeds(const Model& m, std::uint64_t seed) {
  TensorMap feeds;
  Network net = build_network(m);
  Rng rng(seed);
  for (const auto& iname : net.inputs()) {
    Tensor t(net.input_shape(iname));
    if (iname == "labels")
      for (std::int64_t i = 0; i < t.elements(); ++i)
        t.at(i) = static_cast<float>(rng.below(4));
    else
      t.fill_uniform(rng, -1, 1);
    feeds[iname] = std::move(t);
  }
  return feeds;
}

TEST(SimdKernels, PrepackCacheInvalidatesAfterOptimizerSteps) {
  ThreadPool::instance().reset(1);
  const Model m = models::mlp(4, 24, {16, 12}, 4, 79);
  const TensorMap feeds = mlp_feeds(m, 83);

  // Each input trains two steps on `exec`, calling after(s) after step s.
  using Train = std::function<void(PlanExecutor& exec,
                                   const std::function<void(int)>& after)>;
  auto steps = [&](Optimizer& opt, const std::function<void(int)>& after) {
    opt.set_loss_value("loss");
    for (int s = 0; s < 2; ++s) {
      opt.train(feeds);
      after(s);
    }
  };
  const std::vector<std::pair<std::string, Train>> inputs = {
      {"FusedSgd momentum",
       [&](PlanExecutor& exec, const std::function<void(int)>& after) {
         FusedSgdOptimizer opt(exec, "test",
                               FusedSgdOptimizer::Rule::kMomentum, 1e-2, 0.9);
         steps(opt, after);
       }},
      {"Adam via ThreeStepOptimizer::train",
       [&](PlanExecutor& exec, const std::function<void(int)>& after) {
         AdamOptimizer opt(exec, 1e-2);
         steps(opt, after);
       }},
      {"Adam via BucketedDecentralized, world 1",
       [&](PlanExecutor& exec, const std::function<void(int)>& after) {
         SimMpi mpi(1);
         mpi.run([&](Communicator& comm) {
           BucketOptions bo;
           bo.overlap = 1;
           BucketedDecentralized opt(
               std::make_unique<AdamOptimizer>(exec, 1e-2), comm, bo);
           steps(opt, after);
         });
       }},
  };

  for (const auto& [input, train] : inputs) {
    std::vector<TensorMap> trajectories;
    for (const bool prepack : {false, true}) {
      ExecOptions o;
      o.prepack_weights = prepack;
      PlanExecutor exec(build_network(m),
                        prepack ? "prepack-on" : "prepack-off", o);
      const Network& net = exec.network();
      TensorMap snapshot;
      train(exec, [&](int s) {
        for (const auto& pname : net.parameters())
          snapshot[pname + "@" + std::to_string(s)] = net.fetch_tensor(pname);
      });
      trajectories.push_back(std::move(snapshot));
    }
    ASSERT_EQ(trajectories[0].size(), trajectories[1].size()) << input;
    for (const auto& [key, t] : trajectories[0]) {
      const Tensor& other = trajectories[1].at(key);
      ASSERT_EQ(t.shape(), other.shape()) << input << " " << key;
      EXPECT_EQ(std::memcmp(t.data(), other.data(), t.bytes()), 0)
          << input << ": prepack on/off diverged at " << key;
    }
  }
}

// Repack on reuse: panels are packed only where a forward reuses them. The
// first forward at a parameter version runs on per-call packing; the second
// at the same version repacks (one plan/prepack span); an optimizer step
// uninstalls them, so a training loop never repacks. Outputs and trained
// parameters stay bitwise equal to a prepack-off executor throughout.

/// Runs `fn` with tracing on and returns the plan/prepack spans it opened.
template <class F>
int count_prepack_spans(F&& fn) {
  Trace::reset();
  Trace::enable();
  fn();
  Trace::disable();
  int n = 0;
  for (const auto& tt : Trace::collect())
    for (const TraceRecord& r : tt.records)
      if (r.kind == TraceKind::kSpanBegin &&
          std::string_view(r.category) == "plan" &&
          std::string_view(r.name) == "prepack")
        ++n;
  return n;
}

TEST(SimdKernels, PrepackRepacksOnlyOnSecondForwardAtOneVersion) {
  ThreadPool::instance().reset(1);
  const Model m = models::mlp(4, 24, {16, 12}, 4, 79);
  const TensorMap feeds = mlp_feeds(m, 83);
  ExecOptions on, off;
  off.prepack_weights = false;
  PlanExecutor exec_on(build_network(m), "prepack-on", on);
  PlanExecutor exec_off(build_network(m), "prepack-off", off);
  AdamOptimizer opt_on(exec_on, 1e-2), opt_off(exec_off, 1e-2);
  opt_on.set_loss_value("loss");
  opt_off.set_loss_value("loss");

  auto expect_same_outputs = [&](const std::string& when) {
    const TensorMap want = exec_off.inference(feeds);
    const TensorMap got = exec_on.inference(feeds);
    for (const auto& [name, t] : want)
      ASSERT_EQ(std::memcmp(t.data(), got.at(name).data(), t.bytes()), 0)
          << name << " " << when;
  };
  auto forward_spans = [&] {
    return count_prepack_spans([&] { (void)exec_on.inference(feeds); });
  };
  auto train_spans = [&](int steps) {
    int n = 0;
    for (int s = 0; s < steps; ++s) {
      n += count_prepack_spans([&] { opt_on.train(feeds); });
      opt_off.train(feeds);
    }
    return n;
  };

  // The first step compiles the training plan (which serves inference
  // too) and runs its forward unpacked; its update moves the version.
  EXPECT_EQ(train_spans(1), 0) << "first forward must not pack";
  EXPECT_EQ(forward_spans(), 0) << "first forward at a version must not pack";
  EXPECT_EQ(forward_spans(), 1) << "second forward at one version repacks";
  EXPECT_EQ(forward_spans(), 0) << "warm forward must not repack";
  expect_same_outputs("with installed panels");

  // A training step consumes the installed panels, then moves the version.
  EXPECT_EQ(train_spans(1), 0);
  EXPECT_EQ(forward_spans(), 0) << "first forward after a step is unpacked";
  expect_same_outputs("second forward after a step (repacks)");
  EXPECT_EQ(forward_spans(), 0) << "panels stay installed";
  expect_same_outputs("warm forward after a step");

  // Back-to-back training steps never repack.
  EXPECT_EQ(train_spans(3), 0) << "a warm training step repacked";
  expect_same_outputs("first forward after training");
  const Network& net_on = exec_on.network();
  const Network& net_off = exec_off.network();
  for (const auto& pname : net_on.parameters()) {
    const Tensor& a = net_on.fetch_tensor(pname);
    const Tensor& b = net_off.fetch_tensor(pname);
    EXPECT_EQ(std::memcmp(a.data(), b.data(), a.bytes()), 0) << pname;
  }
  Trace::reset();
}

// Op-level cache contract: panels are consumed only while the weight input
// still aliases the source they were packed from.

TEST(SimdKernels, MatMulPrepackedPanelsMatchAndFallBackWhenStale) {
  const std::int64_t M = 6, K = 9, N = 2 * simd::kNativeWidth + 1;
  Rng rng(89);
  Tensor A({M, K}), B({K, N}), C_ref({M, N}), C({M, N});
  A.fill_uniform(rng, -1, 1);
  B.fill_uniform(rng, -1, 1);

  MatMulOp op(GemmBackend::kPacked);
  op.forward({&A, &B}, {&C_ref});

  std::vector<float> panels(
      static_cast<std::size_t>(gemm_packed_b_elems(K, N)));
  gemm_pack_b(K, N, B.data(), panels.data());
  op.set_prepacked_b(panels.data(), B.data());
  op.forward({&A, &B}, {&C});
  EXPECT_EQ(std::memcmp(C.data(), C_ref.data(), C.bytes()), 0)
      << "prepacked panels vs per-call packing";

  // Weights mutate in place (what an optimizer does): stale panels must be
  // refreshed by re-packing, after which results track the new weights.
  for (std::int64_t i = 0; i < B.elements(); ++i) B.at(i) += 0.25f;
  gemm_pack_b(K, N, B.data(), panels.data());
  op.forward({&A, &B}, {&C});
  op.set_prepacked_b(nullptr, nullptr);
  op.forward({&A, &B}, {&C_ref});
  EXPECT_EQ(std::memcmp(C.data(), C_ref.data(), C.bytes()), 0)
      << "repacked panels vs per-call packing after weight update";

  // A different tensor at the weight input must bypass the stale panels.
  Tensor B2({K, N});
  B2.fill_uniform(rng, -1, 1);
  op.set_prepacked_b(panels.data(), B.data());  // packed from B, not B2
  op.forward({&A, &B2}, {&C});
  op.set_prepacked_b(nullptr, nullptr);
  op.forward({&A, &B2}, {&C_ref});
  EXPECT_EQ(std::memcmp(C.data(), C_ref.data(), C.bytes()), 0)
      << "stale-source fallback";
}

// ---------------------------------------------------------------------------
// GEMM epilogue fusion: under EpilogueMode::kFused the bias + activation
// chain applies in registers at tile store time; under kPost it runs as the
// pre-fusion separate sweeps. The two must be BITWISE identical — forward
// outputs and every backward gradient — at the tile-tail boundary sizes
// (M, N around the microkernel's MR / NR), with prepacked weights on or
// off, at any thread count, under either dispatch mode.

/// Restores the process epilogue mode on scope exit.
struct EpilogueModeGuard {
  EpilogueMode saved = gemm_epilogue_mode();
  ~EpilogueModeGuard() { set_gemm_epilogue_mode(saved); }
};

/// One Linear forward + backward with the given epilogue chain installed,
/// in the current epilogue mode.
void run_linear_epilogue(const Tensor& X, const Tensor& W, const Tensor& bias,
                         const Tensor& dY, const std::vector<Activation>& chain,
                         bool prepack, Tensor& Y, Tensor& dX, Tensor& dW,
                         Tensor& db) {
  LinearOp op(GemmBackend::kPacked);
  for (const Activation a : chain) ASSERT_TRUE(op.try_fuse_epilogue(a));
  std::vector<float> panels;
  if (prepack) {
    const std::int64_t out = W.dim(0), in = W.dim(1);
    panels.resize(static_cast<std::size_t>(gemm_packed_b_elems(in, out)));
    gemm_pack_bt(out, in, W.data(), panels.data());
    op.set_prepacked_w(panels.data(), W.data());
  }
  op.forward({&X, &W, &bias}, {&Y});
  dX.fill(0.0f);
  op.backward({&dY}, {&X, &W, &bias}, {&Y}, {&dX, &dW, &db});
}

TEST(SimdKernels, LinearEpilogueFusedMatchesPostBitwise) {
  EpilogueModeGuard mode_guard;
  DispatchGuard dispatch_guard;
  const std::int64_t mr = gemm_micro_mr(), nr = gemm_micro_nr();
  std::vector<std::int64_t> sizes{1, mr - 1, mr, mr + 1, nr - 1, nr, nr + 1};
  std::sort(sizes.begin(), sizes.end());
  sizes.erase(std::unique(sizes.begin(), sizes.end()), sizes.end());
  while (!sizes.empty() && sizes.front() < 1) sizes.erase(sizes.begin());
  const std::int64_t K = 17;
  const std::vector<std::vector<Activation>> chains = {
      {},  // bias-only fusion (Linear's headline single-kernel case)
      {Activation::kReLU},
      {Activation::kTanh, Activation::kSigmoid, Activation::kReLU,
       Activation::kTanh}};

  for (const int threads : {1, 2, 4}) {
    ThreadPool::instance().reset(threads);
    for (const auto dm :
         {simd::KernelDispatch::kScalar, simd::KernelDispatch::kSimd}) {
      simd::set_kernel_dispatch(dm);
      for (const std::int64_t M : sizes) {
        for (const std::int64_t N : sizes) {
          Rng rng(97 + static_cast<std::uint64_t>(M * 131 + N));
          Tensor X({M, K}), W({N, K}), bias({N}), dY({M, N});
          X.fill_uniform(rng, -1, 1);
          W.fill_uniform(rng, -1, 1);
          bias.fill_uniform(rng, -1, 1);
          dY.fill_uniform(rng, -1, 1);
          for (const auto& chain : chains) {
            for (const bool prepack : {false, true}) {
              Tensor Yf({M, N}), dXf({M, K}), dWf({N, K}), dbf({N});
              Tensor Yp({M, N}), dXp({M, K}), dWp({N, K}), dbp({N});
              set_gemm_epilogue_mode(EpilogueMode::kFused);
              run_linear_epilogue(X, W, bias, dY, chain, prepack, Yf, dXf,
                                  dWf, dbf);
              set_gemm_epilogue_mode(EpilogueMode::kPost);
              run_linear_epilogue(X, W, bias, dY, chain, prepack, Yp, dXp,
                                  dWp, dbp);
              const std::string what =
                  "M=" + std::to_string(M) + " N=" + std::to_string(N) +
                  " chain=" + std::to_string(chain.size()) +
                  " prepack=" + std::to_string(prepack) +
                  " threads=" + std::to_string(threads) + " dispatch=" +
                  simd::kernel_dispatch_name(dm);
              ASSERT_EQ(std::memcmp(Yf.data(), Yp.data(), Yf.bytes()), 0)
                  << "Y " << what;
              ASSERT_EQ(std::memcmp(dXf.data(), dXp.data(), dXf.bytes()), 0)
                  << "dX " << what;
              ASSERT_EQ(std::memcmp(dWf.data(), dWp.data(), dWf.bytes()), 0)
                  << "dW " << what;
              ASSERT_EQ(std::memcmp(dbf.data(), dbp.data(), dbf.bytes()), 0)
                  << "dbias " << what;
            }
          }
        }
      }
    }
  }
  ThreadPool::instance().reset(1);
}

TEST(SimdKernels, LinearEpilogueFusedMatchesPostBitwiseLarge) {
  EpilogueModeGuard mode_guard;
  DispatchGuard dispatch_guard;
  const std::int64_t M = 1000, N = 1000, K = 64;
  Rng rng(101);
  Tensor X({M, K}), W({N, K}), bias({N}), dY({M, N});
  X.fill_uniform(rng, -1, 1);
  W.fill_uniform(rng, -1, 1);
  bias.fill_uniform(rng, -1, 1);
  dY.fill_uniform(rng, -1, 1);
  const std::vector<Activation> chain{Activation::kTanh, Activation::kSigmoid,
                                      Activation::kReLU, Activation::kTanh};
  ThreadPool::instance().reset(4);
  for (const auto dm :
       {simd::KernelDispatch::kScalar, simd::KernelDispatch::kSimd}) {
    simd::set_kernel_dispatch(dm);
    Tensor Yf({M, N}), dXf({M, K}), dWf({N, K}), dbf({N});
    Tensor Yp({M, N}), dXp({M, K}), dWp({N, K}), dbp({N});
    set_gemm_epilogue_mode(EpilogueMode::kFused);
    run_linear_epilogue(X, W, bias, dY, chain, true, Yf, dXf, dWf, dbf);
    set_gemm_epilogue_mode(EpilogueMode::kPost);
    run_linear_epilogue(X, W, bias, dY, chain, true, Yp, dXp, dWp, dbp);
    const char* what = simd::kernel_dispatch_name(dm);
    ASSERT_EQ(std::memcmp(Yf.data(), Yp.data(), Yf.bytes()), 0) << what;
    ASSERT_EQ(std::memcmp(dXf.data(), dXp.data(), dXf.bytes()), 0) << what;
    ASSERT_EQ(std::memcmp(dWf.data(), dWp.data(), dWf.bytes()), 0) << what;
    ASSERT_EQ(std::memcmp(dbf.data(), dbp.data(), dbf.bytes()), 0) << what;
  }
  ThreadPool::instance().reset(1);
}

TEST(SimdKernels, ConvEpilogueFusedMatchesPostBitwise) {
  EpilogueModeGuard mode_guard;
  DispatchGuard dispatch_guard;
  Conv2DParams p;
  p.pad = 1;
  const std::int64_t Nb = 2, C = 3, H = 7, Wd = 7, F = 5;
  Rng rng(103);
  Tensor X({Nb, C, H, Wd}), W({F, C, 3, 3}), bias({F});
  X.fill_uniform(rng, -1, 1);
  W.fill_uniform(rng, -1, 1);
  bias.fill_uniform(rng, -1, 1);
  const std::vector<std::vector<Activation>> chains = {
      {Activation::kReLU},
      {Activation::kSigmoid, Activation::kReLU, Activation::kTanh}};
  for (const int threads : {1, 4}) {
    ThreadPool::instance().reset(threads);
    for (const auto dm :
         {simd::KernelDispatch::kScalar, simd::KernelDispatch::kSimd}) {
      simd::set_kernel_dispatch(dm);
      for (const auto& chain : chains) {
        std::vector<Tensor> ys, dxs;
        for (const EpilogueMode mode :
             {EpilogueMode::kFused, EpilogueMode::kPost}) {
          set_gemm_epilogue_mode(mode);
          Conv2DOp op(p, ConvBackend::kIm2col);
          for (const Activation a : chain)
            ASSERT_TRUE(op.try_fuse_epilogue(a));
          const Shape ys_shape =
              op.output_shapes({X.shape(), W.shape(), bias.shape()})[0];
          Tensor Y(ys_shape), dY(ys_shape);
          Rng grng(107);
          dY.fill_uniform(grng, -1, 1);
          op.forward({&X, &W, &bias}, {&Y});
          Tensor dX(X.shape()), dW(W.shape()), db(bias.shape());
          op.backward({&dY}, {&X, &W, &bias}, {&Y}, {&dX, &dW, &db});
          ys.push_back(std::move(Y));
          dxs.push_back(std::move(dX));
        }
        const std::string what = "chain=" + std::to_string(chain.size()) +
                                 " threads=" + std::to_string(threads) +
                                 " dispatch=" +
                                 simd::kernel_dispatch_name(dm);
        ASSERT_EQ(std::memcmp(ys[0].data(), ys[1].data(), ys[0].bytes()), 0)
            << "Y " << what;
        ASSERT_EQ(std::memcmp(dxs[0].data(), dxs[1].data(), dxs[0].bytes()),
                  0)
            << "dX " << what;
      }
    }
  }
  ThreadPool::instance().reset(1);
}

}  // namespace
}  // namespace d500
