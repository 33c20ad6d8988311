// Workload entry points and the constants BENCHMARK.json records.
#pragma once

#include "harness.hpp"

namespace e2e {

// serve-mlp-open offered rates (requests/s) and the latency limit on the
// high phase's p99. Absolute constants, sized for a 4-core x86 host where
// the two sessions serve 22-30k req/s at batch 1 (65-90 us per request)
// and about 120k req/s at batch 32.
inline constexpr double kServeLowRps = 2000;
inline constexpr double kServeHighRps = 40000;
inline constexpr double kServeOverloadRps = 200000;
inline constexpr double kServeSloP99Ms = 10.0;

/// train-resnet-dp and train-mlp-dp.
void run_train(const Args& args, Result& r);
/// serve-mlp-open.
void run_serve(const Args& args, Result& r);

}  // namespace e2e
