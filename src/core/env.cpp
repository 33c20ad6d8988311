#include "core/env.hpp"

#include <cstdlib>
#include <filesystem>

#include "core/error.hpp"

namespace d500 {

namespace {
bool env_flag(const char* name) {
  const char* v = std::getenv(name);
  return v != nullptr && v[0] != '\0' && v[0] != '0';
}
}  // namespace

BenchScale bench_scale() {
  static const BenchScale scale = [] {
    if (env_flag("D500_FAST")) return BenchScale::kFast;
    if (env_flag("D500_FULL")) return BenchScale::kFull;
    return BenchScale::kDefault;
  }();
  return scale;
}

std::uint64_t bench_seed() {
  static const std::uint64_t seed = [] {
    if (const char* v = std::getenv("D500_SEED"))
      return static_cast<std::uint64_t>(std::strtoull(v, nullptr, 10));
    return std::uint64_t{0xD500'2019'0613'0001ULL};
  }();
  return seed;
}

std::string trace_path() {
  const char* v = std::getenv("D500_TRACE");
  return v != nullptr ? std::string(v) : std::string();
}

std::string arena_mode_setting() {
  const char* v = std::getenv("D500_ARENA");
  return v != nullptr ? std::string(v) : std::string("arena");
}

std::string kernel_dispatch_setting() {
  const char* v = std::getenv("D500_KERNEL");
  return v != nullptr ? std::string(v) : std::string("auto");
}

std::string gemm_backend_setting() {
  const char* v = std::getenv("D500_GEMM");
  return v != nullptr ? std::string(v) : std::string("packed");
}

std::string gemm_epilogue_setting() {
  const char* v = std::getenv("D500_GEMM_EPILOGUE");
  return v != nullptr ? std::string(v) : std::string("fused");
}

bool overlap_comm_setting() { return env_flag("D500_OVERLAP"); }

std::string passes_setting() {
  const char* v = std::getenv("D500_PASSES");
  return v != nullptr ? std::string(v) : std::string("all");
}

std::size_t bucket_cap_bytes() {
  if (const char* v = std::getenv("D500_BUCKET_KB")) {
    const auto kb = std::strtoull(v, nullptr, 10);
    if (kb > 0) return static_cast<std::size_t>(kb) * 1024;
  }
  return std::size_t{1024} * 1024;
}

bool metrics_setting() {
  const char* v = std::getenv("D500_METRICS");
  if (v == nullptr) return true;
  const std::string s(v);
  return !(s == "0" || s == "off" || s == "OFF" || s == "false");
}

std::string perf_setting() {
  const char* v = std::getenv("D500_PERF");
  return v != nullptr ? std::string(v) : std::string("auto");
}

std::int64_t serve_max_batch() {
  if (const char* v = std::getenv("D500_SERVE_MAX_BATCH")) {
    const auto n = std::strtoll(v, nullptr, 10);
    if (n > 0) return n;
  }
  return 32;
}

std::int64_t serve_deadline_us() {
  if (const char* v = std::getenv("D500_SERVE_DEADLINE_US")) {
    const auto n = std::strtoll(v, nullptr, 10);
    if (n > 0) return n;
  }
  return 2000;
}

int serve_sessions_setting() {
  if (const char* v = std::getenv("D500_SERVE_SESSIONS")) {
    const auto n = std::strtol(v, nullptr, 10);
    if (n > 0) return static_cast<int>(n);
  }
  return 2;
}

std::string serve_policy_setting() {
  const char* v = std::getenv("D500_SERVE_POLICY");
  return v != nullptr ? std::string(v) : std::string("adaptive");
}

std::string serve_buckets_setting() {
  const char* v = std::getenv("D500_SERVE_BUCKETS");
  return v != nullptr ? std::string(v) : std::string("1,2,4,8,16,32");
}

bool faults_enabled_setting() {
  const bool on = env_flag("D500_FAULTS");
  if (!on) {
    // Misconfiguration must fail loudly: a schedule knob without the
    // master switch would otherwise silently run fault-free.
    static const char* const knobs[] = {
        "D500_FAULT_SEED",      "D500_FAULT_DROP",    "D500_FAULT_RETRIES",
        "D500_FAULT_TIMEOUT_US", "D500_FAULT_SLOW_RANK", "D500_FAULT_SLOW_US",
        "D500_FAULT_LATE"};
    for (const char* k : knobs)
      D500_CHECK_MSG(std::getenv(k) == nullptr,
                     k << " is set but D500_FAULTS is not — set D500_FAULTS=1 "
                          "to enable fault injection");
  }
  return on;
}

std::uint64_t fault_seed_setting() {
  if (const char* v = std::getenv("D500_FAULT_SEED"))
    return static_cast<std::uint64_t>(std::strtoull(v, nullptr, 10));
  return 0;
}

double fault_drop_setting() {
  if (const char* v = std::getenv("D500_FAULT_DROP")) {
    const double p = std::strtod(v, nullptr);
    D500_CHECK_MSG(p >= 0.0 && p < 1.0,
                   "D500_FAULT_DROP must be in [0, 1), got " << p);
    return p;
  }
  return 0.0;
}

int fault_retries_setting() {
  if (const char* v = std::getenv("D500_FAULT_RETRIES")) {
    const auto n = std::strtol(v, nullptr, 10);
    D500_CHECK_MSG(n >= 0, "D500_FAULT_RETRIES must be >= 0");
    return static_cast<int>(n);
  }
  return 3;
}

std::int64_t fault_timeout_us_setting() {
  if (const char* v = std::getenv("D500_FAULT_TIMEOUT_US")) {
    const auto n = std::strtoll(v, nullptr, 10);
    D500_CHECK_MSG(n >= 0, "D500_FAULT_TIMEOUT_US must be >= 0");
    return n;
  }
  return 50;
}

int fault_slow_rank_setting() {
  if (const char* v = std::getenv("D500_FAULT_SLOW_RANK"))
    return static_cast<int>(std::strtol(v, nullptr, 10));
  return -1;
}

std::int64_t fault_slow_us_setting() {
  if (const char* v = std::getenv("D500_FAULT_SLOW_US")) {
    const auto n = std::strtoll(v, nullptr, 10);
    D500_CHECK_MSG(n >= 0, "D500_FAULT_SLOW_US must be >= 0");
    return n;
  }
  return 200;
}

double fault_late_setting() {
  if (const char* v = std::getenv("D500_FAULT_LATE")) {
    const double p = std::strtod(v, nullptr);
    D500_CHECK_MSG(p >= 0.0 && p < 1.0,
                   "D500_FAULT_LATE must be in [0, 1), got " << p);
    return p;
  }
  return 0.0;
}

std::size_t trace_buffer_records() {
  if (const char* v = std::getenv("D500_TRACE_BUFSZ")) {
    const auto n = std::strtoull(v, nullptr, 10);
    if (n > 0) return static_cast<std::size_t>(n);
  }
  return 65536;
}

std::string scratch_dir() {
  static const std::string dir = [] {
    std::string d = "/tmp/d500";
    if (const char* v = std::getenv("D500_TMPDIR")) d = v;
    std::filesystem::create_directories(d);
    return d;
  }();
  return dir;
}

}  // namespace d500
