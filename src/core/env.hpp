// Benchmark sizing knobs. Every bench binary runs with no arguments; the
// environment selects problem scale so the whole suite stays runnable on a
// single CPU core:
//   D500_FAST=1  — CI-sized problems (seconds total)
//   default      — paper-shaped problems scaled to CPU (tens of seconds)
//   D500_FULL=1  — closest to paper sizes (minutes)
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace d500 {

enum class BenchScale { kFast, kDefault, kFull };

/// Reads D500_FAST / D500_FULL once; kDefault otherwise.
BenchScale bench_scale();

/// Scale-dependent pick helper.
template <typename T>
T scale_pick(T fast, T def, T full) {
  switch (bench_scale()) {
    case BenchScale::kFast: return fast;
    case BenchScale::kFull: return full;
    default: return def;
  }
}

/// Global benchmark seed: D500_SEED env var or the fixed default, so every
/// run prints and honors an explicit seed (reproducibility pillar).
std::uint64_t bench_seed();

/// Scratch directory for dataset containers and JIT artifacts
/// (D500_TMPDIR, default /tmp/d500).
std::string scratch_dir();

/// Chrome-trace output path (D500_TRACE). Empty means tracing stays off
/// unless enabled programmatically (core/trace).
std::string trace_path();

/// Allocator mode string (D500_ARENA): "arena" (default, recycling free
/// lists) or "malloc" (aligned allocate/free per call). Parsed by
/// core/arena; any other value falls back to "arena".
std::string arena_mode_setting();

/// Per-thread trace ring capacity in records (D500_TRACE_BUFSZ, default
/// 65536; core/trace rounds up to a power of two).
std::size_t trace_buffer_records();

/// Kernel dispatch mode string (D500_KERNEL): "auto" (default; SIMD when
/// compiled in), "scalar" (force the one-lane instantiation of every
/// kernel), or "simd". Parsed once by core/simd; any other value falls
/// back to "auto".
std::string kernel_dispatch_setting();

/// Default GEMM backend string (D500_GEMM): "packed" (default), "blocked",
/// or "naive". Used where no explicit backend attribute is given (graph
/// import, op defaults). Parsed by ops/gemm; unknown values fall back to
/// "packed".
std::string gemm_backend_setting();

/// GEMM epilogue mode string (D500_GEMM_EPILOGUE): "fused" (default —
/// bias/activation-chain epilogues apply in registers at microkernel tile
/// store time) or "post" (the pre-fusion two-pass path: GEMM, then
/// separate sweeps over C; kept as the differential oracle). Parsed once
/// by ops/gemm; set_gemm_epilogue_mode overrides it programmatically.
std::string gemm_epilogue_setting();

/// Communication/compute overlap default (D500_OVERLAP): when set (and not
/// "0"), distributed optimizers launch bucketed nonblocking allreduces
/// during backprop instead of blocking ring allreduces after it. Read
/// fresh on every call (tests and benches flip it mid-process).
bool overlap_comm_setting();

/// Plan-time graph pass selection (D500_PASSES, default "all"): a spec
/// string parsed by graph/passes — "all"/"none", a comma list of pass
/// names, or "-name" exclusions. Read fresh on every call (tests and the
/// ci-passes-off preset flip it per-process).
std::string passes_setting();

/// Gradient bucket size cap in bytes (D500_BUCKET_KB, default 1024 KiB).
/// A bucket always holds at least one gradient tensor, so a cap smaller
/// than the largest tensor degenerates to one bucket per tensor. Read
/// fresh on every call.
std::size_t bucket_cap_bytes();

/// Metrics registry master switch (D500_METRICS, default on): "0"/"off"
/// disable counter/gauge/histogram emission process-wide. Resolved once by
/// core/metrics_registry's gate; MetricsRegistry::enable()/disable()
/// override it programmatically.
bool metrics_setting();

/// Hardware-counter profiling mode (D500_PERF): "auto" (default — try
/// perf_event_open, fall back to rusage/clock) or "off" (never attempt the
/// syscall). Read fresh on every call (tests flip it per-process).
std::string perf_setting();

// Inference-serving knobs (src/serve). All read fresh on every call: tests
// and the serving bench flip policies per-process.

/// Dynamic-batching cap (D500_SERVE_MAX_BATCH, default 32): the most
/// single-sample requests one launch may coalesce. Clamped by the session's
/// largest plan bucket.
std::int64_t serve_max_batch();

/// Batching deadline in microseconds (D500_SERVE_DEADLINE_US, default
/// 2000): a queued request never waits longer than this for its batch to
/// fill before the deadline/adaptive policies launch early.
std::int64_t serve_deadline_us();

/// Session count (D500_SERVE_SESSIONS, default 2): how many
/// InferenceSessions a SessionPool runs concurrently.
int serve_sessions_setting();

/// Batching policy string (D500_SERVE_POLICY, default "adaptive"):
/// "none" | "fixed" | "deadline" | "adaptive" (serve/pool parses it;
/// unknown values fall back to "adaptive").
std::string serve_policy_setting();

/// Plan-cache bucket list (D500_SERVE_BUCKETS, default "1,2,4,8,16,32"):
/// comma-separated batch sizes the session precompiles plans for; requests
/// pad up to the nearest bucket (serve/session parses it).
std::string serve_buckets_setting();

// Fault-injection knobs (src/dist/fault). D500_FAULTS is the master
// switch: when it is unset, every D500_FAULT_* knob must also be unset —
// faults_enabled_setting() D500_CHECKs this so a schedule knob without the
// master switch fails loudly instead of silently running fault-free. All
// read fresh on every call (tests flip them per-process).

/// Fault-injection master switch (D500_FAULTS): unset/"0" off, anything
/// else on. With it on, every SimMpi world attaches a FaultInjector built
/// from the D500_FAULT_* env schedule below.
bool faults_enabled_setting();

/// Deterministic fault-schedule seed (D500_FAULT_SEED, default 0): drives
/// the per-message drop and per-round lateness hashes.
std::uint64_t fault_seed_setting();

/// Per-delivery-attempt drop probability (D500_FAULT_DROP, default 0).
/// Each dropped attempt costs wire bytes and one virtual retry timeout;
/// a message undeliverable after the retry bound throws.
double fault_drop_setting();

/// Bounded-retry limit for dropped point-to-point messages
/// (D500_FAULT_RETRIES, default 3 retries after the initial attempt).
int fault_retries_setting();

/// Virtual retry-timeout charged per failed delivery attempt, in
/// microseconds (D500_FAULT_TIMEOUT_US, default 50).
std::int64_t fault_timeout_us_setting();

/// Straggler schedule: rank slowed (D500_FAULT_SLOW_RANK, default -1 =
/// none) and the real per-send delay applied to it in microseconds
/// (D500_FAULT_SLOW_US, default 200).
int fault_slow_rank_setting();
std::int64_t fault_slow_us_setting();

/// Per-(rank, round) probability that a rank's contribution to an eager
/// collective is late (D500_FAULT_LATE, default 0) — peers proceed with
/// its most recent on-time value, at most as many rounds old as the
/// staleness bound the EagerDecentralized optimizer was constructed with.
double fault_late_setting();

}  // namespace d500
