// Traced replay of the two public entry points the benchmark times:
// driver::Compiler::compile and workloads::simulate.
//
// The replay calls each layer's public function in the driver's order and
// records one span around every call: the layer, start and end, and the
// parent span. Spans and counts stay in memory, one JobTrace per job, so jobs
// that run concurrently on the evaluation grid never share a buffer. A
// layer's self time is its spans' duration minus what their children cover;
// the job span's own self time is the time no layer accounts for.
//
// The replay must build exactly the program the entry points build: the
// benchmark compares its driver::dump_vir output and RunResult counters with
// theirs byte for byte.
#pragma once

#include <array>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "driver/compiler.hpp"
#include "workloads/harness.hpp"

namespace safara::perfbench {

enum class Layer : std::uint8_t {
  kJob,       // the whole job; its self time is the unattributed remainder
  kCompile,   // driver: Compiler::compile glue (clone, kernel assembly)
  kParse,     // parse::parse_source
  kSema,      // sema::Sema::analyze (also inside SAFARA feedback compiles)
  kOpt,       // opt::run_safara, feedback children excluded
  kCodegen,   // codegen::generate_kernel
  kVir,       // vir::passes::run_pipeline
  kRegalloc,  // regalloc::allocate + regalloc::demote_spill_slots
  kDataset,   // Workload::make_dataset
  kCopyIn,    // rt::Runtime::alloc + DeviceMemory::copy_in
  kLaunch,    // rt::Runtime::launch
  kCopyOut,   // DeviceMemory::copy_out
  kChecksum,  // workloads::checksum_of
  kCount,
};

const char* to_string(Layer l);

struct Span {
  Layer layer = Layer::kJob;
  int parent = -1;
  std::int64_t t0_ns = 0;
  std::int64_t t1_ns = 0;
};

/// Counts recorded at the same boundaries as the spans.
struct LayerCounts {
  std::uint64_t parse_calls = 0;
  std::uint64_t sema_calls = 0;
  std::uint64_t codegen_kernels = 0;
  std::uint64_t feedback_lookups = 0;
  std::uint64_t feedback_compiles = 0;
  std::uint64_t groups_replaced = 0;
  std::uint64_t vir_instrs = 0;   // final kernels, after the pass pipeline
  std::uint64_t regs = 0;         // final kernels' ptxas-sim register counts
  std::uint64_t spill_bytes = 0;  // final kernels
  std::uint64_t bytes_copied = 0;
  std::uint64_t launches = 0;
  std::uint64_t ro_hits = 0;
  std::uint64_t ro_misses = 0;

  LayerCounts& operator+=(const LayerCounts& o);
};

/// Every span and count of one job.
class JobTrace {
 public:
  int open(Layer layer);
  void close(int span);

  const std::vector<Span>& spans() const { return spans_; }
  /// Launch spans whose LaunchContext was cold (first launch of the kernel
  /// in this job, so decode is included) and warm ones.
  std::vector<int> first_launches;
  std::vector<int> steady_launches;
  LayerCounts counts;

 private:
  std::vector<Span> spans_;
  int current_ = -1;
};

class SpanScope {
 public:
  SpanScope(JobTrace& trace, Layer layer) : trace_(trace), span_(trace.open(layer)) {}
  ~SpanScope() { trace_.close(span_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  int index() const { return span_; }

 private:
  JobTrace& trace_;
  int span_;
};

/// Self time per layer, in nanoseconds, summed over the trace's spans.
using SelfTimes = std::array<std::int64_t, static_cast<std::size_t>(Layer::kCount)>;
SelfTimes self_times(const JobTrace& trace);

/// The benchmark's own SAFARA feedback memo. Like the driver's cache it is
/// keyed by the canonical ast::hash of the mutated function, the region and
/// the configuration, and is shared by every job of a pass.
class FeedbackMemo {
 public:
  void clear();
  bool find(std::uint64_t fn_hash, int region, std::uint64_t config, int& regs) const;
  void insert(std::uint64_t fn_hash, int region, std::uint64_t config, int regs);

 private:
  struct Key {
    std::uint64_t fn_hash = 0;
    std::uint64_t config = 0;
    int region = 0;
    bool operator==(const Key& o) const {
      return fn_hash == o.fn_hash && config == o.config && region == o.region;
    }
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const;
  };
  mutable std::mutex mu_;
  std::unordered_map<Key, int, KeyHash> map_;
};

/// Replays Compiler(opts).compile(source, fn_name).
driver::CompiledProgram replay_compile(JobTrace& trace, FeedbackMemo& memo,
                                       std::string_view source, const std::string& fn_name,
                                       const driver::CompilerOptions& opts);

struct ReplayedRun {
  driver::CompiledProgram program;
  workloads::RunResult result;
};

/// Replays workloads::simulate(w, opts) on the default device.
ReplayedRun replay_simulate(JobTrace& trace, FeedbackMemo& memo, const workloads::Workload& w,
                            const driver::CompilerOptions& opts);

}  // namespace safara::perfbench
