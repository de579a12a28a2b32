#pragma once
// minibench: a self-contained, API-compatible subset of google-benchmark
// large enough for every binary in bench/. It exists so the tracked
// BENCH_throughput.json can come from a Release-built harness even on
// hosts whose system libbenchmark is a Debug build (the library's own
// assertions and unoptimized timing loops distort measurements; the
// stock JSON context records that as `"library_build_type": "debug"`
// and bench_throughput_json.sh refuses such artifacts).
//
// Implemented surface (what bench/*.cpp actually uses):
//   * BENCHMARK(fn) / BENCHMARK_MAIN() registration, with
//     Arg/Args/ArgsProduct/Range/RangeMultiplier, UseRealTime,
//     Iterations, Complexity(oNSquared/oNLogN/...)
//   * State: range(i), iterations(), Pause/ResumeTiming,
//     SetItemsProcessed/SetBytesProcessed/SetComplexityN, counters
//     (Counter::kIsRate), `for (auto _ : state)` iteration
//   * DoNotOptimize / ClobberMemory
//   * Initialize / ReportUnrecognizedArguments / RunSpecifiedBenchmarks /
//     Shutdown / AddCustomContext
//   * CLI: --benchmark_filter, --benchmark_out,
//     --benchmark_out_format=json, --benchmark_format=console,
//     --benchmark_min_time (plain seconds), --benchmark_list_tests
//   * JSON output shaped like google-benchmark's (context + benchmarks
//     rows, counters inlined as row fields) so scripts/bench_*.sh and
//     the CI guards keep working unchanged.
//
// Timing model: each instance reruns its function with a growing
// iteration count until wall time reaches min_time (default 0.5 s),
// exactly like the upstream library's single-repetition mode.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace benchmark {

using IterationCount = std::int64_t;

// Complexity families accepted by Benchmark::Complexity. Only the fit
// coefficient is reported; oAuto picks the family with the lowest RMS.
enum BigO { oNone, o1, oN, oNSquared, oNCubed, oLogN, oNLogN, oAuto };

struct Counter {
  enum Flags {
    kDefaults = 0,
    kIsRate = 1 << 0,  // reported as value / measured seconds
  };
  double value{0.0};
  Flags flags{kDefaults};
  Counter() = default;
  Counter(double v, Flags f = kDefaults) : value(v), flags(f) {}
  operator double() const { return value; }
};
using UserCounters = std::map<std::string, Counter>;

class State {
 public:
  // [[maybe_unused]]: the `for (auto _ : state)` variable is never read.
  struct [[maybe_unused]] Value {};
  struct StateIterator {
    State* parent{nullptr};
    IterationCount cached{0};
    Value operator*() const { return Value{}; }
    StateIterator& operator++() {
      --cached;
      ++parent->completed_;
      return *this;
    }
    bool operator!=(const StateIterator&) {
      if (cached != 0) return true;
      parent->finish_keep_running();
      return false;
    }
  };

  State(std::vector<std::int64_t> args, IterationCount max_iterations)
      : args_(std::move(args)), max_iterations_(max_iterations) {}

  StateIterator begin() {
    start_keep_running();
    return StateIterator{this, max_iterations_};
  }
  StateIterator end() { return StateIterator{this, 0}; }

  std::int64_t range(std::size_t i = 0) const { return args_.at(i); }
  IterationCount iterations() const { return completed_; }
  IterationCount max_iterations() const { return max_iterations_; }

  void PauseTiming();
  void ResumeTiming();

  void SetItemsProcessed(std::int64_t items) { items_processed_ = items; }
  std::int64_t items_processed() const { return items_processed_; }
  void SetBytesProcessed(std::int64_t bytes) { bytes_processed_ = bytes; }
  std::int64_t bytes_processed() const { return bytes_processed_; }
  void SetComplexityN(std::int64_t n) { complexity_n_ = n; }
  std::int64_t complexity_n() const { return complexity_n_; }

  UserCounters counters;

  // Accumulated measurements, valid once the range-for loop finished.
  double real_seconds() const { return real_seconds_; }
  double cpu_seconds() const { return cpu_seconds_; }

 private:
  void start_keep_running();
  void finish_keep_running();

  std::vector<std::int64_t> args_;
  IterationCount max_iterations_{0};
  IterationCount completed_{0};
  std::int64_t items_processed_{0};
  std::int64_t bytes_processed_{0};
  std::int64_t complexity_n_{0};
  double real_seconds_{0.0};
  double cpu_seconds_{0.0};
  bool timing_{false};
  std::chrono::steady_clock::time_point real_start_{};
  double cpu_start_{0.0};
};

namespace internal {

using Function = void(State&);

/// One BENCHMARK(fn) registration: a name, a function, and the arg /
/// mode decorations chained onto it. Expanded into per-arg-tuple
/// instances at run time.
class Benchmark {
 public:
  Benchmark(std::string name, Function* fn);

  Benchmark* Arg(std::int64_t x);
  Benchmark* Args(const std::vector<std::int64_t>& args);
  Benchmark* ArgsProduct(const std::vector<std::vector<std::int64_t>>& lists);
  Benchmark* Range(std::int64_t lo, std::int64_t hi);
  Benchmark* RangeMultiplier(int multiplier);
  Benchmark* UseRealTime();
  Benchmark* Iterations(IterationCount n);
  Benchmark* Complexity(BigO family = oAuto);

  const std::string& name() const { return name_; }
  BigO complexity() const { return complexity_; }

 private:
  friend struct Runner;
  std::string name_;
  Function* fn_;
  std::vector<std::vector<std::int64_t>> arg_tuples_;
  int range_multiplier_{8};
  bool use_real_time_{false};
  IterationCount fixed_iterations_{0};  // 0 = scale until min_time
  BigO complexity_{oNone};
};

Benchmark* RegisterBenchmarkInternal(Benchmark* bench);

}  // namespace internal

// Optimizer barriers, same contract as the upstream library.
template <class Tp>
inline __attribute__((always_inline)) void DoNotOptimize(Tp& value) {
  asm volatile("" : "+r,m"(value) : : "memory");
}
template <class Tp>
inline __attribute__((always_inline)) void DoNotOptimize(Tp const& value) {
  asm volatile("" : : "r,m"(value) : "memory");
}
template <class Tp>
inline __attribute__((always_inline)) void DoNotOptimize(Tp&& value) {
  asm volatile("" : "+r,m"(value) : : "memory");
}
inline __attribute__((always_inline)) void ClobberMemory() {
  asm volatile("" : : : "memory");
}

void Initialize(int* argc, char** argv);
bool ReportUnrecognizedArguments(int argc, char** argv);
std::size_t RunSpecifiedBenchmarks();
void Shutdown();
void AddCustomContext(const std::string& key, const std::string& value);

}  // namespace benchmark

#define MINIBENCH_CONCAT2(a, b) a##b
#define MINIBENCH_CONCAT(a, b) MINIBENCH_CONCAT2(a, b)

#define BENCHMARK(fn)                                              \
  static ::benchmark::internal::Benchmark* MINIBENCH_CONCAT(       \
      minibench_reg_, __LINE__) [[maybe_unused]] =                 \
      ::benchmark::internal::RegisterBenchmarkInternal(            \
          new ::benchmark::internal::Benchmark(#fn, fn))

#define BENCHMARK_MAIN()                                             \
  int main(int argc, char** argv) {                                  \
    ::benchmark::Initialize(&argc, argv);                            \
    if (::benchmark::ReportUnrecognizedArguments(argc, argv)) {      \
      return 1;                                                      \
    }                                                                \
    ::benchmark::RunSpecifiedBenchmarks();                           \
    ::benchmark::Shutdown();                                         \
    return 0;                                                        \
  }                                                                  \
  int main(int, char**)
