// Shared plumbing of the benchmark driver: arguments, the pass loop,
// optional span tracing per pass, and the raw result that run.py turns
// into metrics.
//
// The driver never computes a percentile or a self time itself: it
// records raw samples (seconds per set-up and per pass, milliseconds per
// op), exact counts, and one Chrome trace file per traced pass, and
// prints them as one JSON line.  perfstats.py owns the arithmetic, so
// its unit tests cover every number the benchmark reports.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "src/util/prng.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

inline double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string root = ".";  ///< checkout root (examples/, perfbench/golden/)
  /// Scratch space for caches, projects and traces.
  std::string work_dir = ".bench_build/perfbench-work";
};

/// Raw measurements of one benchmark run.
class Result {
 public:
  explicit Result(const Args& args) : args_(args) {}

  /// One set-up, in seconds.
  void setup(double seconds) { setup_s_.push_back(seconds); }

  /// One op of an untraced pass, in milliseconds.  `key` names the op
  /// so its passes can be matched up: op_ms is the median over keys of
  /// each key's median.  Traced passes record nothing.
  void op(const std::string& key, double ms) {
    if (!in_traced_pass_) op_ms_[key].push_back(ms);
  }

  /// One extra sample of an untraced pass under a series name, for the
  /// human-readable report (per-design compile times, hit/miss/edit
  /// round trips).
  void sample(const std::string& series, double ms) {
    if (!in_traced_pass_) samples_[series].push_back(ms);
  }

  /// Counts an attempted op; a false `ok` is a failure and `what` says
  /// why (the first few reasons are kept for the report).
  void attempt(bool ok, const std::string& what = {});

  /// An exact count for the current traced pass (summed per pass).
  void count(const std::string& name, double value) {
    counts_[name] += value;
  }

  void info(const std::string& key, const std::string& value) {
    info_[key] = value;
  }

  /// Runs the timed phase: passes until the time budget is spent (at
  /// least two; a pass starts only while the median pass so far still
  /// fits).  In traced mode passes alternate untraced / traced, every
  /// traced pass writes its span trace to the work dir, and its
  /// count() calls are kept per pass.  `pass` returns the seconds of
  /// its timed window (output checks run after that window closes,
  /// inside the callback).
  void run_passes(const std::function<double()>& pass);

  /// The one-line raw JSON document run.py reads.
  std::string to_json() const;

 private:
  const Args& args_;
  std::vector<double> setup_s_;
  std::vector<double> pass_s_;         ///< untraced passes
  std::vector<double> traced_pass_s_;  ///< traced passes
  std::map<std::string, std::vector<double>> op_ms_;
  std::map<std::string, std::vector<double>> samples_;
  std::map<std::string, double> counts_;  ///< current traced pass
  std::vector<std::map<std::string, double>> pass_counts_;
  std::vector<std::string> trace_files_;
  std::map<std::string, std::string> info_;
  int attempted_ = 0;
  int failed_ = 0;
  std::vector<std::string> failures_;
  bool in_traced_pass_ = false;
};

/// Reads a whole file; throws std::runtime_error when it cannot.
std::string read_file(const std::string& path);

/// The median of `values` (0 when empty).
double median(std::vector<double> values);

/// 0..n-1 in an order drawn from `rng` (Fisher-Yates).
std::vector<std::size_t> shuffled_order(std::size_t n,
                                        bb::util::SplitMix64& rng);

/// Peak resident set of this process, in MB (VmHWM).
double peak_rss_mb();

void run_synth_cold(const Args& args, Result& result);
void run_serve_mixed(const Args& args, Result& result);
void run_fuzz(const Args& args, Result& result);

}  // namespace perfbench
