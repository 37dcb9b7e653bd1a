#include "common.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "src/obs/trace.hpp"
#include "src/util/json.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kMaxFailureNotes = 8;

void emit_series(bb::util::JsonWriter& w, const std::vector<double>& xs) {
  w.begin_array();
  for (const double x : xs) w.value(x, 6);
  w.end_array();
}

}  // namespace

void Result::attempt(bool ok, const std::string& what) {
  ++attempted_;
  if (ok) return;
  ++failed_;
  if (failures_.size() < kMaxFailureNotes) failures_.push_back(what);
}

void Result::run_passes(const std::function<double()>& pass) {
  bb::obs::Tracer& tracer = bb::obs::Tracer::instance();
  if (args_.trace) bb::obs::Tracer::set_ring_capacity(1u << 20);
  std::vector<double> all;
  const auto start = Clock::now();
  for (int i = 0;; ++i) {
    if (i >= 2 && seconds_since(start) + median(all) > args_.seconds) {
      break;
    }
    in_traced_pass_ = args_.trace && i % 2 == 1;
    counts_.clear();
    if (in_traced_pass_) tracer.enable();
    const double s = pass();
    all.push_back(s);
    if (in_traced_pass_) {
      tracer.disable();
      const std::string path = args_.work_dir + "/trace-" + args_.workload +
                               "-" + std::to_string(i) + ".json";
      tracer.write(path);
      trace_files_.push_back(path);
      traced_pass_s_.push_back(s);
      pass_counts_.push_back(counts_);
    } else {
      pass_s_.push_back(s);
    }
  }
  in_traced_pass_ = false;
}

std::string Result::to_json() const {
  bb::util::JsonWriter w;
  w.begin_object();
  w.member("workload", args_.workload);
  w.member("seed", args_.seed);
  w.member("trace", args_.trace);
  w.key("info").begin_object();
  for (const auto& [k, v] : info_) w.member(k, v);
  w.end_object();
  w.member("attempted", static_cast<std::int64_t>(attempted_));
  w.member("failed", static_cast<std::int64_t>(failed_));
  w.key("failures").begin_array();
  for (const std::string& f : failures_) w.value(f);
  w.end_array();
  w.key("setup_s");
  emit_series(w, setup_s_);
  w.key("pass_s");
  emit_series(w, pass_s_);
  w.key("traced_pass_s");
  emit_series(w, traced_pass_s_);
  w.key("ops").begin_object();
  for (const auto& [key, xs] : op_ms_) {
    w.key(key);
    emit_series(w, xs);
  }
  w.end_object();
  w.key("samples").begin_object();
  for (const auto& [name, xs] : samples_) {
    w.key(name);
    emit_series(w, xs);
  }
  w.end_object();
  w.key("pass_counts").begin_array();
  for (const auto& counts : pass_counts_) {
    w.begin_object();
    for (const auto& [name, v] : counts) w.member(name, v, 6);
    w.end_object();
  }
  w.end_array();
  w.key("traces").begin_array();
  for (const std::string& t : trace_files_) w.value(t);
  w.end_array();
  w.member("peak_rss_mb", peak_rss_mb(), 3);
  w.end_object();
  return w.str();
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

std::vector<std::size_t> shuffled_order(std::size_t n,
                                        bb::util::SplitMix64& rng) {
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  for (std::size_t i = n; i > 1; --i) {
    std::swap(order[i - 1], order[rng.below(i)]);
  }
  return order;
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  return 0.0;
}

}  // namespace perfbench
