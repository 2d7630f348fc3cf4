#pragma once

// Shared plumbing of the end-to-end benchmark: seeded input generation,
// wall-clock helpers, order statistics, the result record every workload
// fills, and the per-layer metric catalogue the traced run reports.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

/// What one invocation hands back to main(): the answer counts, whether
/// every check passed, and the metrics of the requested mode (end-to-end
/// when untraced, per-layer when traced).
struct Outcome {
  bool correct = true;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::map<std::string, double> metrics;
  /// One line per failed check, printed before the result.
  std::vector<std::string> failures;

  /// Record one answer; a false `ok` counts it as failed.
  void answer(bool ok, const std::string& why = {}) {
    ++attempted;
    if (!ok) {
      ++failed;
      correct = false;
      if (failures.size() < 32) failures.push_back(why);
    }
  }
  /// A check made outside the timed answers (once per run or per round);
  /// a failure counts as one more failed answer.
  void run_check(bool ok, const std::string& why) {
    if (!ok) answer(false, why);
  }
};

inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// splitmix64: derives independent, reproducible streams from the seed.
inline std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

inline double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

inline double mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double s = 0;
  for (const double x : v) s += x;
  return s / static_cast<double>(v.size());
}

/// Mean over keys of the per-key median: the typical cost of one answer of
/// a workload whose rounds mix answers of different sizes. Every run
/// attempts whole rounds, so each key has the same weight in every run.
inline double mean_of_medians(const std::map<std::string, std::vector<double>>& by_key) {
  std::vector<double> meds;
  for (const auto& [key, samples] : by_key) meds.push_back(median(samples));
  return mean(meds);
}

/// Set-up repetitions spread over the run: the first at its start, one more
/// after each further share of the measured time, so that a burst of noise
/// from other tenants of the host moves at most one of them.
class SetupSampler {
 public:
  SetupSampler(double seconds, int reps) : every_(seconds / reps), reps_(reps) {}
  /// Time `setup` if the next sample is due at `elapsed` seconds.
  template <typename Fn>
  void maybe(double elapsed, Fn&& setup) {
    if (static_cast<int>(samples_.size()) >= reps_ ||
        elapsed < every_ * static_cast<double>(samples_.size())) {
      return;
    }
    const double t0 = now_s();
    setup();
    samples_.push_back(now_s() - t0);
  }
  double median_s() const { return median(samples_); }

 private:
  double every_;
  int reps_;
  std::vector<double> samples_;
};

/// Process peak resident set, MiB.
double peak_rss_mib();

/// Wall time of a fixed arithmetic loop, ms: a reference for recognising a
/// run made on a slowed host. It never scales a metric.
double reference_loop_ms();

/// A per-layer metric of the traced run: its name and unit. The catalogue
/// is the same for every workload; a layer a workload does not reach
/// reports 0.
struct LayerMetric {
  const char* name;
  const char* unit;
};
const std::vector<LayerMetric>& layer_catalogue();

Outcome run_plan_sweep(const Args& args);
Outcome run_tune_search(const Args& args);
Outcome run_train(const Args& args, bool long_seq);

}  // namespace perfbench
