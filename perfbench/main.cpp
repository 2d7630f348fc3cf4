// End-to-end benchmark of both systems in this repository: the planner
// (schedules -> core -> sim -> tune) and the numeric runtime (runtime over
// tensor, nn and comm). One invocation runs one workload:
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//
// Untraced, it prints every end-to-end metric; traced, every per-layer
// metric plus an attribution report. The last line of stdout is always one
// JSON object: {"correct", "attempted", "failed", "metrics"}. See README.md.
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <string>

#include "common.h"

namespace perfbench {

double peak_rss_mib() {
  // VmHWM, not getrusage's ru_maxrss: Linux carries ru_maxrss across exec,
  // so a launcher's own footprint would mask a smaller benchmark.
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
    }
  }
  throw std::runtime_error("VmHWM missing from /proc/self/status");
}

double reference_loop_ms() {
  const double t0 = now_s();
  volatile double sink = 0;
  double x = 1.0;
  for (int i = 0; i < 10'000'000; ++i) x = x * 1.0000001 + 1e-9;
  sink = x;
  (void)sink;
  return (now_s() - t0) * 1e3;
}

const std::vector<LayerMetric>& layer_catalogue() {
  static const std::vector<LayerMetric> kCatalogue{
      {"schedules.build_s", "s"},
      {"core.compile_s", "s"},
      {"core.validate_s", "s"},
      {"core.ops", "count"},
      {"core.edges", "count"},
      {"sim.simulate_s", "s"},
      {"sim.critical_path_s", "s"},
      {"sim.sweep_overhead_s", "s"},
      {"plan.unattributed_s", "s"},
      {"tune.lift_s", "s"},
      {"tune.mutate_s", "s"},
      {"tune.lower_s", "s"},
      {"tune.score_s", "s"},
      {"tune.candidates_scored", "count"},
      {"tune.candidates_deduped", "count"},
      {"tune.candidates_invalid", "count"},
      {"tune.generations", "count"},
      {"tune.unattributed_s", "s"},
      {"runtime.fwd_pre_s", "s"},
      {"runtime.fwd_attn_s", "s"},
      {"runtime.fwd_post_s", "s"},
      {"runtime.bwd_pre_s", "s"},
      {"runtime.bwd_attn_s", "s"},
      {"runtime.bwd_post_s", "s"},
      {"runtime.recompute_s", "s"},
      {"runtime.lm_head_s", "s"},
      {"runtime.embed_optim_s", "s"},
      {"runtime.busy_s", "s"},
      {"runtime.idle_s", "s"},
      {"runtime.ops", "count"},
      {"runtime.unattributed_s", "s"},
      {"comm.recv_wait_exposed_s", "s"},
      {"comm.recv_wait_hidden_s", "s"},
      {"comm.send_s", "s"},
      {"comm.recv_s", "s"},
      {"comm.bytes", "bytes"},
      {"comm.messages", "count"},
      {"mem.live_peak_mib", "MiB"},
      {"tensor.attention_fwd_s", "s"},
      {"tensor.attention_bwd_s", "s"},
      {"tensor.matmul_s", "s"},
      {"nn.reference_step_s", "s"},
      {"trace.answer_s", "s"},
      {"trace.unattributed_share", "ratio"},
      {"trace.overhead_share", "ratio"},
  };
  return kCatalogue;
}

namespace {

struct E2eMetric {
  const char* name;
  const char* unit;
};
constexpr E2eMetric kEndToEnd[] = {
    {"setup_s", "s"},
    {"answer_s", "s"},
    {"work_per_s", "1/s"},
    {"answer_cost", "score"},
    {"peak_rss_mib", "MiB"},
};

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        std::string v = line.substr(colon + 1);
        v.erase(0, v.find_first_not_of(' '));
        return v;
      }
    }
  }
  return "unknown";
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "plan_sweep|tune_search|train_long_seq|train_short_seq "
               "--seed N --seconds S --trace 0|1\n",
               why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string val = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = val;
      have_workload = true;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(val.c_str(), &end, 10);
      if (end == val.c_str() || *end != '\0') usage("--seed must be an integer");
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(val.c_str(), &end);
      if (end == val.c_str() || *end != '\0' || !(a.seconds > 0) ||
          a.seconds > 600) {
        usage("--seconds must be a number in (0, 600]");
      }
    } else if (flag == "--trace") {
      if (val != "0" && val != "1") usage("--trace must be 0 or 1");
      a.trace = val == "1";
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload) usage("--workload is required");
  return a;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  // The planner workloads evaluate serially and the training workloads keep
  // rank threads plus comm workers within the host's cores; an inherited
  // HELIX_THREADS would change both.
  unsetenv("HELIX_THREADS");
  unsetenv("HELIX_COMM_ASYNC");
  unsetenv("HELIX_COMM_LOOKAHEAD");
  unsetenv("HELIX_HEALTH");
  const Args args = parse(argc, argv);

  std::printf("# machine: cpu=\"%s\" nproc=%ld compiler=\"%s\" build=%s\n",
              cpu_model().c_str(), sysconf(_SC_NPROCESSORS_ONLN),
              PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE);
  std::printf("# workload=%s seed=%llu seconds=%g trace=%d\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0);
  const double loop_before = reference_loop_ms();

  Outcome out;
  try {
    if (args.workload == "plan_sweep") {
      out = run_plan_sweep(args);
    } else if (args.workload == "tune_search") {
      out = run_tune_search(args);
    } else if (args.workload == "train_long_seq") {
      out = run_train(args, true);
    } else if (args.workload == "train_short_seq") {
      out = run_train(args, false);
    } else {
      usage(("unknown workload " + args.workload).c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", args.workload.c_str(),
                 e.what());
    return 1;
  }
  const double loop_after = reference_loop_ms();
  std::printf("# reference loop: %.2f ms before, %.2f ms after the workload\n",
              loop_before, loop_after);
  for (const std::string& f : out.failures) {
    std::printf("# CHECK FAILED: %s\n", f.c_str());
  }

  std::string metrics;
  const auto emit = [&](const char* name, const char* unit) {
    const auto it = out.metrics.find(name);
    double v = it == out.metrics.end() ? 0.0 : it->second;
    if (!std::isfinite(v)) {
      std::printf("# CHECK FAILED: metric %s is not finite\n", name);
      out.correct = false;
      v = 0;
    }
    char buf[256];
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  metrics.empty() ? "" : ", ", name, v, unit);
    metrics += buf;
  };
  if (args.trace) {
    for (const LayerMetric& m : layer_catalogue()) emit(m.name, m.unit);
  } else {
    for (const E2eMetric& m : kEndToEnd) emit(m.name, m.unit);
  }
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {%s}}\n",
              out.correct ? "true" : "false",
              static_cast<long long>(out.attempted),
              static_cast<long long>(out.failed), metrics.c_str());
  return 0;
}
