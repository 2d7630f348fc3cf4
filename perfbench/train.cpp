// train_long_seq / train_short_seq: 2-stage pipeline training of the fp32
// mini-GPT through runtime::Trainer, checked bit for bit against the
// single-worker nn::reference_train_step.
//
//  * long: HelixPipe two-fold with recomputation without attention and 2
//    MLP chunks on the blocking comm engine; sequence long relative to the
//    hidden size, so attention is about half of compute (the paper's
//    regime).
//  * short: 1F1B on the async comm engine with a short sequence and a wider
//    hidden size, so MLP matrix multiplies dominate and no HelixPipe path
//    runs.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "common.h"
#include "nn/model.h"
#include "nn/reference.h"
#include "obs/recorder.h"
#include "runtime/trainer.h"
#include "tensor/ops.h"

namespace perfbench {
namespace {

using namespace helix;
using tensor::i64;
using tensor::Tensor;

/// Steps per round. Every round restarts from the initial parameters, so
/// the last step's loss is the quality after a fixed number of steps.
constexpr int kStepsPerRound = 3;

struct Spec {
  nn::MiniGptConfig cfg;
  runtime::TrainerOptions opt;
};

Spec make_spec(bool long_seq) {
  Spec s;
  s.opt.pipeline_stages = 2;
  s.cfg.lr = 0.3f;
  if (long_seq) {
    s.cfg.layers = 4;
    s.cfg.hidden = 32;
    s.cfg.heads = 4;
    s.cfg.seq = 256;
    s.cfg.vocab = 64;
    s.cfg.micro_batches = 4;
    s.opt.family = runtime::ScheduleFamily::kHelixTwoFold;
    s.opt.recompute_without_attention = true;
    s.opt.mlp_chunks = 2;
    s.opt.async_comm = false;
  } else {
    s.cfg.layers = 4;
    s.cfg.hidden = 64;
    s.cfg.heads = 4;
    s.cfg.seq = 32;
    s.cfg.vocab = 64;
    s.cfg.micro_batches = 8;
    s.opt.family = runtime::ScheduleFamily::k1F1B;
    s.opt.async_comm = true;
  }
  return s;
}

void fill_normal(Tensor& t, std::mt19937_64& rng, float stddev) {
  std::normal_distribution<float> d(0.0f, stddev);
  for (i64 i = 0; i < t.numel(); ++i) t[i] = d(rng);
}

/// Initial parameters drawn from the benchmark's own generator (shapes come
/// from ModelParams::init; every random tensor is then overwritten).
nn::ModelParams make_params(const nn::MiniGptConfig& cfg, std::uint64_t seed) {
  nn::ModelParams p = nn::ModelParams::init(cfg, 0);
  std::mt19937_64 rng(mix64(seed ^ 0x706172616d73ull));
  for (nn::LayerParams& l : p.layers) {
    fill_normal(l.wqkv, rng, 0.02f);
    fill_normal(l.wo, rng, 0.02f);
    fill_normal(l.w1, rng, 0.02f);
    fill_normal(l.w2, rng, 0.02f);
  }
  fill_normal(p.wte, rng, 0.02f);
  fill_normal(p.wpe, rng, 0.02f);
  fill_normal(p.wlm, rng, 0.02f);
  return p;
}

/// Batches with a learnable target: each token's label is a seeded
/// permutation of the token, so the loss falls over a round.
std::vector<nn::Batch> make_batches(const nn::MiniGptConfig& cfg, std::uint64_t seed) {
  std::mt19937_64 rng(mix64(seed ^ 0x6261746368ull));
  std::vector<int> perm(static_cast<std::size_t>(cfg.vocab));
  for (std::size_t i = 0; i < perm.size(); ++i) perm[i] = static_cast<int>(i);
  std::shuffle(perm.begin(), perm.end(), rng);
  std::vector<nn::Batch> out(kStepsPerRound);
  for (nn::Batch& b : out) {
    for (int mb = 0; mb < cfg.micro_batches; ++mb) {
      std::vector<int> tokens(static_cast<std::size_t>(cfg.rows()));
      std::vector<int> targets(tokens.size());
      for (std::size_t r = 0; r < tokens.size(); ++r) {
        tokens[r] = static_cast<int>(rng() % static_cast<std::uint64_t>(cfg.vocab));
        targets[r] = perm[static_cast<std::size_t>(tokens[r])];
      }
      b.tokens.push_back(std::move(tokens));
      b.targets.push_back(std::move(targets));
    }
  }
  return out;
}

bool same_bits(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(), sizeof(float) * static_cast<std::size_t>(a.numel())) == 0;
}

bool same_params(const nn::ModelParams& a, const nn::ModelParams& b) {
  if (a.layers.size() != b.layers.size()) return false;
  for (std::size_t i = 0; i < a.layers.size(); ++i) {
    const nn::LayerParams& x = a.layers[i];
    const nn::LayerParams& y = b.layers[i];
    if (!same_bits(x.ln1_g, y.ln1_g) || !same_bits(x.ln1_b, y.ln1_b) ||
        !same_bits(x.wqkv, y.wqkv) || !same_bits(x.wo, y.wo) ||
        !same_bits(x.ln2_g, y.ln2_g) || !same_bits(x.ln2_b, y.ln2_b) ||
        !same_bits(x.w1, y.w1) || !same_bits(x.w2, y.w2)) {
      return false;
    }
  }
  return same_bits(a.wte, b.wte) && same_bits(a.wpe, b.wpe) && same_bits(a.wlm, b.wlm);
}

bool same_losses(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), sizeof(double) * a.size()) == 0;
}

/// The single-worker reference trajectory of one round.
struct Reference {
  std::vector<std::vector<double>> losses;  ///< per step, per micro batch
  nn::ModelParams final_params;
  std::vector<double> step_times;
};

Reference run_reference(const nn::ModelParams& init, const std::vector<nn::Batch>& batches,
                        int mlp_chunks) {
  Reference r;
  r.final_params = init;
  for (const nn::Batch& b : batches) {
    const double t0 = now_s();
    const nn::StepResult s = nn::reference_train_step(r.final_params, b, mlp_chunks);
    r.step_times.push_back(now_s() - t0);
    r.losses.push_back(s.micro_batch_losses);
  }
  return r;
}

/// One traced step's attribution, in rank-seconds summed over ranks unless
/// noted.
struct StepTrace {
  double wall = 0;
  std::map<std::string, double> v;
};

StepTrace attribute(const obs::TraceCollector& tc, double wall) {
  StepTrace st;
  st.wall = wall;
  auto& v = st.v;
  double busiest = 0;
  for (int r = 0; r < tc.num_ranks(); ++r) {
    double busy = 0;
    for (const obs::Span& s : tc.recorder(r).spans()) {
      const double dur = static_cast<double>(s.duration_ns()) * 1e-9;
      const double wait = static_cast<double>(s.wait_ns) * 1e-9;
      v["comm.recv_wait_exposed_s"] += wait;
      v["runtime.ops"] += 1;
      const char* key = nullptr;
      switch (s.kind) {
        case core::OpKind::kFwdPre: key = "runtime.fwd_pre_s"; break;
        case core::OpKind::kFwdAttn: key = "runtime.fwd_attn_s"; break;
        case core::OpKind::kFwdPost: key = "runtime.fwd_post_s"; break;
        case core::OpKind::kBwdPre:
        case core::OpKind::kBwdWPre: key = "runtime.bwd_pre_s"; break;
        case core::OpKind::kBwdAttn: key = "runtime.bwd_attn_s"; break;
        case core::OpKind::kBwdPost:
        case core::OpKind::kBwdWPost: key = "runtime.bwd_post_s"; break;
        case core::OpKind::kRecomputePre:
        case core::OpKind::kRecomputeAttn:
        case core::OpKind::kRecomputePost: key = "runtime.recompute_s"; break;
        case core::OpKind::kLmHeadLoss: key = "runtime.lm_head_s"; break;
        case core::OpKind::kEmbedFwd:
        case core::OpKind::kEmbedBwd:
        case core::OpKind::kOptimStep: key = "runtime.embed_optim_s"; break;
        case core::OpKind::kSend: key = "comm.send_s"; break;
        case core::OpKind::kRecv: key = "comm.recv_s"; break;
      }
      v[key] += dur - wait;
      if (core::is_compute(s.kind)) busy += dur - wait;
    }
    busiest = std::max(busiest, busy);
    const obs::CommMetrics& c = tc.comm(r);
    v["comm.recv_wait_hidden_s"] += static_cast<double>(c.recv_wait_hidden_ns.value) * 1e-9;
    v["comm.bytes"] += static_cast<double>(c.bytes_sent.value);
    v["comm.bytes_received"] += static_cast<double>(c.bytes_received.value);
    v["comm.messages"] += static_cast<double>(c.messages_sent.value);
    v["mem.live_peak_mib"] =
        std::max(v["mem.live_peak_mib"],
                 static_cast<double>(tc.runtime(r).live_tensor_bytes.high_water) /
                     (1024.0 * 1024.0));
  }
  v["runtime.busy_s"] = busiest;
  v["runtime.idle_s"] = wall - busiest;
  return st;
}

/// Rank-second parts whose sum, divided by the rank count, plus
/// runtime.unattributed_s is the step's wall time.
constexpr const char* kRankParts[] = {
    "runtime.fwd_pre_s",  "runtime.fwd_attn_s",  "runtime.fwd_post_s",
    "runtime.bwd_pre_s",  "runtime.bwd_attn_s",  "runtime.bwd_post_s",
    "runtime.recompute_s", "runtime.lm_head_s",  "runtime.embed_optim_s",
    "comm.send_s",        "comm.recv_s",         "comm.recv_wait_exposed_s"};

/// Median seconds of one call of `fn`, over calls until `budget_s` passed.
template <typename Fn>
double time_kernel(Fn&& fn, double budget_s) {
  std::vector<double> t;
  const double start = now_s();
  while (t.size() < 5 || (now_s() - start < budget_s && t.size() < 2000)) {
    const double t0 = now_s();
    fn();
    t.push_back(now_s() - t0);
  }
  return median(t);
}

}  // namespace

Outcome run_train(const Args& args, bool long_seq) {
  Outcome out;
  const Spec spec = make_spec(long_seq);
  const nn::MiniGptConfig& cfg = spec.cfg;
  const int p = spec.opt.pipeline_stages;
  const std::vector<nn::Batch> batches = make_batches(cfg, args.seed);

  // Set-up: model init, Trainer construction (schedule build + compile) and
  // one warm-up step. The first set-up's model and Trainer are the run's;
  // later repetitions build throwaway ones.
  nn::ModelParams params;  // Trainers keep a reference: stable address
  nn::ModelParams init;
  std::unique_ptr<runtime::Trainer> trainer;
  SetupSampler setups(args.seconds, 5);
  setups.maybe(0, [&] {
    init = make_params(cfg, args.seed);
    params = init;
    trainer = std::make_unique<runtime::Trainer>(params, spec.opt);
    trainer->train_step(batches[0]);
  });
  const auto extra_setup = [&] {
    nn::ModelParams scratch = make_params(cfg, args.seed);
    runtime::Trainer t(scratch, spec.opt);
    t.train_step(batches[0]);
  };

  // The reference trajectory, outside the timed steps.
  const Reference ref = run_reference(init, batches, spec.opt.mlp_chunks);

  const auto check_step = [&](const runtime::IterationMetrics& m, int k) {
    out.answer(same_losses(m.micro_batch_losses, ref.losses[static_cast<std::size_t>(k)]),
               "step " + std::to_string(k) +
                   ": per-micro-batch losses differ from the sequential reference");
  };

  // Timed rounds. The traced run spends its first third untraced (the
  // baseline of its overhead), then attaches a TraceCollector.
  obs::TraceCollector collector(p);
  std::unique_ptr<runtime::Trainer> traced_trainer;
  if (args.trace) {
    runtime::TrainerOptions topt = spec.opt;
    topt.trace = &collector;
    traced_trainer = std::make_unique<runtime::Trainer>(params, topt);
  }
  std::vector<double> step_times;
  std::vector<StepTrace> traces;
  std::vector<double> ref_times;
  double last_loss = 0;
  const double untraced_until = args.trace ? args.seconds / 3 : args.seconds;
  const double t_start = now_s();
  int rounds = 0;
  while (rounds < 2 || now_s() - t_start < args.seconds ||
         (args.trace && traces.empty())) {
    const bool traced = args.trace && rounds >= 1 && now_s() - t_start >= untraced_until;
    runtime::Trainer& tr = traced ? *traced_trainer : *trainer;
    params = init;
    for (int k = 0; k < kStepsPerRound; ++k) {
      const double t0 = now_s();
      const runtime::IterationMetrics m = tr.train_step(batches[static_cast<std::size_t>(k)]);
      const double dt = now_s() - t0;
      check_step(m, k);
      if (traced) {
        StepTrace st = attribute(collector, dt);
        out.run_check(st.v["comm.bytes"] == st.v["comm.bytes_received"],
                      "bytes sent != bytes received over ranks");
        traces.push_back(std::move(st));
      } else {
        step_times.push_back(dt);
      }
      last_loss = m.mean_loss();
    }
    out.run_check(same_params(params, ref.final_params),
                  "parameters after a round differ from the sequential reference");
    if (traced) {
      // The single-worker baseline, timed next to the pipeline steps so
      // that both see the same host conditions.
      nn::ModelParams scratch = init;
      const double t0 = now_s();
      nn::reference_train_step(scratch, batches[0], spec.opt.mlp_chunks);
      ref_times.push_back(now_s() - t0);
    }
    ++rounds;
    if (!args.trace) setups.maybe(now_s() - t_start, extra_setup);
  }

  if (!args.trace) {
    // Byte conservation needs the trace collector: one extra step, outside
    // the timed ones.
    runtime::TrainerOptions topt = spec.opt;
    topt.trace = &collector;
    params = init;
    runtime::Trainer checker(params, topt);
    const runtime::IterationMetrics m = checker.train_step(batches[0]);
    out.run_check(same_losses(m.micro_batch_losses, ref.losses[0]),
                  "traced step's losses differ from the sequential reference");
    double sent = 0, received = 0;
    for (const obs::RankSummary& r : m.rank_summaries) {
      sent += static_cast<double>(r.bytes_sent);
      received += static_cast<double>(r.bytes_received);
    }
    out.run_check(sent > 0 && sent == received, "bytes sent != bytes received over ranks");

    const double tokens = static_cast<double>(cfg.micro_batches * cfg.rows());
    out.metrics["setup_s"] = setups.median_s();
    out.metrics["answer_s"] = median(step_times);
    out.metrics["work_per_s"] = tokens / out.metrics["answer_s"];
    out.metrics["answer_cost"] = last_loss;
    out.metrics["peak_rss_mib"] = peak_rss_mib();
    std::printf("# %s: %d rounds, %zu timed steps, reference step %.3f s\n",
                long_seq ? "train_long_seq" : "train_short_seq", rounds,
                step_times.size(), median(ref.step_times));
    return out;
  }

  // Traced: per-step means over the traced steps.
  auto& m = out.metrics;
  std::vector<double> walls;
  for (const StepTrace& st : traces) {
    walls.push_back(st.wall);
    for (const auto& [k, x] : st.v) m[k] += x;
  }
  const double n = static_cast<double>(traces.size());
  for (auto& [k, x] : m) x /= n;
  m.erase("comm.bytes_received");
  const double answer = mean(walls);
  double rank_seconds = 0;
  for (const char* k : kRankParts) rank_seconds += m[k];
  m["runtime.unattributed_s"] = answer - rank_seconds / p;
  m["trace.answer_s"] = answer;
  m["trace.unattributed_share"] = m["runtime.unattributed_s"] / answer;
  m["trace.overhead_share"] = median(walls) / median(step_times) - 1;

  // Kernels at the workload's shapes, and the single-worker reference step.
  const i64 rows = cfg.rows();
  const i64 h = cfg.hidden;
  std::mt19937_64 rng(mix64(args.seed ^ 0x6b65726eull));
  Tensor qkv({rows, 3 * h}), dctx({rows, h}), x({rows, h}), w1({h, 4 * h});
  fill_normal(qkv, rng, 1.0f);
  fill_normal(dctx, rng, 1.0f);
  fill_normal(x, rng, 1.0f);
  fill_normal(w1, rng, 0.08f);
  m["tensor.attention_fwd_s"] = time_kernel(
      [&] { tensor::attention_forward(qkv, cfg.batch, cfg.seq, cfg.heads); }, 0.3);
  m["tensor.attention_bwd_s"] = time_kernel(
      [&] { tensor::attention_backward(dctx, qkv, cfg.batch, cfg.seq, cfg.heads); }, 0.3);
  m["tensor.matmul_s"] = time_kernel([&] { tensor::matmul(x, w1); }, 0.3);
  m["nn.reference_step_s"] = median(ref_times);

  const double untraced = median(step_times);
  std::printf("\n%s traced run: %.0f traced steps, per step (rank-seconds over %d ranks):\n",
              long_seq ? "train_long_seq" : "train_short_seq", n, p);
  for (const char* k : kRankParts) {
    std::printf("  %-26s %10.3f ms  %5.1f%% of %d x answer\n", k, m[k] * 1e3,
                100 * m[k] / (p * answer), p);
  }
  std::printf("  %-26s %10.3f ms  %5.1f%% of answer\n", "runtime.unattributed_s",
              m["runtime.unattributed_s"] * 1e3, 100 * m["trace.unattributed_share"]);
  std::printf("  %-26s %10.3f ms  (= rank-second parts / %d + unattributed)\n",
              "answer, traced (mean)", answer * 1e3, p);
  std::printf("  %-26s %10.3f ms  (tracing overhead, medians: %+.2f%%)\n",
              "answer, untraced (median)", untraced * 1e3, 100 * m["trace.overhead_share"]);
  std::printf("  slowest rank: busy %.3f ms, idle %.3f ms; hidden recv wait %.3f ms\n",
              m["runtime.busy_s"] * 1e3, m["runtime.idle_s"] * 1e3,
              m["comm.recv_wait_hidden_s"] * 1e3);
  std::printf("  comm %.0f bytes in %.0f messages; largest rank live peak %.3f MiB\n",
              m["comm.bytes"], m["comm.messages"], m["mem.live_peak_mib"]);
  std::printf("  kernels: attention fwd %.3f ms, bwd %.3f ms, matmul [%lld x %lld]x[%lld x %lld] %.3f ms\n",
              m["tensor.attention_fwd_s"] * 1e3, m["tensor.attention_bwd_s"] * 1e3,
              static_cast<long long>(rows), static_cast<long long>(h),
              static_cast<long long>(h), static_cast<long long>(4 * h),
              m["tensor.matmul_s"] * 1e3);
  std::printf("  reference step %.3f ms; pipeline speedup %.2fx over it (traced steps, same rounds)\n",
              m["nn.reference_step_s"] * 1e3, m["nn.reference_step_s"] / median(walls));
  return out;
}

}  // namespace perfbench
