// plan_sweep: cluster-planner queries over the paper's grid of (model,
// sequence length, cluster), answered the way examples/cluster_planner does:
// one sim::Sweep over every pipeline size x every registered family, a
// recommendation, and the critical path of the recommended configuration.
#include <cmath>
#include <cstdio>
#include <memory>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "common.h"
#include "core/compiled.h"
#include "core/cost.h"
#include "model/analysis.h"
#include "model/gpu_specs.h"
#include "model/model_config.h"
#include "model/paper_cost.h"
#include "model/problem_factory.h"
#include "schedules/registry.h"
#include "sim/critical_path.h"
#include "sim/simulator.h"
#include "sim/sweep.h"

namespace perfbench {
namespace {

using namespace helix;
using model::i64;

/// One planner query: the generated input (model, sequence length, cluster)
/// and the (p, family) grid built from it. Items borrow `costs`.
struct Query {
  std::string key;
  i64 seq = 0;
  i64 mem_cap = 0;
  std::vector<std::unique_ptr<model::PaperCostModel>> costs;
  std::vector<sim::SweepItem> items;
  std::vector<int> item_p;
};

/// The paper's grid (Fig. 8): three model scales, 32k..128k tokens, both
/// clusters. The seed jitters each sequence length by up to +-4 Ki tokens;
/// the (p, family) grid, and so the work of a query, does not depend on it.
std::vector<std::unique_ptr<Query>> make_queries(std::uint64_t seed) {
  std::mt19937_64 rng(mix64(seed ^ 0x706c616eull));
  std::vector<std::unique_ptr<Query>> out;
  for (const char* model_name : {"1.3B", "3B", "7B"}) {
    for (const i64 base : {i64{32768}, i64{65536}, i64{131072}}) {
      for (const char* cluster_name : {"H20", "A800"}) {
        const model::ModelConfig mc = model::model_by_name(model_name);
        const model::ClusterSpec cluster = model::cluster_by_name(cluster_name);
        auto q = std::make_unique<Query>();
        q->seq = base + 1024 * (static_cast<i64>(rng() % 9) - 4);
        q->key = std::string(model_name) + "/" + std::to_string(base / 1024) +
                 "k/" + cluster_name;
        q->mem_cap = cluster.gpu.mem_bytes;
        for (const int p : {2, 4, 8}) {
          if (mc.num_layers % p != 0) continue;
          const model::TrainSetup setup{.seq_len = q->seq, .micro_batch = 1,
                                        .pipeline = p, .micro_batches = 2 * p,
                                        .sp = 8};
          const core::PipelineProblem pr = model::make_problem(mc, setup);
          const model::LayerDims dims{.s = q->seq, .b = 1, .h = mc.hidden};
          q->costs.push_back(std::make_unique<model::PaperCostModel>(
              model::TimingModel(cluster, {}, setup.sp), mc, dims, p));
          const auto lw_base = model::layerwise_base_memory(mc, setup);
          const auto hx_base = model::helix_base_memory(mc, setup);
          for (const schedules::FamilySpec& fam : schedules::family_registry()) {
            const bool helix = std::string(fam.key).rfind("helix", 0) == 0;
            q->items.push_back(
                {fam.key, pr, q->costs.back().get(), helix ? hx_base : lw_base});
            q->item_p.push_back(p);
          }
        }
        out.push_back(std::move(q));
      }
    }
  }
  return out;
}

double tokens_per_s(const Query& q, std::size_t i, const sim::SweepOutcome& o) {
  return 2.0 * q.item_p[i] * static_cast<double>(q.seq) / o.makespan;
}

bool feasible(const Query& q, const sim::SweepOutcome& o) {
  return o.ok && o.max_peak_memory <= q.mem_cap;
}

/// Per-answer timings of the traced run (seconds).
struct PlanParts {
  double sweep = 0;
  double build = 0;
  double compile = 0;
  double simulate = 0;
  double critical_path = 0;
  double ops = 0;
  double edges = 0;
};

struct Answer {
  std::vector<sim::SweepOutcome> outcomes;
  int best = -1;
  sim::CriticalPathReport path;
};

/// Stopwatch that adds each lap to a PlanParts field; inert without one.
struct Laps {
  PlanParts* parts;
  double t = parts != nullptr ? now_s() : 0;
  void lap(double PlanParts::*field) {
    if (parts == nullptr) return;
    const double n = now_s();
    parts->*field += n - t;
    t = n;
  }
};

/// One planner query. With `parts`, the sweep and the recommended
/// configuration's build / compile / simulate / critical path are timed
/// separately.
Answer answer_query(const Query& q, PlanParts* parts) {
  Answer a;
  Laps laps{parts};
  sim::Sweep sweep;  // fresh per query: the memo cache starts cold
  a.outcomes = sweep.run(q.items);
  laps.lap(&PlanParts::sweep);
  double best_tps = 0;
  for (std::size_t i = 0; i < a.outcomes.size(); ++i) {
    const sim::SweepOutcome& o = a.outcomes[i];
    if (!feasible(q, o)) continue;
    const double tps = tokens_per_s(q, i, o);
    if (tps > best_tps) {
      best_tps = tps;
      a.best = static_cast<int>(i);
    }
  }
  if (a.best < 0) return a;
  const sim::SweepItem& item = q.items[static_cast<std::size_t>(a.best)];
  laps.t = parts != nullptr ? now_s() : 0;
  const core::Schedule sched =
      schedules::find_family(item.family)->build(item.problem, *item.cost);
  laps.lap(&PlanParts::build);
  const core::CompiledSchedule cs = core::CompiledSchedule::build(sched);
  laps.lap(&PlanParts::compile);
  sim::SimWorkspace ws;
  const sim::SimResult& res = sim::Simulator(*item.cost).run(cs, ws, item.base_memory);
  laps.lap(&PlanParts::simulate);
  a.path = sim::critical_path(cs, res);
  laps.lap(&PlanParts::critical_path);
  if (parts != nullptr) {
    parts->ops += static_cast<double>(cs.num_ops());
    parts->edges += static_cast<double>(cs.num_edges);
  }
  return a;
}

bool same_outcome(const sim::SweepOutcome& a, const sim::SweepOutcome& b) {
  return a.ok == b.ok && a.error == b.error && a.makespan == b.makespan &&
         a.total_bubble == b.total_bubble &&
         a.total_recv_wait == b.total_recv_wait &&
         a.max_peak_memory == b.max_peak_memory &&
         a.stage_peak_memory == b.stage_peak_memory;
}

/// Busiest stage's compute time, summed from the cost model over the
/// schedule's ops (independent of the simulator).
double busiest_stage_compute(const core::Schedule& s, const core::CostModel& cost) {
  double busiest = 0;
  for (const std::vector<core::Op>& prog : s.stage_ops) {
    double sum = 0;
    for (const core::Op& op : prog) {
      if (core::is_compute(op.kind)) sum += cost.compute_seconds(op);
    }
    busiest = std::max(busiest, sum);
  }
  return busiest;
}

/// Checks every answer gets: its outcomes equal the exhaustively checked
/// first answer of the same query, the recommendation is the best feasible
/// tokens/s recomputed here, and the critical path tiles the makespan.
std::string check_answer(const Query& q, const Answer& a,
                         const std::vector<sim::SweepOutcome>& checked) {
  if (a.outcomes.size() != checked.size()) return "outcome count changed";
  for (std::size_t i = 0; i < checked.size(); ++i) {
    if (!same_outcome(a.outcomes[i], checked[i])) {
      return "outcome of " + q.items[i].family + " p=" +
             std::to_string(q.item_p[i]) + " differs between answers";
    }
  }
  double best = -1;
  for (std::size_t i = 0; i < a.outcomes.size(); ++i) {
    if (feasible(q, a.outcomes[i])) {
      best = std::max(best, tokens_per_s(q, i, a.outcomes[i]));
    }
  }
  if (a.best < 0) return "no feasible configuration";
  const auto bi = static_cast<std::size_t>(a.best);
  if (!feasible(q, a.outcomes[bi]) || tokens_per_s(q, bi, a.outcomes[bi]) != best) {
    return "recommendation is not the best feasible tokens/s";
  }
  const double makespan = a.outcomes[bi].makespan;
  const double eps = 1e-9 * makespan;
  const auto& chain = a.path.chain;
  if (chain.empty() || std::abs(chain.front().start) > eps ||
      std::abs(chain.back().end - makespan) > eps ||
      std::abs(a.path.makespan - makespan) > eps) {
    return "critical path does not span the recommended makespan";
  }
  double covered = 0;
  for (std::size_t k = 0; k < chain.size(); ++k) {
    if (chain[k].end < chain[k].start - eps) return "critical path node ends before it starts";
    if (k > 0 && std::abs(chain[k].start - chain[k - 1].end) > eps) {
      return "critical path segments leave a gap or overlap";
    }
    covered += chain[k].end - chain[k].start;
  }
  if (std::abs(covered - makespan) > 1e-6 * makespan) {
    return "critical path segments do not sum to the makespan";
  }
  return {};
}

/// First-answer checks that need each configuration rebuilt: every
/// makespan is at least its busiest stage's compute time.
std::string check_floors(const Query& q, const std::vector<sim::SweepOutcome>& outs) {
  for (std::size_t i = 0; i < outs.size(); ++i) {
    if (!outs[i].ok) continue;
    const sim::SweepItem& item = q.items[i];
    const core::Schedule s =
        schedules::find_family(item.family)->build(item.problem, *item.cost);
    const double floor = busiest_stage_compute(s, *item.cost);
    if (!(outs[i].makespan >= floor * (1 - 1e-12))) {
      return q.key + ": " + item.family + " p=" + std::to_string(q.item_p[i]) +
             " makespan below its busiest stage's compute";
    }
  }
  return {};
}

/// Table 2 closed forms on the free-comm shapes with part costs 1:3:2.
/// Exact where the form is exact; the greedy ZB1P filler and recomputation
/// get the slack DESIGN and the bubble tests document.
void check_closed_forms(Outcome& out) {
  const core::UnitCostModel unit{};
  const model::PartTimes t{.pre = 1.0, .attn = 3.0, .post = 2.0};
  const struct {
    int p, L;
  } shapes[] = {{4, 8}, {8, 16}, {4, 16}};
  for (const auto& [p, L] : shapes) {
    const auto bubble = [&](const char* family, int m) {
      core::PipelineProblem pr;
      pr.p = p;
      pr.m = m;
      pr.L = L;
      pr.comm.boundary = pr.comm.pre_to_attn = pr.comm.attn_to_post = 1;
      pr.include_lm_head = false;
      const core::Schedule s = schedules::find_family(family)->build(pr, unit);
      const sim::SimResult r = sim::Simulator(unit).run(s);
      const bool rc = std::string(family) == "helix_two_fold_rc";
      const double work = m * (L / p) * (rc ? 21.0 : 18.0);
      return r.makespan - work;
    };
    const std::string shape = "p=" + std::to_string(p) + " L=" + std::to_string(L);
    const auto near = [](double a, double b) { return std::abs(a - b) <= 1e-9; };
    const int m = 2 * p;
    out.run_check(near(bubble("1f1b", m), model::onef1b_bubble(t, p, L)),
                  shape + ": 1f1b bubble != closed form");
    out.run_check(near(bubble("zb2p", m), model::zb2p_bubble(t, p, m, L)),
                  shape + ": zb2p bubble != closed form");
    const double zb1 = bubble("zb1p", m);
    const double zb1_form = model::zb1p_bubble(t, p, L);
    out.run_check(zb1 >= zb1_form - 1e-9 && zb1 <= zb1_form + (p - 1) * 3.0 * (L / p) + 1e-9,
                  shape + ": zb1p bubble outside [closed form, + one W chunk per rank]");
    out.run_check(near(bubble("helix_naive", p), model::helix_naive_bubble(t, p)),
                  shape + ": helix_naive bubble (m=p) != closed form");
    out.run_check(near(bubble("helix_two_fold", m), model::helix_two_fold_bubble(t, p)),
                  shape + ": helix_two_fold bubble != closed form");
    const double rc = bubble("helix_two_fold_rc", m);
    const double rc_form = model::helix_two_fold_recompute_bubble(t, p);
    out.run_check(rc <= rc_form + 1e-9 && rc >= rc_form - (t.pre + t.post) - 1e-9,
                  shape + ": helix_two_fold_rc bubble outside [form - (pre+post), form]");
  }
}

/// Replays one answer's sweep as direct calls (build -> compile ->
/// simulate, one workspace per grain-4 chunk as Sweep uses) and compares
/// the outcomes bit for bit.
std::string replay(const Query& q, const std::vector<sim::SweepOutcome>& swept,
                   PlanParts& parts) {
  sim::SimWorkspace ws;
  for (std::size_t i = 0; i < q.items.size(); ++i) {
    if (i % 4 == 0) ws = sim::SimWorkspace{};
    const sim::SweepItem& item = q.items[i];
    sim::SweepOutcome o;
    double t = now_s();
    try {
      const core::Schedule s =
          schedules::find_family(item.family)->build(item.problem, *item.cost);
      double n = now_s();
      parts.build += n - t;
      t = n;
      const core::CompiledSchedule cs = core::CompiledSchedule::build(s);
      n = now_s();
      parts.compile += n - t;
      t = n;
      ws.last = nullptr;
      const sim::SimResult& r = sim::Simulator(*item.cost).run(cs, ws, item.base_memory);
      n = now_s();
      parts.simulate += n - t;
      parts.ops += static_cast<double>(cs.num_ops());
      parts.edges += static_cast<double>(cs.num_edges);
      o.ok = true;
      o.makespan = r.makespan;
      o.total_bubble = r.total_bubble();
      o.max_peak_memory = r.max_peak_memory();
      for (const sim::StageStats& st : r.stages) {
        o.total_recv_wait += st.recv_wait;
        o.stage_peak_memory.push_back(st.peak_memory);
      }
    } catch (const std::exception& e) {
      parts.build += now_s() - t;
      o = sim::SweepOutcome{};
      o.error = e.what();
    }
    if (!same_outcome(o, swept[i])) {
      return q.key + ": replayed " + item.family + " differs from the sweep";
    }
  }
  return {};
}

}  // namespace

Outcome run_plan_sweep(const Args& args) {
  Outcome out;
  std::mt19937_64 order_rng(mix64(args.seed ^ 0x6f72646572ull));

  // Set-up: build the query grid and cost models, then one untimed
  // warm-up query. The first set-up's queries are the run's; later
  // repetitions only add samples.
  std::vector<std::unique_ptr<Query>> queries;
  const auto setup = [&] {
    auto qs = make_queries(args.seed);
    answer_query(*qs.front(), nullptr);
    return qs;
  };
  SetupSampler setups(args.seconds, 5);
  setups.maybe(0, [&] { queries = setup(); });

  check_closed_forms(out);

  // First answers: checked exhaustively (makespan floors need every
  // configuration rebuilt). Later answers must equal them bit for bit.
  std::vector<std::vector<sim::SweepOutcome>> checked;
  for (const auto& q : queries) {
    Answer a = answer_query(*q, nullptr);
    std::string why = check_floors(*q, a.outcomes);
    if (why.empty()) why = check_answer(*q, a, a.outcomes);
    out.run_check(why.empty(), q->key + ": " + why);
    checked.push_back(std::move(a.outcomes));
  }

  std::vector<std::size_t> order(queries.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;

  // Timed rounds: every round answers every query once, in a seeded order.
  // The traced run first measures untraced rounds for a third of its time,
  // the baseline of its overhead.
  std::map<std::string, std::vector<double>> times;
  std::vector<double> traced_times;
  double configs = 0, cost_sum = 0;
  PlanParts rec;     // the answers' own timed parts (sweep + recommendation)
  PlanParts replay_parts;  // the sweeps replayed as direct calls
  const double t_start = now_s();
  const double untraced_until = args.trace ? args.seconds / 3 : args.seconds;
  int rounds = 0;
  while (rounds < 2 || now_s() - t_start < args.seconds ||
         (args.trace && traced_times.empty())) {
    const bool traced = args.trace && rounds >= 1 && now_s() - t_start >= untraced_until;
    std::shuffle(order.begin(), order.end(), order_rng);
    for (const std::size_t qi : order) {
      const Query& q = *queries[qi];
      const double t0 = now_s();
      const Answer a = answer_query(q, traced ? &rec : nullptr);
      const double dt = now_s() - t0;
      const std::string why = check_answer(q, a, checked[qi]);
      out.answer(why.empty(), q.key + ": " + why);
      if (traced) {
        traced_times.push_back(dt);
        const std::string rw = replay(q, a.outcomes, replay_parts);
        out.run_check(rw.empty(), rw);
        continue;
      }
      times[q.key].push_back(dt);
      configs += static_cast<double>(q.items.size());
      if (a.best >= 0) {
        const auto b = static_cast<std::size_t>(a.best);
        cost_sum += a.outcomes[b].makespan /
                    (2.0 * q.item_p[b] * static_cast<double>(q.seq)) * 1e6;
      }
    }
    ++rounds;
    if (!args.trace) setups.maybe(now_s() - t_start, setup);
  }

  if (!args.trace) {
    const double n = static_cast<double>(out.attempted);
    out.metrics["setup_s"] = setups.median_s();
    // A query's fastest answer over the run, not its median: on a shared
    // host, planner queries slow by up to half for stretches of seconds
    // (load from other tenants that the reference loop does not show), and
    // per-run medians moved 28% between runs of the same code. Noise only
    // adds time, so the fastest of 60-80 answers is the steady estimate.
    double fastest = 0;
    for (const auto& [key, v] : times) fastest += *std::min_element(v.begin(), v.end());
    out.metrics["answer_s"] = fastest / static_cast<double>(times.size());
    out.metrics["work_per_s"] = configs / n / out.metrics["answer_s"];
    out.metrics["answer_cost"] = cost_sum / n;
    out.metrics["peak_rss_mib"] = peak_rss_mib();
    std::printf("# plan_sweep: %d rounds, %.0f queries, %.0f configurations\n",
                rounds, n, configs);
    return out;
  }

  // Traced: per-answer means. The replayed parts are what Sweep::run spent
  // building, compiling and simulating; the rest of its time is its own
  // overhead (memo keys, dispatch, outcome copies). The recommendation's
  // rebuild is timed inside the answer.
  const double n = static_cast<double>(traced_times.size());
  const double answer = mean(traced_times);
  const double replayed = replay_parts.build + replay_parts.compile + replay_parts.simulate;
  auto& m = out.metrics;
  m["schedules.build_s"] = (rec.build + replay_parts.build) / n;
  m["core.compile_s"] = (rec.compile + replay_parts.compile) / n;
  m["sim.simulate_s"] = (rec.simulate + replay_parts.simulate) / n;
  m["sim.critical_path_s"] = rec.critical_path / n;
  m["sim.sweep_overhead_s"] = (rec.sweep - replayed) / n;
  m["core.ops"] = (rec.ops + replay_parts.ops) / n;
  m["core.edges"] = (rec.edges + replay_parts.edges) / n;
  const char* kParts[] = {"schedules.build_s", "core.compile_s", "sim.simulate_s",
                          "sim.critical_path_s", "sim.sweep_overhead_s"};
  double attributed = 0;
  for (const char* k : kParts) attributed += m[k];
  m["plan.unattributed_s"] = answer - attributed;
  m["trace.answer_s"] = answer;
  m["trace.unattributed_share"] = m["plan.unattributed_s"] / answer;
  double untraced_total = 0, untraced_n = 0;
  for (const auto& [k, v] : times) {
    for (const double x : v) untraced_total += x;
    untraced_n += static_cast<double>(v.size());
  }
  const double untraced = untraced_total / untraced_n;
  m["trace.overhead_share"] = answer / untraced - 1;

  std::printf("\nplan_sweep traced run: %.0f traced queries; per query:\n", n);
  for (const char* k : kParts) {
    std::printf("  %-26s %10.3f ms  %5.1f%%\n", k, m[k] * 1e3, 100 * m[k] / answer);
  }
  std::printf("  %-26s %10.3f ms  %5.1f%%\n", "plan.unattributed_s",
              m["plan.unattributed_s"] * 1e3, 100 * m["trace.unattributed_share"]);
  std::printf("  %-26s %10.3f ms  (= parts + unattributed)\n", "answer, traced", answer * 1e3);
  std::printf("  %-26s %10.3f ms  (tracing overhead %+.2f%%)\n", "answer, untraced",
              untraced * 1e3, 100 * m["trace.overhead_share"]);
  std::printf("  configurations per query %.1f, ops %.0f, edges %.0f\n",
              static_cast<double>(queries.front()->items.size()), m["core.ops"],
              m["core.edges"]);
  return out;
}

}  // namespace perfbench
