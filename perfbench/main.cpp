// Headline benchmark of casurf: times the partitioned-CA family against the
// exact DMC methods on the same problems, checks every result, and prints
// one JSON line of metrics. README.md describes the workloads, the metrics,
// the checks and their tolerances.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//   perfbench --self-test

#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "checks.hpp"
#include "core/audit.hpp"
#include "core/simulation.hpp"
#include "core/state_io.hpp"
#include "io/checkpoint.hpp"
#include "models/pt100.hpp"
#include "models/zgb.hpp"
#include "obs/metrics.hpp"
#include "partition/coloring.hpp"

namespace {

using casurf::Algorithm;
using casurf::ChunkPolicy;
using Clock = std::chrono::steady_clock;

// Taken during static initialization, before main: the cold set-up time is
// measured from here.
const Clock::time_point g_process_start = Clock::now();

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

const std::filesystem::path kOutDir = ".bench_out";

// ---------------------------------------------------------------------------
// Spans: the benchmark's own record of each public call it makes, kept in
// memory and written as a Chrome trace at the end of a traced run. Not
// obs::Tracer: that takes only static span names and records no parent,
// and these spans need both (per-variant names, the span that caused it).

class SpanLog {
 public:
  int open(std::string name) {
    const int id = static_cast<int>(spans_.size());
    spans_.push_back({std::move(name), now_ns(), 0, stack_.empty() ? -1 : stack_.back()});
    stack_.push_back(id);
    return id;
  }
  void close(int id) {
    spans_[static_cast<std::size_t>(id)].dur_ns =
        now_ns() - spans_[static_cast<std::size_t>(id)].start_ns;
    stack_.pop_back();
  }
  void write_chrome_trace(const std::filesystem::path& path) const {
    std::ofstream out(path);
    out.setf(std::ios::fixed);
    out.precision(3);
    out << "{\"traceEvents\":[\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Record& s = spans_[i];
      out << (i ? ",\n" : "") << "{\"name\":\"" << s.name
          << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":" << s.start_ns / 1000.0
          << ",\"dur\":" << s.dur_ns / 1000.0 << ",\"args\":{\"id\":" << i
          << ",\"parent\":" << s.parent << "}}";
    }
    out << "\n]}\n";
  }

 private:
  struct Record {
    std::string name;
    std::int64_t start_ns;
    std::int64_t dur_ns;
    int parent;
  };
  static std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - g_process_start)
        .count();
  }
  std::vector<Record> spans_;
  std::vector<int> stack_;
};

/// RAII span; a null log makes it a no-op (the untraced rounds).
class Span {
 public:
  Span(SpanLog* log, std::string name) : log_(log), id_(log ? log->open(std::move(name)) : -1) {}
  ~Span() {
    if (log_ != nullptr) log_->close(id_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanLog* log_;
  int id_;
};

// ---------------------------------------------------------------------------
// Workloads.

enum class ModelKind { kZgb, kPt100 };

struct SimSpec {
  const char* variant;
  Algorithm algorithm;
  bool fast_path = false;
  ChunkPolicy policy = ChunkPolicy::kRandomOrder;
  std::uint32_t l_trials = 1;
};

bool partitioned(Algorithm a) {
  return a == Algorithm::kPndca || a == Algorithm::kLPndca ||
         a == Algorithm::kParallelPndca;
}

struct Workload {
  const char* name;
  ModelKind model;
  std::int32_t side;
  double t_end;
  int samples;  ///< coverage samples, evenly spaced in time
  std::vector<SimSpec> sims;
  /// Pairs of sims (indices into `sims`) that must end bit-identical.
  std::vector<std::pair<int, int>> identical;
  /// Pair of exact sims whose final coverages must agree within kExactTol.
  std::pair<int, int> exact_pair{-1, -1};
  /// Check every sim's coverages against a small-lattice VSSM reference.
  bool vssm_reference = false;
  /// Serialize every sim's state at each sample (periodic checkpoints), and
  /// checkpoint this sim to disk at mid-run for the resume check (-1: none).
  bool periodic_checkpoints = false;
  int resume_sim = -1;
};

// ZGB at y = 0.45, in the reactive window, with a fast surface reaction
// (k_CO2 = 20, so K = 21): the parameters casurf_run uses.
constexpr double kZgbY = 0.45;
constexpr double kZgbReaction = 20.0;

// The 1-worker threaded engine is the only threaded configuration: see
// README.md for why more workers are left out.
constexpr unsigned kEngineThreads = 1;

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = [] {
    std::vector<Workload> w;
    w.push_back({"zgb-pndca", ModelKind::kZgb, 1000, 2.5, 10,
                 {{"pndca-scalar", Algorithm::kPndca},
                  {"pndca-batched", Algorithm::kPndca, true},
                  {"engine-1w", Algorithm::kParallelPndca, true}},
                 {{0, 1}, {0, 2}}});
    w.back().vssm_reference = true;
    w.push_back({"zgb-exact", ModelKind::kZgb, 1000, 2.5, 10,
                 {{"vssm", Algorithm::kVssm}, {"rsm", Algorithm::kRsm}},
                 {}});
    w.back().exact_pair = {0, 1};
    w.push_back({"pt100-rw", ModelKind::kPt100, 256, 2.0, 8,
                 {{"pndca-rw", Algorithm::kPndca, true, ChunkPolicy::kRateWeighted},
                  {"engine-1w-rw", Algorithm::kParallelPndca, true, ChunkPolicy::kRateWeighted},
                  {"lpndca", Algorithm::kLPndca, true, ChunkPolicy::kRandomOrder, 100}},
                 {{0, 1}}});
    w.back().periodic_checkpoints = true;
    w.back().resume_sim = 0;
    return w;
  }();
  return all;
}

// Statistical tolerances (absolute coverage); README.md gives the reasoning.
constexpr double kExactTol = 0.005;     // VSSM vs RSM, both on the full lattice
constexpr double kAccuracyTol = 0.015;  // PNDCA vs the small-lattice VSSM reference
constexpr std::int32_t kRefSide = 250;
constexpr int kRefReplicas = 4;

struct BuiltModel {
  std::unique_ptr<casurf::ReactionModel> model;
  casurf::Species fill;
};

BuiltModel build_model(ModelKind kind) {
  if (kind == ModelKind::kZgb) {
    auto z = casurf::models::make_zgb(casurf::models::ZgbParams::from_y(kZgbY, kZgbReaction));
    return {std::make_unique<casurf::ReactionModel>(std::move(z.model)), z.vacant};
  }
  auto p = casurf::models::make_pt100();
  return {std::make_unique<casurf::ReactionModel>(std::move(p.model)), p.hex_vac};
}

// ---------------------------------------------------------------------------
// One simulation: set-up, run, result.

using Layer = std::map<std::string, double>;

struct Sim {
  const SimSpec* spec = nullptr;
  std::unique_ptr<casurf::ReactionModel> model;
  std::unique_ptr<casurf::Simulator> sim;
  std::vector<std::uint64_t> initial_counts;
  std::vector<double> coverage;  ///< latest sample
};

/// Everything a user pays before the first step: model, lattice, partition,
/// simulator, batched-path state. Layer times land in `layer`.
Sim set_up(const Workload& w, const SimSpec& spec, std::uint64_t seed, Layer& layer,
           SpanLog* spans) {
  const Span span(spans, std::string("setup/") + spec.variant);
  Sim s;
  s.spec = &spec;
  BuiltModel built = build_model(w.model);
  s.model = std::move(built.model);
  casurf::Configuration initial(casurf::Lattice(w.side, w.side), s.model->species().size(),
                                built.fill);
  for (std::size_t sp = 0; sp < initial.num_species(); ++sp) {
    s.initial_counts.push_back(initial.count(static_cast<casurf::Species>(sp)));
  }
  casurf::SimulationOptions opt;
  opt.algorithm = spec.algorithm;
  opt.seed = seed;
  opt.chunk_policy = spec.policy;
  opt.l_trials = spec.l_trials;
  opt.threads = kEngineThreads;
  if (partitioned(spec.algorithm)) {
    const Span p(spans, "make_partition");
    const Clock::time_point t0 = Clock::now();
    opt.partition = std::make_shared<const casurf::Partition>(
        casurf::make_partition(initial.lattice(), *s.model));
    layer["partition.make_s"] += seconds_since(t0);
    if (layer["partition.chunks"] == 0) {
      layer["partition.chunks"] = static_cast<double>(opt.partition->num_chunks());
    }
  }
  {
    const Span p(spans, "make_simulator");
    const Clock::time_point t0 = Clock::now();
    s.sim = casurf::make_simulator(*s.model, std::move(initial), opt);
    layer["core.construct_s"] += seconds_since(t0);
  }
  if (spec.fast_path) {
    const Span p(spans, "set_fast_path");
    const Clock::time_point t0 = Clock::now();
    const bool engaged = s.sim->set_fast_path(true);
    layer["ca.fastpath_setup_s"] += seconds_since(t0);
    if (!engaged) {
      throw std::runtime_error(std::string(spec.variant) + ": batched path did not engage");
    }
  }
  return s;
}

void sample_coverage(Sim& s) {
  const casurf::Configuration& cfg = s.sim->configuration();
  s.coverage.resize(cfg.num_species());
  for (std::size_t sp = 0; sp < cfg.num_species(); ++sp) {
    s.coverage[sp] = cfg.coverage(static_cast<casurf::Species>(sp));
  }
}

double sample_time(const Workload& w, int k) {
  return w.t_end * static_cast<double>(k) / static_cast<double>(w.samples);
}

/// What Simulator::advance_to does for the trial-based CA family, with each
/// mc_step timed from outside (traced rounds only).
void stepped_advance(casurf::Simulator& sim, double t, std::vector<std::uint32_t>& step_ns) {
  while (sim.time() < t) {
    const double before = sim.time();
    const Clock::time_point t0 = Clock::now();
    sim.mc_step();
    step_ns.push_back(static_cast<std::uint32_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0).count()));
    if (sim.time() <= before) {
      return;  // absorbing state: leave the time jump to advance_to below
    }
  }
}

/// Advance one simulation from sample `from` to the end time, sampling
/// coverage (and, where the workload asks, checkpointing) at each sample.
/// A non-empty `disk_checkpoint` is written at mid-run for the resume check.
/// Returns the seconds spent on each sample interval, minus that disk write,
/// which no timed figure includes.
std::vector<double> run_sim(const Workload& w, Sim& s, int from,
                            const std::filesystem::path& disk_checkpoint, Layer& layer,
                            std::vector<std::uint32_t>* step_ns, SpanLog* spans) {
  const Span span(spans, std::string("run/") + s.spec->variant);
  const bool stepped = step_ns != nullptr && partitioned(s.spec->algorithm);
  std::vector<double> interval_s;
  for (int k = from + 1; k <= w.samples; ++k) {
    const Clock::time_point start = Clock::now();
    double excluded = 0;
    const double target = sample_time(w, k);
    {
      const Span a(spans, stepped ? "mc_step loop" : "advance_to");
      if (stepped) stepped_advance(*s.sim, target, *step_ns);
      s.sim->advance_to(target);
    }
    {
      const Clock::time_point t0 = Clock::now();
      sample_coverage(s);
      layer["core.sample_s"] += seconds_since(t0);
    }
    if (w.periodic_checkpoints) {
      const Span c(spans, "checkpoint/serialize");
      const Clock::time_point t0 = Clock::now();
      casurf::StateWriter writer;
      s.sim->save_state(writer);
      static_cast<void>(casurf::io::crc32(writer.buffer()));
      layer["io.periodic_checkpoint_s"] += seconds_since(t0);
      layer["io.periodic_checkpoint_bytes"] += static_cast<double>(writer.size());
    }
    if (!disk_checkpoint.empty() && k == w.samples / 2) {
      const Span c(spans, "io::save_checkpoint");
      const Clock::time_point t0 = Clock::now();
      casurf::io::save_checkpoint(disk_checkpoint.string(), *s.sim);
      const double dt = seconds_since(t0);
      excluded = dt;
      layer["io.checkpoint_write_s"] += dt;
      layer["io.checkpoint_bytes"] =
          static_cast<double>(std::filesystem::file_size(disk_checkpoint));
    }
    interval_s.push_back(seconds_since(start) - excluded);
  }
  return interval_s;
}

perfbench::SimResult capture(const Sim& s) {
  const casurf::Simulator& sim = *s.sim;
  const casurf::Configuration& cfg = sim.configuration();
  perfbench::SimResult r;
  r.variant = s.spec->variant;
  r.final_state.assign(cfg.raw().begin(), cfg.raw().end());
  r.initial_counts = s.initial_counts;
  for (std::size_t sp = 0; sp < cfg.num_species(); ++sp) {
    r.reported_counts.push_back(cfg.count(static_cast<casurf::Species>(sp)));
  }
  r.final_coverage = s.coverage;
  r.time = sim.time();
  r.trials = sim.counters().trials;
  r.executed = sim.counters().executed;
  r.steps = sim.counters().steps;
  r.executed_per_type = sim.counters().executed_per_type;
  r.nk = static_cast<double>(cfg.size()) * sim.model().total_rate();
  return r;
}

/// Mean final coverage of kRefReplicas independent VSSM runs on a
/// kRefSide^2 lattice: the exact reference for the PNDCA accuracy check.
/// Depends only on the workload and the seed, so it is computed once.
const std::vector<double>& vssm_reference(const Workload& w, std::uint64_t seed) {
  static std::map<std::pair<std::string, std::uint64_t>, std::vector<double>> cache;
  std::vector<double>& mean = cache[{w.name, seed}];
  if (!mean.empty()) return mean;
  for (int r = 0; r < kRefReplicas; ++r) {
    BuiltModel built = build_model(w.model);
    casurf::SimulationOptions opt;
    opt.algorithm = Algorithm::kVssm;
    opt.seed = seed * 1000003u + static_cast<std::uint64_t>(r) + 1;
    auto sim = casurf::make_simulator(
        *built.model,
        casurf::Configuration(casurf::Lattice(kRefSide, kRefSide),
                              built.model->species().size(), built.fill),
        opt);
    sim->advance_to(w.t_end);
    const casurf::Configuration& cfg = sim->configuration();
    mean.resize(cfg.num_species());
    for (std::size_t sp = 0; sp < cfg.num_species(); ++sp) {
      mean[sp] += cfg.coverage(static_cast<casurf::Species>(sp)) / kRefReplicas;
    }
  }
  return mean;
}

// ---------------------------------------------------------------------------
// One round: set up every simulation of the workload, run each to the end
// time, check the results.

struct Round {
  Clock::time_point setup_done;
  double setup_s = 0;
  double run_s = 0;
  std::uint64_t trials = 0;
  /// Per simulation, the seconds of each sample interval.
  std::map<std::string, std::vector<double>> sim_interval_s;
  Layer layer;
  std::vector<perfbench::SimResult> results;
  int attempted = 0;
  int failed = 0;
};

void read_registry(const casurf::obs::MetricsRegistry& reg, const Workload& w,
                   const std::vector<perfbench::SimResult>& results, Layer& layer) {
  std::map<std::string, double> t;  // timer totals, seconds
  for (const auto& s : reg.timers()) t[s.name] = static_cast<double>(s.total_ns) * 1e-9;
  std::map<std::string, double> c;
  for (const auto& s : reg.counters()) c[s.name] = static_cast<double>(s.value);
  const auto prefix_sum = [&](const std::string& prefix) {
    double sum = 0;
    for (const auto& [name, v] : t) {
      if (name.rfind(prefix, 0) == 0) sum += v;
    }
    return sum;
  };
  layer["ca.sweep_s"] = t["pndca/sweep"];
  layer["ca.plan_s"] = t["pndca/plan"] + t["lpndca/select"];
  layer["ca.rate_rechecks"] = c["pndca/rate_rechecks"] + c["lpndca/rate_rechecks"];
  layer["ca.boundary_rechecks"] = c["pndca/boundary_rechecks"] + c["lpndca/boundary_rechecks"];
  layer["rng.clock_s"] = t["pndca/step"] - t["pndca/plan"] - t["pndca/sweep"];
  layer["parallel.recheck_s"] = t["threads/recheck"];
  layer["parallel.merge_s"] = t["threads/merge"];
  layer["parallel.busy_s"] = prefix_sum("threads/busy/worker");
  layer["parallel.wait_s"] = prefix_sum("threads/wait/worker");
  layer["dmc.vssm.step_s"] = t["vssm/step"];
  layer["dmc.vssm.rate_scan_s"] = t["vssm/rate_scan"];
  layer["dmc.rsm.step_s"] = t["rsm/step"] + t["rsm/advance"];
  double ca_trials = 0, ca_executed = 0, dmc_events = 0;
  for (std::size_t i = 0; i < results.size(); ++i) {
    if (partitioned(w.sims[i].algorithm)) {
      ca_trials += static_cast<double>(results[i].trials);
      ca_executed += static_cast<double>(results[i].executed);
    } else {
      dmc_events += static_cast<double>(results[i].executed);
    }
  }
  layer["ca.trials"] = ca_trials;
  layer["ca.acceptance"] = ca_trials > 0 ? ca_executed / ca_trials : 0;
  layer["dmc.events"] = dmc_events;
}

Round run_round(const Workload& w, std::uint64_t seed, bool traced, SpanLog* spans,
                std::vector<std::uint32_t>* step_ns, double* cold_setup_s) {
  Round round;
  const Span round_span(spans, std::string("round/") + w.name);
  casurf::obs::MetricsRegistry registry;
  std::vector<Sim> sims;
  const Clock::time_point setup_start = Clock::now();
  for (const SimSpec& spec : w.sims) {
    sims.push_back(set_up(w, spec, seed, round.layer, spans));
    if (traced) sims.back().sim->set_metrics(&registry);
  }
  round.setup_done = Clock::now();
  round.setup_s = std::chrono::duration<double>(round.setup_done - setup_start).count();
  if (cold_setup_s != nullptr) *cold_setup_s = seconds_since(g_process_start);

  const std::filesystem::path checkpoint =
      kOutDir / (std::string(w.name) + "-seed" + std::to_string(seed) + "-mid.ckpt");
  for (std::size_t i = 0; i < sims.size(); ++i) {
    const bool resumable = static_cast<int>(i) == w.resume_sim;
    std::vector<double> interval_s =
        run_sim(w, sims[i], 0, resumable ? checkpoint : std::filesystem::path(), round.layer,
                traced ? step_ns : nullptr, spans);
    for (const double s : interval_s) round.run_s += s;
    round.sim_interval_s[sims[i].spec->variant] = std::move(interval_s);
    round.trials += sims[i].sim->counters().trials;
  }
  for (const Sim& s : sims) {
    round.results.push_back(capture(s));
    std::fprintf(stderr, "  %-14s t=%.4f coverage", s.spec->variant, s.sim->time());
    for (const double c : s.coverage) std::fprintf(stderr, " %.5f", c);
    std::fprintf(stderr, "\n");
  }
  if (traced) read_registry(registry, w, round.results, round.layer);

  // Checks. A sim fails if any check naming it fails.
  const Span check_span(spans, "checks");
  std::vector<std::string> failures(sims.size());
  const auto fail = [&](std::size_t i, const std::string& why) {
    if (!why.empty() && failures[i].empty()) failures[i] = why;
  };
  const auto net = perfbench::net_species_change(*sims.front().model);
  const std::vector<std::string>& species = sims.front().model->species().names();
  for (std::size_t i = 0; i < sims.size(); ++i) {
    const perfbench::SimResult& r = round.results[i];
    fail(i, perfbench::check_balance(r, net));
    if (w.sims[i].algorithm != Algorithm::kVssm) fail(i, perfbench::check_clock_law(r));
    if (!(r.time >= w.t_end)) fail(i, r.variant + ": did not reach the end time");
  }
  for (const auto& [a, b] : w.identical) {
    const std::string why = perfbench::check_identical(round.results[static_cast<std::size_t>(a)],
                                                       round.results[static_cast<std::size_t>(b)]);
    fail(static_cast<std::size_t>(a), why);
    fail(static_cast<std::size_t>(b), why);
  }
  if (w.exact_pair.first >= 0) {
    const auto a = static_cast<std::size_t>(w.exact_pair.first);
    const auto b = static_cast<std::size_t>(w.exact_pair.second);
    const std::string why = perfbench::check_coverages(
        round.results[a].final_coverage, round.results[b].final_coverage, kExactTol, species);
    fail(a, why.empty() ? why : "VSSM vs RSM: " + why);
    fail(b, why.empty() ? why : "VSSM vs RSM: " + why);
  }
  if (w.vssm_reference) {
    const Span r(spans, "vssm_reference");
    const std::vector<double>& reference = vssm_reference(w, seed);
    std::fprintf(stderr, "  %-14s t=%.4f coverage", "vssm-reference", w.t_end);
    for (const double c : reference) std::fprintf(stderr, " %.5f", c);
    std::fprintf(stderr, "\n");
    for (std::size_t i = 0; i < sims.size(); ++i) {
      const std::string why = perfbench::check_coverages(round.results[i].final_coverage,
                                                         reference, kAccuracyTol, species);
      fail(i, why.empty() ? why : round.results[i].variant + " vs VSSM reference: " + why);
    }
  }
  const auto audit = [&](std::size_t i, casurf::Simulator& sim) {
    try {
      casurf::StateAuditor(casurf::AuditPolicy::kAbort).run(sim);
    } catch (const casurf::AuditError& e) {
      fail(i, round.results[i].variant + ": audit: " + e.report().to_string());
    }
  };
  if (w.resume_sim >= 0) {
    // Restore the mid-run checkpoint into a freshly built simulator and
    // finish the run: it must end where the uninterrupted run ended.
    const auto i = static_cast<std::size_t>(w.resume_sim);
    Layer untimed;
    Sim resumed = set_up(w, w.sims[i], seed, untimed, nullptr);
    {
      const Span r(spans, "io::restore_checkpoint");
      const Clock::time_point t0 = Clock::now();
      casurf::io::restore_checkpoint(checkpoint.string(), *resumed.sim);
      round.layer["io.restore_s"] += seconds_since(t0);
    }
    std::filesystem::remove(checkpoint);
    run_sim(w, resumed, w.samples / 2, {}, untimed, nullptr, nullptr);
    perfbench::SimResult r = capture(resumed);
    r.variant += "(resumed)";
    fail(i, perfbench::check_identical(round.results[i], r));
    audit(i, *resumed.sim);
  }
  if (w.periodic_checkpoints) {
    // Derived state (rate cache, bitplanes, enabled bitsets) must match a
    // recomputation from the configuration at the end.
    for (std::size_t i = 0; i < sims.size(); ++i) audit(i, *sims[i].sim);
  }
  for (std::size_t i = 0; i < w.sims.size(); ++i) {
    ++round.attempted;
    if (!failures[i].empty()) {
      ++round.failed;
      std::fprintf(stderr, "CHECK FAILED: %s\n", failures[i].c_str());
    }
  }
  return round;
}

// ---------------------------------------------------------------------------
// Measurement loop and report.

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Per simulation, each round's sample-interval seconds.
using IntervalTimes = std::map<std::string, std::vector<std::vector<double>>>;

/// One simulation's run time: for each sample interval, the fastest of the
/// rounds, summed over the intervals. Every round runs the same trajectory,
/// so an interval does the same work in each round; what varies between
/// rounds is the host, whose other tenants only ever add time, in bursts of
/// seconds to minutes. The best of the rounds is the figure least moved by
/// them (README.md, "Steadiness").
double sim_run_s(const std::vector<std::vector<double>>& rounds) {
  double sum = 0;
  for (std::size_t k = 0; k < rounds.front().size(); ++k) {
    double best = rounds.front()[k];
    for (const std::vector<double>& r : rounds) best = std::min(best, r[k]);
    sum += best;
  }
  return sum;
}

double total_run_s(const IntervalTimes& per_sim) {
  double sum = 0;
  for (const auto& [variant, rounds] : per_sim) sum += sim_run_s(rounds);
  return sum;
}

double percentile_ms(std::vector<std::uint32_t>& ns, double q) {
  if (ns.empty()) return 0;
  const auto k = static_cast<std::size_t>(q * static_cast<double>(ns.size() - 1));
  std::nth_element(ns.begin(), ns.begin() + static_cast<std::ptrdiff_t>(k), ns.end());
  return static_cast<double>(ns[k]) * 1e-6;
}

double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  }
  return 0;
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void print_result(bool correct, int attempted, int failed, const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %d, \"failed\": %d, \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                metrics[i].name.c_str(), metrics[i].value, metrics[i].unit);
  }
  std::printf("}}\n");
}

/// Unit of each per-layer metric; the order is the report order.
const std::vector<std::pair<std::string, const char*>>& layer_units() {
  static const std::vector<std::pair<std::string, const char*>> units = [] {
    std::vector<std::pair<std::string, const char*>> u = {
        {"partition.make_s", "s"},         {"partition.chunks", "count"},
        {"core.construct_s", "s"},         {"core.sample_s", "s"},
        {"core.step_ms.p50", "ms"},        {"core.step_ms.p99", "ms"},
        {"core.step_ms.samples", "count"}, {"ca.fastpath_setup_s", "s"},
        {"ca.sweep_s", "s"},               {"ca.plan_s", "s"},
        {"ca.rate_rechecks", "count"},     {"ca.boundary_rechecks", "count"},
        {"ca.acceptance", "ratio"},        {"ca.trials", "count"},
        {"rng.clock_s", "s"},              {"parallel.recheck_s", "s"},
        {"parallel.merge_s", "s"},         {"parallel.busy_s", "s"},
        {"parallel.wait_s", "s"},          {"parallel.engine_overhead_s", "s"},
        {"dmc.vssm.step_s", "s"},          {"dmc.vssm.rate_scan_s", "s"},
        {"dmc.rsm.step_s", "s"},           {"dmc.events", "count"},
        {"io.periodic_checkpoint_s", "s"}, {"io.periodic_checkpoint_bytes", "bytes"},
        {"io.checkpoint_write_s", "s"},    {"io.checkpoint_bytes", "bytes"},
        {"io.restore_s", "s"},             {"obs.trace_overhead_s", "s"},
    };
    for (const Workload& w : workloads()) {
      for (const SimSpec& s : w.sims) u.emplace_back(std::string("sim.") + s.variant + ".run_s", "s");
    }
    return u;
  }();
  return units;
}

int run_workload(const Workload& w, std::uint64_t seed, double seconds, bool trace) {
  std::filesystem::create_directories(kOutDir);
  SpanLog spans;
  std::vector<std::uint32_t> step_ns;
  double cold_setup_s = 0;
  std::uint64_t trials = 0;  // per round; every round runs the same trajectories
  IntervalTimes sim_run, sim_run_traced;
  std::map<std::string, std::vector<double>> layer_samples;
  int attempted = 0, failed = 0;
  Clock::time_point window_start;
  for (int r = 0;; ++r) {
    // With tracing on, rounds alternate untraced / traced, in whole pairs.
    const bool traced = trace && r % 2 == 1;
    const Round round = run_round(w, seed, traced, traced ? &spans : nullptr, &step_ns,
                                  r == 0 ? &cold_setup_s : nullptr);
    if (r == 0) window_start = round.setup_done;
    attempted += round.attempted;
    failed += round.failed;
    std::fprintf(stderr, "%s round %d%s: setup %.3f s, run %.3f s (", w.name, r,
                 traced ? " traced" : "", round.setup_s, round.run_s);
    for (const auto& [v, s] : round.sim_interval_s) {
      double sum = 0;
      for (const double x : s) sum += x;
      std::fprintf(stderr, " %s %.3f", v.c_str(), sum);
    }
    std::fprintf(stderr, " ), %llu trials, %d/%d failed\n",
                 static_cast<unsigned long long>(round.trials), round.failed, round.attempted);
    trials = round.trials;
    if (traced) {
      for (const auto& [v, s] : round.sim_interval_s) sim_run_traced[v].push_back(s);
      for (const auto& [name, v] : round.layer) layer_samples[name].push_back(v);
    } else {
      for (const auto& [v, s] : round.sim_interval_s) sim_run[v].push_back(s);
    }
    const double elapsed = seconds_since(window_start);
    const double per_round = elapsed / (r + 1);
    if (trace && r % 2 == 0) continue;
    if (elapsed + per_round > seconds) break;
    // run_s takes each interval's best round, which is robust from three
    // rounds on. If fewer than three fit, one is measured: a run that fits
    // one or two depending on the host's speed would flip between a single
    // time and a best of two.
    if (r + 1 == (trace ? 2 : 1) && 3 * elapsed > seconds) break;
  }

  const double run_s = total_run_s(sim_run);
  std::vector<Metric> metrics;
  if (!trace) {
    metrics = {{"setup_s", cold_setup_s, "s"},
               {"run_s", run_s, "s"},
               {"trials_per_s", static_cast<double>(trials) / run_s, "trial/s"},
               {"peak_rss_mb", peak_rss_mib(), "MiB"}};
  } else {
    Layer layer;
    for (const auto& [name, v] : layer_samples) layer[name] = median(v);
    for (const auto& [variant, v] : sim_run) layer["sim." + variant + ".run_s"] = sim_run_s(v);
    layer["core.step_ms.samples"] = static_cast<double>(step_ns.size());
    layer["core.step_ms.p50"] = percentile_ms(step_ns, 0.50);
    layer["core.step_ms.p99"] = percentile_ms(step_ns, 0.99);
    layer["obs.trace_overhead_s"] = total_run_s(sim_run_traced) - run_s;
    // The 1-worker engine against the serial batched path with the same
    // chunk policy, on the identical trajectory: the engine's own cost.
    for (const SimSpec& engine : w.sims) {
      for (const SimSpec& serial : w.sims) {
        if (engine.algorithm == Algorithm::kParallelPndca &&
            serial.algorithm == Algorithm::kPndca && serial.fast_path &&
            serial.policy == engine.policy) {
          layer["parallel.engine_overhead_s"] =
              sim_run_s(sim_run[engine.variant]) - sim_run_s(sim_run[serial.variant]);
        }
      }
    }
    for (const auto& [name, unit] : layer_units()) metrics.push_back({name, layer[name], unit});
    const std::filesystem::path trace_path =
        kOutDir / (std::string("trace-") + w.name + "-seed" + std::to_string(seed) + ".json");
    spans.write_chrome_trace(trace_path);
    std::fprintf(stderr, "chrome trace: %s\n", trace_path.c_str());
  }
  print_result(failed == 0, attempted, failed, metrics);
  return 0;
}

// ---------------------------------------------------------------------------
// Self-test: each check must accept a real result and reject a perturbed copy.

int self_test() {
  Workload w{"self-test", ModelKind::kZgb, 200, 1.0, 4,
             {{"pndca-scalar", Algorithm::kPndca}, {"pndca-batched", Algorithm::kPndca, true}},
             {{0, 1}}};
  w.vssm_reference = true;
  std::filesystem::create_directories(kOutDir);
  const std::uint64_t seed = 7;
  const Round round = run_round(w, seed, false, nullptr, nullptr, nullptr);
  const auto built = build_model(w.model);
  const auto net = perfbench::net_species_change(*built.model);
  const std::vector<std::string>& species = built.model->species().names();
  const std::vector<double>& reference = vssm_reference(w, seed);
  const auto checks = [&](const perfbench::SimResult& r) {
    for (const std::string& why :
         {perfbench::check_balance(r, net), perfbench::check_clock_law(r),
          perfbench::check_identical(round.results[1], r),
          perfbench::check_coverages(r.final_coverage, reference, kAccuracyTol, species)}) {
      if (!why.empty()) return why;
    }
    return std::string();
  };
  int bad = 0;
  if (round.failed != 0 || !checks(round.results[0]).empty()) {
    std::printf("FAIL unperturbed result rejected: %s\n", checks(round.results[0]).c_str());
    ++bad;
  } else {
    std::printf("ok   unperturbed result accepted\n");
  }
  std::size_t type = 0;  // a reaction type whose firing changes the counts
  while (std::all_of(net[type].begin(), net[type].end(), [](std::int64_t d) { return d == 0; })) {
    ++type;
  }
  const double sigma = std::sqrt(static_cast<double>(round.results[0].trials)) /
                       round.results[0].nk;
  const std::vector<std::pair<const char*, void (*)(perfbench::SimResult&, double, std::size_t)>>
      perturbations = {
          {"one site of the final configuration",
           [](perfbench::SimResult& r, double, std::size_t) {
             r.final_state[r.final_state.size() / 2] =
                 static_cast<std::uint8_t>((r.final_state[r.final_state.size() / 2] + 1) %
                                           r.initial_counts.size());
           }},
          {"one executed-per-type count",
           [](perfbench::SimResult& r, double, std::size_t t) { ++r.executed_per_type[t]; }},
          {"the end time",
           [](perfbench::SimResult& r, double s, std::size_t) {
             r.time += (perfbench::kClockSigmas + 1) * s;
           }},
          {"one coverage beyond tolerance",
           [](perfbench::SimResult& r, double, std::size_t) {
             r.final_coverage[1] += 1.5 * kAccuracyTol;
           }},
      };
  for (const auto& [what, perturb] : perturbations) {
    perfbench::SimResult copy = round.results[0];
    perturb(copy, sigma, type);
    const std::string why = checks(copy);
    std::printf("%s perturbed %s: %s\n", why.empty() ? "FAIL" : "ok  ", what,
                why.empty() ? "accepted" : ("rejected: " + why).c_str());
    bad += why.empty() ? 1 : 0;
  }
  return bad == 0 ? 0 : 1;
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1\n       perfbench --self-test\nworkloads:",
               why);
  for (const Workload& w : workloads()) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  // Stay on the CPU the process started on. With at most one busy thread
  // this costs no parallelism, and the 1-worker engine's per-sweep hand-off
  // becomes a same-CPU switch instead of a cross-CPU wake-up, whose latency
  // on a shared VM varied that engine's time by up to 2x between runs.
  // Threads started later inherit the mask.
  if (const int cpu = sched_getcpu(); cpu >= 0) {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    sched_setaffinity(0, sizeof one, &one);
  }
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--self-test") {
      return self_test();
    }
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value, &end, 10);
    } else if (flag == "--seconds") {
      seconds = std::strtod(value, &end);
    } else if (flag == "--trace") {
      trace = std::strcmp(value, "1") == 0;
      if (!trace && std::strcmp(value, "0") != 0) usage("--trace takes 0 or 1");
    } else {
      usage(("unknown flag " + flag).c_str());
    }
    if (end != nullptr && *end != '\0') usage(("bad number for " + flag).c_str());
  }
  for (const Workload& w : workloads()) {
    if (workload == w.name) {
      try {
        return run_workload(w, seed, seconds, trace);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
      }
    }
  }
  usage(("unknown workload '" + workload + "'").c_str());
}
