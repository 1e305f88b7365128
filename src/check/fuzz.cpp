#include "check/fuzz.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cstdio>

#include "bb/bb_work.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"
#include "uts/uts_work.hpp"

namespace olb::check {
namespace {

// Fuzzed workloads are deliberately small: a case must run in well under a
// second so the sweep covers many tuples, and small trees make shrunk
// repros fast to replay. Four shapes each so workload_id changes the
// splitting behaviour, not just the seed.
struct UtsSpec {
  int b0;
  double q;
  std::uint32_t root_seed;
};
constexpr UtsSpec kUtsSpecs[kNumWorkloads] = {
    {150, 0.48, 19}, {200, 0.47, 91}, {500, 0.49, 7}, {80, 0.44, 3}};

struct BbSpec {
  int instance;
  int jobs;
  int machines;
};
constexpr BbSpec kBbSpecs[kNumWorkloads] = {
    {0, 8, 5}, {1, 8, 5}, {2, 9, 5}, {3, 8, 6}};

bool needs_interval(lb::Strategy s) {
  return s == lb::Strategy::kMW || s == lb::Strategy::kAHMW;
}

/// How many crashes the strategy survives at this cluster size.
int max_crashes(const FuzzCase& c) {
  if (c.strategy == lb::Strategy::kMW) return std::max(0, c.peers - 2);
  return std::max(0, c.peers - 1);
}

/// The case's cluster before its fault, churn and schedule plans: what
/// the crash rule (lb::crash_refusal) reads.
lb::RunConfig case_cluster(const FuzzCase& c) {
  lb::RunConfig config;
  config.strategy = c.strategy;
  config.num_peers = c.peers;
  config.dmax = c.dmax;
  config.seed = c.seed;
  config.net = lb::paper_network(c.peers);
  return config;
}

/// Draws up to `want` distinct crash victims the strategy survives. Bounded
/// redraw: a refused or repeated draw is retried a fixed number of times
/// and then dropped, so the plan may end up with fewer crashes (still a
/// valid plan) but victim selection stays a pure function of the RNG.
std::vector<int> draw_victims(const FuzzCase& c, int want, Xoshiro256& rng) {
  want = std::min(want, max_crashes(c));
  std::vector<int> out;
  if (want <= 0) return out;
  const lb::RunConfig cluster = case_cluster(c);
  for (int i = 0; i < want; ++i) {
    for (int tries = 0; tries < 64; ++tries) {
      const int p =
          static_cast<int>(rng.below(static_cast<std::uint64_t>(c.peers)));
      if (!lb::crash_refusal(cluster, p).empty()) continue;
      if (std::find(out.begin(), out.end(), p) != out.end()) continue;
      out.push_back(p);
      break;
    }
  }
  return out;
}

sim::Time random_time(Xoshiro256& rng, sim::Time from, sim::Time to) {
  return from + static_cast<sim::Time>(
                    rng.below(static_cast<std::uint64_t>(to - from)));
}

}  // namespace

std::string format_case(const FuzzCase& c) {
  char buf[192];
  std::snprintf(buf, sizeof(buf),
                "strategy=%s peers=%d dmax=%d workload=%d seed=%llu fault=%d "
                "sched=%llu churn=%d jobs=%d",
                lb::strategy_name(c.strategy), c.peers, c.dmax, c.workload_id,
                static_cast<unsigned long long>(c.seed), c.fault_id,
                static_cast<unsigned long long>(c.sched_seed), c.churn_id,
                c.jobs_id);
  return buf;
}

bool parse_case(std::string_view text, FuzzCase* out) {
  FuzzCase c;
  std::size_t pos = 0;
  while (pos < text.size()) {
    while (pos < text.size() &&
           std::isspace(static_cast<unsigned char>(text[pos]))) {
      ++pos;
    }
    if (pos >= text.size()) break;
    std::size_t end = pos;
    while (end < text.size() &&
           !std::isspace(static_cast<unsigned char>(text[end]))) {
      ++end;
    }
    const std::string_view token = text.substr(pos, end - pos);
    pos = end;
    const std::size_t eq = token.find('=');
    if (eq == std::string_view::npos) return false;
    const std::string_view key = token.substr(0, eq);
    const std::string_view value = token.substr(eq + 1);
    if (value.empty()) return false;
    if (key == "strategy") {
      if (!lb::strategy_from_name(value, &c.strategy)) return false;
      continue;
    }
    std::uint64_t v = 0;
    const auto [p, ec] =
        std::from_chars(value.data(), value.data() + value.size(), v);
    if (ec != std::errc{} || p != value.data() + value.size()) return false;
    if (key == "seed") {
      c.seed = v;
    } else if (key == "sched") {
      c.sched_seed = v;
    } else if (v > 1024) {
      return false;  // every remaining key is a small int
    } else if (key == "peers") {
      c.peers = static_cast<int>(v);
    } else if (key == "dmax") {
      c.dmax = static_cast<int>(v);
    } else if (key == "workload") {
      c.workload_id = static_cast<int>(v);
    } else if (key == "fault") {
      c.fault_id = static_cast<int>(v);
    } else if (key == "churn") {
      c.churn_id = static_cast<int>(v);
    } else if (key == "jobs") {
      c.jobs_id = static_cast<int>(v);
    } else {
      return false;
    }
  }
  if (c.peers < 1 || c.peers > 1024) return false;
  if (c.workload_id < 0 || c.workload_id >= kNumWorkloads) return false;
  if (c.fault_id < 0 || c.fault_id >= kNumFaultPlans) return false;
  if (c.churn_id < 0 || c.churn_id >= kNumChurnPlans) return false;
  if (c.jobs_id < 0 || c.jobs_id >= kNumJobPlans) return false;
  // The repro space is the legal space: a tuple parses only if the runs
  // accept the config it denotes.
  const std::string why = c.jobs_id == 0
                              ? lb::unsupported_reason(make_case_config(c))
                              : svc::unsupported_reason(make_case_service(c));
  if (!why.empty()) return false;
  *out = c;
  return true;
}

std::unique_ptr<lb::Workload> make_case_workload(const FuzzCase& c) {
  OLB_CHECK(c.workload_id >= 0 && c.workload_id < kNumWorkloads);
  if (needs_interval(c.strategy)) {
    const BbSpec& spec = kBbSpecs[c.workload_id];
    return std::make_unique<bb::BBWorkload>(
        bb::FlowshopInstance::ta20x20_scaled(spec.instance, spec.jobs,
                                             spec.machines),
        bb::BoundKind::kOneMachine, bb::CostModel{});
  }
  const UtsSpec& spec = kUtsSpecs[c.workload_id];
  uts::Params params;
  params.shape = uts::TreeShape::kBinomial;
  params.hash = uts::HashMode::kFast;
  params.b0 = spec.b0;
  params.q = spec.q;
  params.m = 2;
  params.root_seed = spec.root_seed;
  return std::make_unique<uts::UtsWorkload>(params, uts::CostModel{});
}

lb::SequentialMetrics case_reference(const FuzzCase& c) {
  const auto workload = make_case_workload(c);
  return lb::run_sequential(*workload);
}

sim::FaultPlan make_case_faults(const FuzzCase& c) {
  sim::FaultPlan plan;
  if (c.fault_id == 0) return plan;
  plan.salt = static_cast<std::uint64_t>(c.fault_id);
  // Victim/time selection keyed by (seed, fault_id) only: the plan is a
  // pure function of the case, so a printed repro rebuilds it exactly.
  Xoshiro256 rng(mix64(c.seed ^ 0x66757a7aull) ^
                 mix64(static_cast<std::uint64_t>(c.fault_id)));
  const sim::Time crash_from = sim::milliseconds(1);
  const sim::Time crash_to = sim::milliseconds(20);
  switch (c.fault_id) {
    case 1:
      plan.link.drop_prob = 0.02;
      break;
    case 2:
      plan.link.dup_prob = 0.02;
      break;
    case 3:
      plan.link.spike_prob = 0.05;
      break;
    case 4:
      for (int v : draw_victims(c, 1, rng)) {
        plan.add_crash(v, random_time(rng, crash_from, crash_to));
      }
      break;
    case 5:
      for (int v : draw_victims(c, 2, rng)) {
        plan.add_crash(v, random_time(rng, crash_from, crash_to));
      }
      break;
    case 6:
      plan.add_stall(
          static_cast<int>(rng.below(static_cast<std::uint64_t>(c.peers))),
          random_time(rng, sim::milliseconds(1), sim::milliseconds(10)),
          sim::milliseconds(5));
      break;
    default:  // 7: everything at once, at lower rates
      plan.link.drop_prob = 0.01;
      plan.link.spike_prob = 0.02;
      for (int v : draw_victims(c, 1, rng)) {
        plan.add_crash(v, random_time(rng, crash_from, crash_to));
      }
      plan.add_stall(
          static_cast<int>(rng.below(static_cast<std::uint64_t>(c.peers))),
          random_time(rng, sim::milliseconds(1), sim::milliseconds(10)),
          sim::milliseconds(5));
      break;
  }
  return plan;
}

lb::ChurnPlan make_case_churn(const FuzzCase& c) {
  if (c.churn_id == 0) return {};
  OLB_CHECK(c.churn_id > 0 && c.churn_id < kNumChurnPlans);
  // Wanted (joins, leaves) per plan id, clamped to what the cluster admits
  // (joins < peers, leaves < initial members) so the plan stays legal at any
  // peer count the shrinker reaches; a cluster too small to churn at all
  // degenerates to a disabled plan.
  struct Want {
    int joins, leaves;
  };
  constexpr Want kWant[kNumChurnPlans] = {{0, 0}, {1, 0}, {0, 1},
                                          {1, 1}, {3, 1}, {4, 3}};
  const Want want = kWant[c.churn_id];
  const int joins = std::min(want.joins, c.peers - 1);
  const int initial = c.peers - joins;
  const int leaves = std::min(want.leaves, initial - 1);
  if (joins == 0 && leaves == 0) return {};
  // Keyed by (seed, churn_id) only — a printed repro rebuilds it exactly.
  return lb::make_random_churn(
      joins, leaves, c.peers, sim::milliseconds(1), sim::milliseconds(20),
      mix64(c.seed ^ 0x63687572ull) ^
          mix64(static_cast<std::uint64_t>(c.churn_id)));
}

lb::RunConfig make_case_config(const FuzzCase& c) {
  lb::RunConfig config = case_cluster(c);
  // Tight watchdogs: a correct fuzz-sized run quiesces in simulated
  // milliseconds; a stuck one must fail fast instead of eating the sweep's
  // wall-clock budget.
  config.limits.time_limit = sim::seconds(5.0);
  config.limits.event_limit = 30'000'000;
  config.faults = make_case_faults(c);
  config.churn = make_case_churn(c);
  if (c.fault_id == 0 && c.sched_seed == 0) {
    // The baseline slice of the population runs on reorder-free links, so
    // the strict per-link FIFO and BTD counter-monotonicity oracles (which
    // need that guarantee) stay exercised by every sweep.
    config.net.latency_jitter = 0;
  }
  if (c.sched_seed != 0) {
    config.perturb.seed = c.sched_seed;
    config.perturb.shuffle_ties = true;
    config.perturb.extra_jitter = sim::microseconds(20);
  }
  return config;
}

svc::ServiceConfig make_case_service(const FuzzCase& c) {
  OLB_CHECK(c.jobs_id > 0 && c.jobs_id < kNumJobPlans);
  svc::ServiceConfig sc;
  sc.run = make_case_config(c);

  // All plans reuse the case's UTS shape, so workload_id still matters in
  // job cases; horizons are short (~40 ms, a handful of jobs) to keep one
  // case well under a second including its per-job sequential references.
  const UtsSpec& spec = kUtsSpecs[c.workload_id];
  auto uts_class = [&](svc::ArrivalKind kind, double rate) {
    svc::JobClass cls;
    cls.kind = svc::JobClass::Kind::kUts;
    cls.arrivals.kind = kind;
    cls.arrivals.rate_per_sec = rate;
    cls.arrivals.horizon = sim::milliseconds(40);
    cls.arrivals.on_period = sim::milliseconds(8);
    cls.arrivals.off_period = sim::milliseconds(8);
    cls.uts.shape = uts::TreeShape::kBinomial;
    cls.uts.hash = uts::HashMode::kFast;
    cls.uts.b0 = spec.b0;
    cls.uts.q = spec.q;
    cls.uts.m = 2;
    cls.uts.root_seed = spec.root_seed;
    return cls;
  };
  switch (c.jobs_id) {
    case 1:  // one class, steady stream, modest queue
      sc.classes.push_back(uts_class(svc::ArrivalKind::kPoisson, 120.0));
      sc.admission.max_in_service = 2;
      sc.admission.queue_bound = 2;
      break;
    case 2:  // steady high class over a bursty low class, shed-prone queue
      sc.classes.push_back(uts_class(svc::ArrivalKind::kPoisson, 80.0));
      sc.classes.push_back(uts_class(svc::ArrivalKind::kBursty, 200.0));
      sc.admission.max_in_service = 2;
      sc.admission.queue_bound = 1;
      break;
    default: {  // 3: UTS + flowshop B&B under a diurnal ramp
      sc.classes.push_back(uts_class(svc::ArrivalKind::kPoisson, 80.0));
      svc::JobClass bnb;
      bnb.kind = svc::JobClass::Kind::kFlowshop;
      bnb.arrivals.kind = svc::ArrivalKind::kDiurnal;
      bnb.arrivals.rate_per_sec = 120.0;
      bnb.arrivals.horizon = sim::milliseconds(40);
      bnb.fs_jobs = 6;
      bnb.fs_machines = 3;
      bnb.fs_seed = 1 + c.workload_id;
      sc.classes.push_back(bnb);
      sc.admission.max_in_service = 3;
      sc.admission.queue_bound = 4;
      break;
    }
  }
  return sc;
}

ConformanceReport run_job_case(const FuzzCase& c, lb::Backend backend,
                               trace::TraceSink* tracer) {
  svc::ServiceConfig sc = make_case_service(c);
  sc.run.backend = backend;
  OracleOptions options = oracle_options_for(sc.run);
  options.jobs = true;
  OracleSet oracles(options);
  trace::TeeSink tee(tracer, &oracles);
  sc.run.tracer = &tee;

  ConformanceReport report;
  const svc::ServiceMetrics m = svc::run_service(sc);
  oracles.finish();
  report.violations = oracles.violations();
  report.metrics.ok = m.ok;
  auto add = [&](std::string detail) {
    report.violations.push_back(
        Violation{"job_sweep", std::move(detail), -1, -1});
  };
  if (!m.ok) {
    add("service run did not complete every admitted job");
    return report;  // the checks below assume a completed run
  }
  if (m.peak_pending > sc.admission.queue_bound) {
    add("pending queue exceeded its bound: peak " +
        std::to_string(m.peak_pending) + " vs bound " +
        std::to_string(sc.admission.queue_bound));
  }
  if (m.bad_rejects != 0) {
    add(std::to_string(m.bad_rejects) + " jobs shed while the queue had room");
  }
  for (const svc::JobRecord& rec : m.jobs) {
    if (rec.rejected) {
      if (rec.units != 0) {
        add("rejected job " + std::to_string(rec.job) + " still processed " +
            std::to_string(rec.units) + " units");
      }
      continue;
    }
    if (rec.expected_bound == lb::kNoBound &&
        rec.units != rec.expected_units) {
      add("job " + std::to_string(rec.job) + " counted " +
          std::to_string(rec.units) + " units, sequential reference " +
          std::to_string(rec.expected_units));
    }
    if (rec.bound != rec.expected_bound) {
      add("job " + std::to_string(rec.job) + " found bound " +
          std::to_string(rec.bound) + ", sequential reference " +
          std::to_string(rec.expected_bound));
    }
  }
  return report;
}

ConformanceReport run_case(const FuzzCase& c, const lb::PlantedBug& plant,
                           trace::TraceSink* tracer) {
  if (c.jobs_id != 0) {
    // Planted bugs mutate the single-job protocol paths (service mode
    // refuses them), so job cases run the service sweep unplanted.
    return run_job_case(c, lb::Backend::kSim, tracer);
  }
  const auto workload = make_case_workload(c);
  lb::RunConfig config = make_case_config(c);
  config.plant = plant;
  config.tracer = tracer;
  return run_conformance(*workload, config, case_reference(c));
}

ShrinkResult shrink_case(const FuzzCase& failing, const lb::PlantedBug& plant) {
  ShrinkResult result;
  result.minimal = failing;
  auto still_fails = [&](const FuzzCase& c) {
    ++result.attempts;
    return !run_case(c, plant).passed();
  };
  bool progress = true;
  while (progress) {
    progress = false;
    const FuzzCase base = result.minimal;
    std::vector<FuzzCase> candidates;
    auto push = [&](auto mutate) {
      FuzzCase c = base;
      mutate(c);
      candidates.push_back(c);
    };
    if (base.fault_id != 0) push([](FuzzCase& c) { c.fault_id = 0; });
    if (base.churn_id != 0) push([](FuzzCase& c) { c.churn_id = 0; });
    if (base.jobs_id != 0) push([](FuzzCase& c) { c.jobs_id = 0; });
    if (base.sched_seed != 0) push([](FuzzCase& c) { c.sched_seed = 0; });
    if (base.peers > 2) {
      push([](FuzzCase& c) { c.peers = std::max(2, c.peers / 2); });
      push([](FuzzCase& c) { c.peers -= 1; });
    }
    const int dmax_floor = needs_interval(base.strategy) ? 2 : 1;
    if (base.dmax > dmax_floor) {
      push([&](FuzzCase& c) { c.dmax = std::max(dmax_floor, c.dmax / 2); });
    }
    if (base.workload_id != 0) push([](FuzzCase& c) { c.workload_id = 0; });
    if (base.seed != 1) push([](FuzzCase& c) { c.seed = 1; });
    for (const FuzzCase& candidate : candidates) {
      if (still_fails(candidate)) {
        result.minimal = candidate;
        progress = true;
        break;  // restart the candidate list from the smaller case
      }
    }
  }
  return result;
}

FuzzCase random_case(std::uint64_t base_seed, std::uint64_t index,
                     const std::vector<lb::Strategy>& allowed) {
  OLB_CHECK(!allowed.empty());
  Xoshiro256 rng(mix64(base_seed) ^ mix64(index + 0x636173ull));
  FuzzCase c;
  c.strategy = allowed[rng.below(allowed.size())];
  c.peers = static_cast<int>(2 + rng.below(19));  // [2, 20]
  constexpr int kDmaxChoices[] = {1, 2, 3, 4, 10};
  c.dmax = kDmaxChoices[rng.below(5)];
  if (needs_interval(c.strategy)) c.dmax = std::max(c.dmax, 2);
  c.workload_id = static_cast<int>(rng.below(kNumWorkloads));
  c.seed = 1 + rng.below(1'000'000);
  c.fault_id = static_cast<int>(rng.below(kNumFaultPlans));
  // A quarter of cases run the unperturbed schedule — the byte-identity
  // baseline must stay in the swept population, not just in unit tests.
  c.sched_seed = rng.below(4) == 0 ? 0 : 1 + rng.below(1'000'000);
  // Half the fault-free overlay cases churn: membership is the newest
  // protocol surface, and lb::unsupported_reason makes it mutually
  // exclusive with fault plans, so only that slice of the population can
  // carry it.
  if (c.fault_id == 0 && lb::strategy_is_overlay(c.strategy)) {
    c.churn_id = rng.below(2) == 0
                     ? 0
                     : static_cast<int>(1 + rng.below(kNumChurnPlans - 1));
  }
  // A slice of the fault-free, unperturbed, churn-free overlay cases runs
  // multi-job service mode, so the job layer rides every sweep without
  // displacing much of the classic population.
  if (c.fault_id == 0 && c.churn_id == 0 && c.sched_seed == 0 &&
      lb::strategy_is_overlay(c.strategy)) {
    c.jobs_id = rng.below(2) == 0
                    ? 0
                    : static_cast<int>(1 + rng.below(kNumJobPlans - 1));
  }
  return c;
}

}  // namespace olb::check
