// Service-layer tests: multi-job ingest over one shared overlay fleet.
//
// The load-bearing properties:
//
//  * seeded determinism — an (arrival process, seed) pair materialises the
//    identical job stream on every run, and make_schedule merges classes
//    into one time-sorted, densely-numbered schedule reproducibly;
//  * exactness under multiplexing — with three priority classes in flight
//    concurrently, every admitted UTS job still counts *exactly* its own
//    sequential tree and every flowshop job lands on *its* optimum, on the
//    simulator and on the threads backend, with the full oracle set
//    (job-conservation included) attached;
//  * admission control — jobs are shed only when the pending queue is at
//    its bound (checked per kJobReject event, not just at the peak), and
//    the queue never exceeds the bound;
//  * priority — the gate's pending queue pops strictly in (class, job id)
//    order, so a flood of low-priority work never starves an admitted
//    high-priority job.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <vector>

#include "check/conformance.hpp"
#include "svc/service.hpp"
#include "test_util.hpp"
#include "trace/trace.hpp"

namespace olb {
namespace {

using test_util::uts_params;

/// Small canonical fleet: 8 peers, BTD, paper network. Classes are added
/// by each test.
svc::ServiceConfig service_base(lb::Strategy s = lb::Strategy::kOverlayBTD,
                                std::uint64_t seed = 7) {
  svc::ServiceConfig sc;
  sc.run = test_util::base_config(s, /*n=*/8, /*dmax=*/3, seed,
                                  /*event_limit=*/60'000'000);
  return sc;
}

svc::JobClass uts_class(svc::ArrivalKind kind, double rate,
                        sim::Time horizon = sim::milliseconds(30)) {
  svc::JobClass cls;
  cls.kind = svc::JobClass::Kind::kUts;
  cls.arrivals.kind = kind;
  cls.arrivals.rate_per_sec = rate;
  cls.arrivals.horizon = horizon;
  cls.arrivals.on_period = sim::milliseconds(5);
  cls.arrivals.off_period = sim::milliseconds(5);
  cls.uts = uts_params(/*root_seed=*/19);
  return cls;
}

svc::JobClass flowshop_class(double rate,
                             sim::Time horizon = sim::milliseconds(30)) {
  svc::JobClass cls;
  cls.kind = svc::JobClass::Kind::kFlowshop;
  cls.arrivals.kind = svc::ArrivalKind::kDiurnal;
  cls.arrivals.rate_per_sec = rate;
  cls.arrivals.horizon = horizon;
  cls.fs_jobs = 6;
  cls.fs_machines = 3;
  cls.fs_seed = 2;
  return cls;
}

/// Runs the service with every oracle armed and returns the metrics;
/// fails the test on any oracle violation or an incomplete run.
svc::ServiceMetrics run_with_oracles(svc::ServiceConfig sc,
                                     trace::TraceSink* capture = nullptr) {
  check::OracleOptions options = check::oracle_options_for(sc.run);
  options.jobs = true;
  check::OracleSet oracles(options);
  trace::TeeSink tee(capture, &oracles);
  sc.run.tracer = &tee;
  const svc::ServiceMetrics m = svc::run_service(sc);
  oracles.finish();
  for (const check::Violation& v : oracles.violations()) {
    ADD_FAILURE() << check::to_string(v);
  }
  EXPECT_TRUE(m.ok) << "service run did not complete every admitted job";
  EXPECT_EQ(m.bad_rejects, 0u);
  return m;
}

/// Every admitted job must match its own sequential reference exactly.
void expect_exact_jobs(const svc::ServiceMetrics& m) {
  for (const svc::JobRecord& rec : m.jobs) {
    if (rec.rejected) {
      EXPECT_EQ(rec.units, 0u) << "rejected job " << rec.job << " ran anyway";
      continue;
    }
    if (rec.kind == svc::JobClass::Kind::kUts) {
      EXPECT_EQ(rec.units, rec.expected_units) << "job " << rec.job;
    }
    EXPECT_EQ(rec.bound, rec.expected_bound) << "job " << rec.job;
  }
}

// --------------------------------------------------------------- arrivals ---

TEST(Arrivals, DeterministicInSeed) {
  svc::ArrivalProcess p;
  p.kind = svc::ArrivalKind::kBursty;
  p.rate_per_sec = 400;
  p.horizon = sim::milliseconds(50);
  const auto a = svc::arrival_times(p, 42);
  const auto b = svc::arrival_times(p, 42);
  EXPECT_EQ(a, b);
  const auto c = svc::arrival_times(p, 43);
  EXPECT_NE(a, c) << "different seeds should draw different streams";
}

TEST(Arrivals, SortedAndWithinHorizon) {
  for (auto kind : {svc::ArrivalKind::kPoisson, svc::ArrivalKind::kBursty,
                    svc::ArrivalKind::kDiurnal}) {
    svc::ArrivalProcess p;
    p.kind = kind;
    p.rate_per_sec = 600;
    p.horizon = sim::milliseconds(40);
    const auto times = svc::arrival_times(p, 9);
    ASSERT_FALSE(times.empty()) << arrival_kind_name(kind);
    for (std::size_t i = 0; i < times.size(); ++i) {
      EXPECT_GE(times[i], 0);
      EXPECT_LT(times[i], p.horizon);
      if (i > 0) {
        EXPECT_LE(times[i - 1], times[i]);
      }
    }
  }
}

TEST(Arrivals, BurstyArrivesOnlyInOnWindows) {
  svc::ArrivalProcess p;
  p.kind = svc::ArrivalKind::kBursty;
  p.rate_per_sec = 2000;
  p.horizon = sim::milliseconds(50);
  p.on_period = sim::milliseconds(4);
  p.off_period = sim::milliseconds(6);
  const sim::Time cycle = p.on_period + p.off_period;
  for (sim::Time t : svc::arrival_times(p, 11)) {
    EXPECT_LT(t % cycle, p.on_period) << "arrival at " << t << " is in an "
                                      << "off window";
  }
}

// --------------------------------------------------------------- schedule ---

TEST(Schedule, DeterministicSortedAndDense) {
  svc::ServiceConfig sc = service_base();
  sc.classes.push_back(uts_class(svc::ArrivalKind::kPoisson, 300));
  sc.classes.push_back(uts_class(svc::ArrivalKind::kBursty, 500));
  sc.classes.push_back(flowshop_class(300));
  const auto a = svc::make_schedule(sc);
  const auto b = svc::make_schedule(sc);
  ASSERT_FALSE(a.empty());
  ASSERT_EQ(a.size(), b.size());
  std::set<int> classes_seen;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].time, b[i].time);
    EXPECT_EQ(a[i].job, b[i].job);
    EXPECT_EQ(a[i].job_class, b[i].job_class);
    // Dense ids in arrival order; the merged stream stays time-sorted.
    EXPECT_EQ(a[i].job, i);
    if (i > 0) {
      EXPECT_LE(a[i - 1].time, a[i].time);
    }
    classes_seen.insert(a[i].job_class);
  }
  EXPECT_EQ(classes_seen.size(), 3u) << "every class should contribute jobs";
}

TEST(Schedule, SeedChangesTheStream) {
  svc::ServiceConfig sc = service_base();
  sc.classes.push_back(uts_class(svc::ArrivalKind::kPoisson, 400));
  const auto a = svc::make_schedule(sc);
  sc.run.seed = 8;
  const auto b = svc::make_schedule(sc);
  bool differs = a.size() != b.size();
  for (std::size_t i = 0; !differs && i < a.size(); ++i) {
    differs = a[i].time != b[i].time;
  }
  EXPECT_TRUE(differs);
}

// -------------------------------------------------------------- exactness ---

TEST(Service, ThreeClassesExactOnSim) {
  svc::ServiceConfig sc = service_base();
  sc.classes.push_back(uts_class(svc::ArrivalKind::kPoisson, 150));
  sc.classes.push_back(uts_class(svc::ArrivalKind::kBursty, 400));
  sc.classes.push_back(flowshop_class(150));
  sc.admission.max_in_service = 3;
  sc.admission.queue_bound = 4;
  const auto m = run_with_oracles(sc);
  EXPECT_GE(m.submitted, 3u);
  EXPECT_EQ(m.completed, m.admitted);
  expect_exact_jobs(m);
  // The mix must actually be concurrent: more admitted jobs than service
  // slots means the bags multiplexed.
  EXPECT_GT(m.admitted, static_cast<std::uint64_t>(sc.admission.max_in_service));
}

TEST(Service, ThreeClassesExactOnThreads) {
  svc::ServiceConfig sc = service_base();
  sc.run.backend = lb::Backend::kThreads;
  sc.classes.push_back(uts_class(svc::ArrivalKind::kPoisson, 150));
  sc.classes.push_back(uts_class(svc::ArrivalKind::kBursty, 400));
  sc.classes.push_back(flowshop_class(150));
  sc.admission.max_in_service = 3;
  sc.admission.queue_bound = 4;
  const auto m = run_with_oracles(sc);
  EXPECT_GE(m.submitted, 3u);
  EXPECT_EQ(m.completed, m.admitted);
  expect_exact_jobs(m);
}

TEST(Service, ScheduleIdenticalAcrossBackends) {
  // Real time only moves completion; the submitted stream itself is the
  // materialised schedule, identical on both backends.
  svc::ServiceConfig sc = service_base();
  sc.classes.push_back(uts_class(svc::ArrivalKind::kPoisson, 200));
  sc.classes.push_back(flowshop_class(200));
  const auto sim_m = run_with_oracles(sc);
  sc.run.backend = lb::Backend::kThreads;
  const auto thr_m = run_with_oracles(sc);
  ASSERT_EQ(sim_m.jobs.size(), thr_m.jobs.size());
  for (std::size_t i = 0; i < sim_m.jobs.size(); ++i) {
    EXPECT_EQ(sim_m.jobs[i].job_class, thr_m.jobs[i].job_class);
    EXPECT_EQ(sim_m.jobs[i].kind, thr_m.jobs[i].kind);
    EXPECT_EQ(sim_m.jobs[i].expected_units, thr_m.jobs[i].expected_units);
    EXPECT_EQ(sim_m.jobs[i].expected_bound, thr_m.jobs[i].expected_bound);
  }
}

TEST(Service, RejectsMultipleSimShards) {
  // Service runs take the simulator runner on one shard: the job oracles
  // read one global trace stream, so a shard count >= 2 is refused.
  svc::ServiceConfig sc = service_base();
  sc.classes.push_back(uts_class(svc::ArrivalKind::kPoisson, 150));
  sc.run.sim_shards = 2;
  EXPECT_EQ(svc::unsupported_reason(sc), "service mode runs on one simulator shard");
  EXPECT_DEATH(svc::run_service(sc), "one simulator shard");
}

// -------------------------------------------------------------- admission ---

TEST(Service, ShedsOnlyWhenTheQueueIsFull) {
  svc::ServiceConfig sc = service_base();
  sc.classes.push_back(uts_class(svc::ArrivalKind::kPoisson, 1500));
  sc.admission.max_in_service = 1;
  sc.admission.queue_bound = 2;
  trace::VectorTracer tracer;
  const auto m = run_with_oracles(sc, &tracer);
  expect_exact_jobs(m);
  ASSERT_GT(m.rejected, 0u) << "overload config failed to overload";
  EXPECT_LE(m.peak_pending, sc.admission.queue_bound);
  EXPECT_EQ(m.submitted, m.admitted + m.rejected);
  // The per-event version of the property: every shed happened against a
  // full queue (kJobReject records the pending size in field b).
  std::uint64_t rejects_seen = 0;
  for (const trace::TraceEvent& e : tracer.events()) {
    if (e.kind != trace::EventKind::kJobReject) continue;
    ++rejects_seen;
    EXPECT_EQ(e.b, static_cast<std::int64_t>(sc.admission.queue_bound))
        << "job " << e.type << " shed with queue room";
  }
  EXPECT_EQ(rejects_seen, m.rejected);
}

// --------------------------------------------------------------- priority ---

TEST(Service, PendingQueuePopsInClassOrder) {
  // A long bursty flood of low-priority work plus a steady trickle of
  // high-priority jobs: whenever the gate frees a slot, the injected job
  // must be minimal in (class, id) among everything still pending.
  svc::ServiceConfig sc = service_base();
  sc.classes.push_back(uts_class(svc::ArrivalKind::kPoisson, 150,
                                 sim::milliseconds(40)));
  sc.classes.push_back(uts_class(svc::ArrivalKind::kBursty, 1200,
                                 sim::milliseconds(40)));
  sc.admission.max_in_service = 1;
  sc.admission.queue_bound = 6;
  trace::VectorTracer tracer;
  const auto m = run_with_oracles(sc, &tracer);
  expect_exact_jobs(m);

  const int gate = sc.run.num_peers;
  std::map<std::uint64_t, int> pending;  // admitted, not yet injected
  std::map<std::uint64_t, int> class_of;
  bool leapfrogged = false;
  for (const trace::TraceEvent& e : tracer.events()) {
    const auto job = static_cast<std::uint64_t>(e.type);
    switch (e.kind) {
      case trace::EventKind::kJobAdmit:
        class_of[job] = static_cast<int>(e.a);
        pending[job] = static_cast<int>(e.a);
        break;
      case trace::EventKind::kJobXfer: {
        if (e.actor != gate) break;  // fleet-internal transfer, not an inject
        ASSERT_TRUE(pending.count(job)) << "injected job " << job
                                        << " was never admitted";
        const int cls = pending[job];
        for (const auto& [other, other_cls] : pending) {
          if (other == job) continue;
          // Strict (class, id) order: nothing strictly smaller may wait.
          EXPECT_FALSE(other_cls < cls ||
                       (other_cls == cls && other < job))
              << "job " << job << " (class " << cls << ") injected while job "
              << other << " (class " << other_cls << ") waited";
          leapfrogged |= cls < other_cls;
        }
        pending.erase(job);
        break;
      }
      default:
        break;
    }
  }
  EXPECT_TRUE(pending.empty()) << "admitted jobs left uninjected";
  EXPECT_TRUE(leapfrogged)
      << "the flood never queued behind a high-priority job; the test "
         "exercised nothing";
  // The starvation half: every admitted high-priority job completed.
  for (const svc::JobRecord& rec : m.jobs) {
    if (rec.rejected || rec.job_class != 0) continue;
    EXPECT_GE(rec.done, 0) << "high-priority job " << rec.job << " starved";
  }
}

// ---------------------------------------------------------------- metrics ---

TEST(Service, PerClassLatencyHistogramsMatchAdmissions) {
  svc::ServiceConfig sc = service_base();
  sc.classes.push_back(uts_class(svc::ArrivalKind::kPoisson, 150));
  sc.classes.push_back(flowshop_class(150));
  metrics::MetricsHub hub({.path = "test_svc_metrics.ndjson", .shards = 1});
  sc.run.metrics = &hub;
  const auto m = run_with_oracles(sc);
  for (std::size_t c = 0; c < sc.classes.size(); ++c) {
    std::uint64_t admitted = 0;
    for (const svc::JobRecord& rec : m.jobs) {
      admitted += rec.job_class == static_cast<int>(c) && !rec.rejected;
    }
    auto* soj = hub.registry().find_histogram("olb_svc_sojourn_ns",
                                              static_cast<int>(c));
    auto* que = hub.registry().find_histogram("olb_svc_queueing_ns",
                                              static_cast<int>(c));
    ASSERT_NE(soj, nullptr) << "class " << c;
    ASSERT_NE(que, nullptr) << "class " << c;
    // One sojourn and one queueing sample per completed job, recorded into
    // the class's own histogram and nobody else's.
    EXPECT_EQ(soj->snapshot().count, admitted) << "class " << c;
    EXPECT_EQ(que->snapshot().count, admitted) << "class " << c;
  }
}

// ------------------------------------------------------------ workload ids ---

TEST(Service, JobWorkloadsAreDeterministicAndDistinct) {
  svc::JobClass cls = uts_class(svc::ArrivalKind::kPoisson, 100);
  const auto a = svc::make_job_workload(cls, 4);
  const auto b = svc::make_job_workload(cls, 4);
  const auto c = svc::make_job_workload(cls, 5);
  const auto ra = lb::run_sequential(*a);
  const auto rb = lb::run_sequential(*b);
  const auto rc = lb::run_sequential(*c);
  EXPECT_EQ(ra.units, rb.units);
  EXPECT_NE(ra.units, rc.units) << "distinct jobs should get distinct trees";
}

}  // namespace
}  // namespace olb
