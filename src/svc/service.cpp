#include "svc/service.hpp"

#include <algorithm>
#include <string>
#include <utility>

#include "bb/flowshop.hpp"
#include "lb/job_work.hpp"
#include "runtime/runtime.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"

namespace olb::svc {

std::unique_ptr<lb::Workload> make_job_workload(const JobClass& cls,
                                                std::uint64_t job) {
  if (cls.kind == JobClass::Kind::kUts) {
    uts::Params p = cls.uts;
    p.root_seed = cls.uts.root_seed + static_cast<std::uint32_t>(job);
    return std::make_unique<uts::UtsWorkload>(p, cls.uts_costs);
  }
  auto inst = bb::FlowshopInstance::taillard(
      "svc-job-" + std::to_string(job), cls.fs_jobs, cls.fs_machines,
      cls.fs_seed + static_cast<std::int64_t>(job));
  return std::make_unique<bb::BBWorkload>(std::move(inst),
                                          bb::BoundKind::kTwoMachine,
                                          cls.bb_costs);
}

std::string unsupported_reason(const ServiceConfig& config) {
  const lb::RunConfig& rc = config.run;
  if (!lb::strategy_is_overlay(rc.strategy)) {
    return "service mode requires an overlay strategy (TD/TR/BTD)";
  }
  if (rc.backend == lb::Backend::kSockets) {
    return "service mode runs on the sim and thread backends";
  }
  if (rc.sim_shards >= 2) return "service mode runs on one simulator shard";
  if (rc.perturb.enabled()) return "service mode runs unperturbed";
  if (rc.faults.enabled()) return "service mode is fault-free";
  if (rc.churn.enabled()) return "service mode is churn-free";
  if (rc.plant.enabled()) return "planted bugs target single-job conformance runs";
  if (rc.het.fraction != 0.0) return "service mode is homogeneous";
  if (config.classes.empty()) return "need at least one job class";
  if (config.admission.max_in_service < 1) return "admission.max_in_service must be at least 1";
  if (config.wave_interval <= 0) return "wave_interval must be positive";
  return lb::unsupported_reason(rc);
}

std::vector<JobGate::Arrival> make_schedule(const ServiceConfig& config) {
  struct Entry {
    sim::Time t;
    int cls;
  };
  std::vector<Entry> entries;
  for (std::size_t c = 0; c < config.classes.size(); ++c) {
    const auto times = arrival_times(
        config.classes[c].arrivals,
        mix64(config.run.seed ^ (0x73766300ull + c)));
    for (sim::Time t : times) entries.push_back({t, static_cast<int>(c)});
  }
  std::stable_sort(entries.begin(), entries.end(),
                   [](const Entry& a, const Entry& b) {
                     return a.t != b.t ? a.t < b.t : a.cls < b.cls;
                   });
  std::vector<JobGate::Arrival> schedule;
  schedule.reserve(entries.size());
  for (std::size_t j = 0; j < entries.size(); ++j) {
    schedule.push_back({entries[j].t, j, entries[j].cls});
  }
  return schedule;
}

namespace {

/// Folds the per-job tallies every fleet peer's JobBag accumulated into the
/// job records — the exact-count/optimum harvest.
void harvest_tallies(const std::vector<lb::OverlayPeer*>& peers,
                     std::vector<JobRecord>& jobs) {
  for (const lb::OverlayPeer* p : peers) {
    const auto* bag = dynamic_cast<const lb::JobBag*>(p->current_work());
    if (bag == nullptr) continue;
    bag->for_each_tally([&](const lb::JobBag::Tally& t) {
      OLB_CHECK(t.job < jobs.size());
      JobRecord& rec = jobs[static_cast<std::size_t>(t.job)];
      rec.units += t.units;
      rec.bound = std::min(rec.bound, t.bound);
    });
  }
}

void harvest_gate(const JobGate& gate, ServiceMetrics& out) {
  out.submitted = gate.submitted();
  out.admitted = gate.admitted();
  out.rejected = gate.rejected();
  out.completed = gate.completed();
  out.peak_pending = gate.peak_pending();
  out.bad_rejects = gate.bad_rejects();
  const auto& recs = gate.outcomes();
  for (std::size_t j = 0; j < recs.size(); ++j) {
    JobRecord& rec = out.jobs[j];
    rec.rejected = recs[j].rejected;
    rec.submitted = recs[j].submitted;
    rec.injected = recs[j].injected;
    rec.done = recs[j].done;
    rec.root_amount = recs[j].amount;
  }
}

}  // namespace

ServiceMetrics run_service(const ServiceConfig& config) {
  const std::string why = unsupported_reason(config);
  OLB_CHECK_MSG(why.empty(), why.c_str());
  lb::RunConfig rc = config.run;
  // Peer-level bound diffusion is meaningless across jobs (the bags never
  // report a bound upward; per-job bounds travel inside split pieces), so
  // keep the machinery off rather than idling.
  rc.diffuse_bounds = false;
  const int n = rc.num_peers;

  const auto schedule = make_schedule(config);

  ServiceMetrics out;
  std::vector<std::unique_ptr<lb::Workload>> workloads;
  std::vector<lb::Workload*> raw;
  for (const JobGate::Arrival& a : schedule) {
    const JobClass& cls = config.classes[static_cast<std::size_t>(a.job_class)];
    workloads.push_back(make_job_workload(cls, a.job));
    raw.push_back(workloads.back().get());
    JobRecord rec;
    rec.job = a.job;
    rec.job_class = a.job_class;
    rec.kind = cls.kind;
    out.jobs.push_back(rec);
  }
  if (config.compute_expected) {
    // Fresh workload instances: the service run's B&B incumbent recorders
    // must not see the reference run's solutions.
    for (const JobGate::Arrival& a : schedule) {
      auto ref = make_job_workload(
          config.classes[static_cast<std::size_t>(a.job_class)], a.job);
      const auto seq = lb::run_sequential(*ref);
      out.jobs[static_cast<std::size_t>(a.job)].expected_units = seq.units;
      out.jobs[static_cast<std::size_t>(a.job)].expected_bound = seq.bound;
    }
  }

  auto tree = std::make_shared<const overlay::TreeOverlay>(
      lb::make_overlay_tree(rc));
  lb::OverlayConfig svc_config = lb::make_overlay_config(rc);
  svc_config.peer.diffuse_bounds = false;
  svc_config.service.enabled = true;
  svc_config.service.gate = n;  // gate id == fleet size, outside the tree
  svc_config.service.wave_interval = config.wave_interval;
  const auto oc = std::make_shared<const lb::OverlayConfig>(std::move(svc_config));

  // The fleet: n pool peers, then the gate (id n, outside the tree). The
  // runner for rc.backend hosts them all and folds the n pool peers.
  std::vector<std::unique_ptr<lb::PeerBase>> fleet;
  std::vector<lb::OverlayPeer*> peers;
  for (int i = 0; i < n; ++i) {
    auto peer = std::make_unique<lb::OverlayPeer>(tree, oc, nullptr);
    peers.push_back(peer.get());
    fleet.push_back(std::move(peer));
  }
  auto gate_owner = std::make_unique<JobGate>(
      schedule, raw, config.admission, 0, static_cast<int>(config.classes.size()));
  const JobGate& gate = *gate_owner;
  fleet.push_back(std::move(gate_owner));

  bool gate_done = false;
  const auto harvest = [&] {
    harvest_gate(gate, out);
    harvest_tallies(peers, out.jobs);
    gate_done = gate.saw_terminate();
  };
  bool ok = false;
  if (rc.backend == lb::Backend::kSim) {
    const lb::RunMetrics m = lb::run_distributed(std::move(fleet), rc, harvest);
    ok = m.ok;
    out.exec_seconds = m.exec_seconds;
  } else {
    const runtime::ThreadRunMetrics m =
        runtime::run_threads(std::move(fleet), rc, harvest);
    ok = m.ok;
    out.exec_seconds = m.done_seconds;
  }
  out.ok = ok && gate_done && out.completed == out.admitted &&
           out.submitted == out.jobs.size();
  return out;
}

}  // namespace olb::svc
