// bdio-bench driver: runs one benchmark workload in this process and prints
// its raw measurements as one JSON line on stdout. run.py builds this
// binary, starts it once per measured pass, checks the output digests and
// turns the measurements into the benchmark's metrics.
//
// Usage:
//   bdio_bench_driver --workload=<paper_grid|pagerank_w40|sssp_dag_faults>
//       [--seconds=S]      measured-phase budget (default 10)
//       [--seed=N]         seeds the component probes (traced pass)
//       [--model-seed=N]   simulation seed (default 42, the paper figures')
//       [--setup-reps=N]   set-ups timed before the batches (default 0)
//       [--max-batches=N]  at most N batches (default: as the budget allows)
//       [--traced --spans-out=<file>]
//
// A batch is the workload's fixed set of simulations, each on a fresh
// sim::Simulator. Untraced, the driver times --setup-reps set-ups of the
// batch, then runs as many batches as fit in --seconds (at least one unless
// --max-batches=0). Traced, it records host-time spans around the calls into each module over
// one set-up and one batch, runs the component probes, and writes the spans
// to --spans-out.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "common/random.h"
#include "common/result.h"
#include "common/units.h"
#include "core/experiment.h"
#include "core/report.h"
#include "dag/job_dag.h"
#include "faults/fault_plan.h"
#include "faults/injector.h"
#include "hdfs/hdfs.h"
#include "iostat/iostat.h"
#include "mapreduce/engine.h"
#include "obs/metrics.h"
#include "probes.h"
#include "sim/latch.h"
#include "sim/simulator.h"
#include "spans.h"
#include "workloads/graph_profile.h"
#include "workloads/profile.h"

namespace bdio_bench {
namespace {

using namespace bdio;

struct Options {
  std::string workload;
  double seconds = 10;
  uint64_t seed = 1;
  uint64_t model_seed = 42;
  int setup_reps = 0;
  int max_batches = std::numeric_limits<int>::max();
  bool traced = false;
  std::string spans_out;
};

/// Fixed configuration of one workload: every simulation of its batch runs
/// at this scale and cluster size.
struct WorkloadDef {
  std::string name;
  double scale;
  uint32_t workers;
  unsigned pool_threads;
};

const WorkloadDef kWorkloads[] = {
    {"paper_grid", 1.0 / 128, 10, 2},
    {"pagerank_w40", 1.0 / 512, 40, 1},
    {"sssp_dag_faults", 1.0 / 32, 10, 1},
};

/// Raw simulated statistics of one simulation: event count, simulated
/// seconds, and every metrics-registry instrument summed over its labels
/// ("name" for counters, "name.count"/"name.sum" for histograms).
using Raw = std::map<std::string, double>;

struct SimOutcome {
  std::string label;
  bool ok = false;
  std::string status = "OK";
  std::string digest;
  Raw raw;
};

double CpuNow() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

double PeakRssMib() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux.
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// --- Output digest -------------------------------------------------------

uint64_t Fnv1a(const std::string& s) {
  uint64_t h = 1469598103934665603ULL;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

/// Exact text of a double, so the digest sees every bit.
std::string Exact(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

void AppendSeries(const char* name, const TimeSeries& series,
                  std::string* out) {
  *out += name;
  *out += '[';
  for (double v : series.samples()) {
    *out += Exact(v);
    *out += ',';
  }
  *out += "];";
}

void AppendGroup(const char* name, const core::GroupObservation& g,
                 std::string* out) {
  *out += name;
  *out += '{';
  AppendSeries("read_mbps", g.read_mbps, out);
  AppendSeries("write_mbps", g.write_mbps, out);
  AppendSeries("util", g.util, out);
  AppendSeries("await_ms", g.await_ms, out);
  AppendSeries("svctm_ms", g.svctm_ms, out);
  AppendSeries("wait_ms", g.wait_ms, out);
  AppendSeries("avgrq_sz", g.avgrq_sz, out);
  for (double v : {g.util_above_90, g.util_above_95, g.util_above_99,
                   g.peak_read_mbps}) {
    *out += Exact(v);
    *out += ';';
  }
  *out += '}';
}

/// Sums every registry instrument over its label sets.
Raw RawOf(const obs::MetricsRegistry& metrics) {
  Raw raw;
  std::istringstream csv(metrics.ToCsv());
  std::string row;
  while (std::getline(csv, row)) {
    // Rows are name,labels,field,value; labels may hold no commas (they
    // are ';'-joined), so the first and last two fields are unambiguous.
    const size_t name_end = row.find(',');
    const size_t value_at = row.rfind(',');
    const size_t field_at = row.rfind(',', value_at - 1);
    if (name_end == std::string::npos || field_at <= name_end) continue;
    const std::string name = row.substr(0, name_end);
    const std::string field =
        row.substr(field_at + 1, value_at - field_at - 1);
    const double value = std::strtod(row.c_str() + value_at + 1, nullptr);
    if (field == "value") {
      raw[name] += value;
    } else if (field == "count" || field == "sum") {
      raw[name + "." + field] += value;
    }
  }
  return raw;
}

/// Digest over everything a simulation reports: events, simulated
/// seconds, both iostat group observations and the registry dump.
SimOutcome Observe(const std::string& label, uint64_t events, double sim_s,
                   const core::GroupObservation& hdfs,
                   const core::GroupObservation& mr,
                   const obs::MetricsRegistry& metrics) {
  std::string text = "events=" + std::to_string(events) + ";sim_s=" +
                     Exact(sim_s) + ";";
  AppendGroup("hdfs", hdfs, &text);
  AppendGroup("mr", mr, &text);
  text += metrics.ToJson();
  char hex[20];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(Fnv1a(text)));
  SimOutcome out;
  out.label = label;
  out.ok = true;
  out.digest = hex;
  out.raw = RawOf(metrics);
  out.raw["events"] = static_cast<double>(events);
  out.raw["sim_s"] = sim_s;
  return out;
}

SimOutcome Failed(const std::string& label, const Status& status) {
  SimOutcome out;
  out.label = label;
  out.status = status.ToString();
  return out;
}

SimOutcome ObserveResult(const std::string& label,
                         const Result<core::ExperimentResult>& r) {
  if (!r.ok()) return Failed(label, r.status());
  const core::ExperimentResult& e = r.value();
  return Observe(label, e.events_processed, e.duration_s, e.hdfs, e.mr,
                 *e.metrics);
}

// --- Testbed construction (mirrors core::RunExperiment) ------------------

cluster::ClusterParams ScaledClusterParams(double scale, uint32_t workers,
                                           uint64_t memory_bytes) {
  cluster::ClusterParams cp;
  cp.num_workers = workers;
  cp.node.memory_bytes =
      static_cast<uint64_t>(static_cast<double>(memory_bytes) * scale);
  cp.node.daemon_bytes =
      static_cast<uint64_t>(static_cast<double>(GiB(2)) * scale);
  cp.node.per_slot_heap_bytes =
      static_cast<uint64_t>(static_cast<double>(MiB(200)) * scale);
  cp.node.min_cache_bytes = MiB(16);
  return cp;
}

std::vector<core::Factors> GridLevels() {
  std::vector<core::Factors> levels;
  std::vector<std::string> seen;
  for (const auto& context :
       {core::SlotsLevels(), core::MemoryLevels(), core::CompressionLevels()}) {
    for (const core::Factors& f : context) {
      const std::string key = f.Label(workloads::WorkloadKind::kTeraSort);
      if (std::find(seen.begin(), seen.end(), key) != seen.end()) continue;
      seen.push_back(key);
      levels.push_back(f);
    }
  }
  return levels;
}

core::ExperimentSpec MakeSpec(const WorkloadDef& def, uint64_t model_seed,
                              workloads::WorkloadKind kind,
                              const core::Factors& factors) {
  core::ExperimentSpec spec;
  spec.workload = kind;
  spec.factors = factors;
  spec.scale = def.scale;
  spec.num_workers = def.workers;
  spec.seed = model_seed;
  return spec;
}

/// Every (workload, factors) cell a batch runs through RunExperiment.
std::vector<core::ExperimentSpec> ExperimentSpecs(const WorkloadDef& def,
                                                  uint64_t model_seed) {
  std::vector<core::ExperimentSpec> specs;
  if (def.name == "paper_grid") {
    const std::vector<core::Factors> levels = GridLevels();
    for (workloads::WorkloadKind kind : workloads::AllWorkloads()) {
      for (const core::Factors& f : levels) {
        specs.push_back(MakeSpec(def, model_seed, kind, f));
      }
    }
  } else if (def.name == "pagerank_w40") {
    specs.push_back(MakeSpec(def, model_seed, workloads::WorkloadKind::kPageRank,
                             core::SlotsLevels().front()));
  }
  return specs;
}

/// The set-up RunExperiment performs before its first simulated event:
/// plan, cluster, HDFS and the dataset preload.
void SetUpExperiment(const core::ExperimentSpec& spec, SpanRecorder* spans,
                     int parent) {
  Rng rng(spec.seed);
  sim::Simulator sim;
  sim::ScopedLogClock log_clock(&sim);
  workloads::PlanOptions options;
  options.compress_intermediate = spec.factors.compress_intermediate;
  options.scale = spec.scale;
  options.kmeans_iterations = spec.kmeans_iterations;
  options.pagerank_iterations = spec.pagerank_iterations;
  options.seed = spec.seed;
  std::unique_ptr<cluster::Cluster> cluster;
  std::unique_ptr<hdfs::Hdfs> dfs;
  {
    ScopedSpan span(spans, "cluster.Cluster", parent);
    cluster = std::make_unique<cluster::Cluster>(
        &sim,
        ScaledClusterParams(spec.scale, spec.num_workers,
                            spec.factors.memory_bytes),
        spec.factors.slots.total(), rng.Fork());
  }
  workloads::WorkloadPlan plan;
  {
    ScopedSpan span(spans, "workloads.BuildPlan", parent);
    plan = workloads::BuildPlan(spec.workload, options);
  }
  ScopedSpan span(spans, "hdfs.Hdfs+Preload", parent);
  dfs = std::make_unique<hdfs::Hdfs>(cluster.get(), hdfs::HdfsParams{},
                                     rng.Fork());
  const Status s = dfs->Preload(plan.dataset_path, plan.dataset_bytes);
  if (!s.ok()) {
    std::fprintf(stderr, "set-up of %s failed: %s\n",
                 spec.factors.Label(spec.workload).c_str(),
                 s.ToString().c_str());
    std::exit(1);
  }
}

// --- sssp_dag_faults -----------------------------------------------------

constexpr char kSsspLabel[] = "SSSP_1_8_16G_off_faults";

/// The SSSP JobDag under a compute-side fault plan, built from the module
/// APIs directly (RunExperiment has no fault plans). When `setup_only`,
/// stops right before the first simulated event.
SimOutcome RunSssp(const WorkloadDef& def, uint64_t model_seed,
                   bool setup_only, SpanRecorder* spans, int parent) {
  workloads::GraphPlanOptions plan_options;
  plan_options.scale = def.scale;
  plan_options.model_nodes = 512;
  plan_options.seed = model_seed;
  workloads::GraphDagPlan plan;
  {
    ScopedSpan span(spans, "workloads.BuildGraphDag", parent);
    plan = workloads::BuildGraphDag(workloads::GraphWorkload::kSssp,
                                    plan_options);
  }
  Rng rng(model_seed);
  sim::Simulator sim;
  sim::ScopedLogClock log_clock(&sim);
  std::unique_ptr<cluster::Cluster> cluster;
  {
    ScopedSpan span(spans, "cluster.Cluster", parent);
    cluster = std::make_unique<cluster::Cluster>(
        &sim, ScaledClusterParams(def.scale, def.workers, GiB(16)),
        mapreduce::SlotConfig::Paper_1_8().total(), rng.Fork());
  }
  std::unique_ptr<hdfs::Hdfs> dfs;
  {
    ScopedSpan span(spans, "hdfs.Hdfs+Preload", parent);
    dfs = std::make_unique<hdfs::Hdfs>(cluster.get(), hdfs::HdfsParams{},
                                       rng.Fork());
    const Status s = dfs->Preload(plan.dataset_path, plan.dataset_bytes);
    if (!s.ok()) return Failed(kSsspLabel, s);
  }
  if (setup_only) return SimOutcome{};

  iostat::Monitor monitor(&sim, Seconds(1));
  for (uint32_t n = 0; n < cluster->num_workers(); ++n) {
    for (uint32_t d = 0; d < cluster->node(n)->num_hdfs_disks(); ++d) {
      monitor.AddDevice(cluster->node(n)->hdfs_disk(d), "hdfs");
    }
    for (uint32_t d = 0; d < cluster->node(n)->num_mr_disks(); ++d) {
      monitor.AddDevice(cluster->node(n)->mr_disk(d), "mr");
    }
  }
  monitor.Start();
  mapreduce::MrEngine engine(cluster.get(), dfs.get(),
                             mapreduce::SlotConfig::Paper_1_8(), rng.Fork());
  obs::MetricsRegistry metrics;
  cluster->AttachObs(nullptr, &metrics);
  dfs->AttachObs(nullptr, &metrics);
  engine.AttachObs(nullptr, &metrics);
  faults::FaultInjector injector(cluster.get(), dfs.get(), &engine);
  injector.AttachObs(nullptr, &metrics);
  faults::FaultPlan fault_plan;
  fault_plan.CrashTask(5, TimeAt(Seconds(1)));
  fault_plan.DegradeDisk(4, /*mr_disk=*/true, 0, /*factor=*/4.0,
                         TimeAt(Seconds(1)), TimeAt(Seconds(60)));
  dag::JobDag jobdag(&sim, &engine, dfs.get(), std::move(plan.dag));
  jobdag.AttachObs(&metrics);

  Status dag_status = Status::OK();
  bool done = false;
  {
    ScopedSpan span(spans, "dag.JobDag::Run+sim.Run", parent);
    jobdag.Run([&](Status s) {
      if (!s.ok()) {
        dag_status = s;
        monitor.Stop();
        done = true;
        return;
      }
      auto flushed = sim::Latch::Create(cluster->num_workers(), [&] {
        monitor.Stop();
        done = true;
      });
      for (uint32_t n = 0; n < cluster->num_workers(); ++n) {
        cluster->node(n)->cache()->SyncAll(flushed->Arm());
      }
    });
    const Status armed = injector.Arm(fault_plan);
    if (!armed.ok()) return Failed(kSsspLabel, armed);
    sim.Run();
  }
  if (!dag_status.ok()) return Failed(kSsspLabel, dag_status);
  if (!done) {
    return Failed(kSsspLabel,
                  Status::Internal("simulation drained before the dag ended"));
  }
  auto group = [&monitor](const std::string& name) {
    core::GroupObservation g;
    g.read_mbps = monitor.GroupMean(name, iostat::Metric::kReadMBps);
    g.write_mbps = monitor.GroupMean(name, iostat::Metric::kWriteMBps);
    g.util = monitor.GroupMean(name, iostat::Metric::kUtil);
    g.await_ms = monitor.GroupActiveMean(name, iostat::Metric::kAwait);
    g.svctm_ms = monitor.GroupActiveMean(name, iostat::Metric::kSvctm);
    g.wait_ms = monitor.GroupActiveMean(name, iostat::Metric::kWait);
    g.avgrq_sz = monitor.GroupActiveMean(name, iostat::Metric::kAvgRqSz);
    g.util_above_90 = monitor.GroupUtilFractionAbove(name, 90.0);
    g.util_above_95 = monitor.GroupUtilFractionAbove(name, 95.0);
    g.util_above_99 = monitor.GroupUtilFractionAbove(name, 99.0);
    g.peak_read_mbps = g.read_mbps.Peak();
    return g;
  };
  return Observe(kSsspLabel, sim.events_processed(), ToSeconds(sim.Now()),
                 group("hdfs"), group("mr"), metrics);
}

// --- Batches -------------------------------------------------------------

/// One set-up of every simulation of the batch, on the calling thread.
void SetUpBatch(const WorkloadDef& def, uint64_t model_seed,
                SpanRecorder* spans, int parent) {
  if (def.name == "sssp_dag_faults") {
    RunSssp(def, model_seed, /*setup_only=*/true, spans, parent);
    return;
  }
  for (const core::ExperimentSpec& spec : ExperimentSpecs(def, model_seed)) {
    SetUpExperiment(spec, spans, parent);
  }
}

/// Runs the workload's batch. paper_grid goes through core::GridRunner on
/// its own pool, as the figure binaries do; the others run on the calling
/// thread.
std::vector<SimOutcome> RunBatch(const WorkloadDef& def, uint64_t model_seed,
                                 SpanRecorder* spans, int parent) {
  if (def.name == "sssp_dag_faults") {
    ScopedSpan cell(spans, std::string("cell ") + kSsspLabel, parent);
    return {RunSssp(def, model_seed, /*setup_only=*/false, spans, cell.id())};
  }
  const std::vector<core::ExperimentSpec> specs =
      ExperimentSpecs(def, model_seed);
  std::mutex mu;
  std::map<std::string, SimOutcome> outcomes;
  auto run = [&](const core::ExperimentSpec& spec)
      -> Result<core::ExperimentResult> {
    const std::string label = spec.factors.Label(spec.workload);
    ScopedSpan cell(spans, "cell " + label, parent);
    Result<core::ExperimentResult> r = Status::Internal("not run");
    {
      ScopedSpan span(spans, "core.RunExperiment", cell.id());
      r = core::RunExperiment(spec);
    }
    SimOutcome outcome = ObserveResult(label, r);
    {
      std::lock_guard<std::mutex> lock(mu);
      outcomes[label] = std::move(outcome);
    }
    // GridRunner::Get aborts on a failed cell; hand it an empty result so
    // the failure is counted instead.
    if (!r.ok()) return core::ExperimentResult();
    return r;
  };
  if (def.pool_threads <= 1) {
    for (const core::ExperimentSpec& spec : specs) run(spec);
  } else {
    core::BenchOptions options;
    options.scale = def.scale;
    options.seed = model_seed;
    options.num_workers = def.workers;
    options.jobs = def.pool_threads;
    core::GridRunner grid(options, run);
    const std::vector<core::Factors> levels = GridLevels();
    grid.PrefetchAll(levels);
    for (workloads::WorkloadKind kind : workloads::AllWorkloads()) {
      for (const core::Factors& f : levels) grid.Get(kind, f);
    }
  }
  std::vector<SimOutcome> ordered;
  for (const core::ExperimentSpec& spec : specs) {
    ordered.push_back(outcomes[spec.factors.Label(spec.workload)]);
  }
  return ordered;
}

// --- Exact per-layer statistics ------------------------------------------

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// The simulated statistics the benchmark gates exactly, from the batch's
/// raw sums (summed in batch order, so they repeat bit for bit).
std::map<std::string, double> ExactMetrics(
    const std::vector<SimOutcome>& batch) {
  Raw t;
  for (const SimOutcome& o : batch) {
    for (const auto& [k, v] : o.raw) t[k] += v;
  }
  std::map<std::string, double> m;
  m["sim.events"] = t["events"];
  m["core.sim_s"] = t["sim_s"];
  m["net.tx_bytes"] = t["net.link_tx_bytes"];
  m["os.read_hits"] = t["pagecache.read_hits"];
  m["os.read_misses"] = t["pagecache.read_misses"];
  m["os.hit_ratio"] = Ratio(t["pagecache.read_hits"],
                            t["pagecache.read_hits"] +
                                t["pagecache.read_misses"]);
  m["os.evicted_units"] = t["pagecache.evicted_units"];
  m["os.writeback_bytes"] = t["pagecache.writeback_bytes"];
  m["os.throttle_events"] = t["pagecache.throttle_events"];
  m["storage.requests"] = t["disk.requests"];
  m["storage.merges"] = t["sched.merges"];
  m["storage.avgrq_sectors"] =
      Ratio(t["disk.request_sectors.sum"], t["disk.request_sectors.count"]);
  m["storage.await_ms"] =
      Ratio(t["disk.await_ms.sum"], t["disk.await_ms.count"]);
  m["hdfs.blocks_read"] = t["hdfs.blocks_read"];
  m["hdfs.blocks_written"] = t["hdfs.blocks_written"];
  m["hdfs.remote_read_frac"] =
      Ratio(t["hdfs.read_remote_bytes"],
            t["hdfs.read_remote_bytes"] + t["hdfs.read_local_bytes"]);
  m["mapreduce.map_spills"] = t["mr.map_spills"];
  m["mapreduce.shuffle_bytes"] = t["mr.shuffle_bytes"];
  m["mapreduce.task_failures"] = t["mr.retry.task_failures"];
  m["mapreduce.maps_reexecuted"] = t["mr.reexec.maps"];
  m["mapreduce.wasted_work_bytes"] = t["mr.retry.wasted_work_bytes"];
  m["dag.rounds"] = t["mr.dag.rounds_completed"];
  m["dag.node_retries"] = t["mr.dag.node_retries"];
  m["dag.expired_files"] = t["mr.dag.intermediate_expired_files"];
  m["faults.injected"] = t["faults.injected"];
  return m;
}

// --- JSON output ---------------------------------------------------------

std::string Num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
      continue;
    }
    out += c;
  }
  return out + "\"";
}

std::string Object(const std::map<std::string, double>& m) {
  std::string out = "{";
  for (const auto& [k, v] : m) {
    if (out.size() > 1) out += ", ";
    out += Quote(k) + ": " + Num(v);
  }
  return out + "}";
}

std::string Array(const std::vector<double>& v) {
  std::string out = "[";
  for (size_t i = 0; i < v.size(); ++i) {
    if (i > 0) out += ", ";
    out += Num(v[i]);
  }
  return out + "]";
}

struct BatchRecord {
  double wall_s = 0;
  double cpu_s = 0;
  std::vector<SimOutcome> sims;
};

std::string BatchJson(const BatchRecord& b) {
  std::string out = "{\"wall_s\": " + Num(b.wall_s) +
                    ", \"cpu_s\": " + Num(b.cpu_s) + ", \"sims\": [";
  for (size_t i = 0; i < b.sims.size(); ++i) {
    const SimOutcome& s = b.sims[i];
    if (i > 0) out += ", ";
    out += "{\"label\": " + Quote(s.label) +
           ", \"ok\": " + (s.ok ? "true" : "false") +
           ", \"status\": " + Quote(s.status) +
           ", \"digest\": " + Quote(s.digest) + "}";
  }
  return out + "], \"exact\": " + Object(ExactMetrics(b.sims)) + "}";
}

BatchRecord TimedBatch(const WorkloadDef& def, uint64_t model_seed,
                       SpanRecorder* spans, int parent) {
  BatchRecord b;
  const double cpu0 = CpuNow();
  const double t0 = WallNow();
  b.sims = RunBatch(def, model_seed, spans, parent);
  b.wall_s = WallNow() - t0;
  b.cpu_s = CpuNow() - cpu0;
  return b;
}

bool IsUnder(const std::vector<Span>& all, int id, int ancestor) {
  for (int at = id; at >= 0; at = all[static_cast<size_t>(at)].parent) {
    if (at == ancestor) return true;
  }
  return false;
}

double SumUnder(const std::vector<Span>& all, int ancestor,
                const std::string& name) {
  double total = 0;
  for (size_t i = 0; i < all.size(); ++i) {
    if (all[i].name == name && IsUnder(all, static_cast<int>(i), ancestor)) {
      total += all[i].seconds();
    }
  }
  return total;
}

/// The traced pass: one set-up and one batch under spans, then the probes.
std::string TracedPass(const Options& o, const WorkloadDef& def) {
  SpanRecorder spans;
  int setup_root = 0;
  BatchRecord batch;
  {
    ScopedSpan root(&spans, "workload " + def.name, -1);
    {
      ScopedSpan setup(&spans, "setup", root.id());
      setup_root = setup.id();
      SetUpBatch(def, o.model_seed, &spans, setup.id());
    }
    ScopedSpan run(&spans, "batch", root.id());
    batch = TimedBatch(def, o.model_seed, &spans, run.id());
  }
  std::map<std::string, double> layer;
  {
    ScopedSpan probes(&spans, "probes", -1);
    layer = RunProbes(o.seed);
  }
  const std::vector<Span> all = spans.spans();
  layer["workloads.plan_s"] =
      SumUnder(all, setup_root, "workloads.BuildPlan") +
      SumUnder(all, setup_root, "workloads.BuildGraphDag");
  layer["cluster.build_s"] = SumUnder(all, setup_root, "cluster.Cluster");
  layer["hdfs.preload_s"] = SumUnder(all, setup_root, "hdfs.Hdfs+Preload");
  const std::vector<double> cells = spans.Durations("cell ");
  double busy = 0;
  for (double c : cells) busy += c;
  layer["core.cell_s_p50"] = Median(cells);
  layer["core.cell_s_max"] =
      cells.empty() ? 0 : *std::max_element(cells.begin(), cells.end());
  layer["core.pool_busy_frac"] =
      Ratio(busy, def.pool_threads * batch.wall_s);
  layer["sim.events_per_sec"] =
      Ratio(ExactMetrics(batch.sims)["sim.events"], batch.wall_s);
  if (!o.spans_out.empty() && !spans.WriteChromeTrace(o.spans_out)) {
    std::fprintf(stderr, "cannot write %s\n", o.spans_out.c_str());
    std::exit(1);
  }
  return "\"batches\": [" + BatchJson(batch) +
         "], \"layer\": " + Object(layer);
}

std::string UntracedPass(const Options& o, const WorkloadDef& def) {
  std::vector<double> setup_s;
  for (int i = 0; i < o.setup_reps; ++i) {
    const double t0 = WallNow();
    SetUpBatch(def, o.model_seed, nullptr, -1);
    setup_s.push_back(WallNow() - t0);
  }
  // Batches run while the next one is predicted to end inside the budget,
  // so a run measures about --seconds whatever one batch costs.
  std::vector<BatchRecord> batches;
  std::vector<double> walls;
  const double start = WallNow();
  while (static_cast<int>(batches.size()) < o.max_batches &&
         (batches.empty() || WallNow() - start + Median(walls) <= o.seconds)) {
    batches.push_back(TimedBatch(def, o.model_seed, nullptr, -1));
    walls.push_back(batches.back().wall_s);
  }
  std::string out = "\"setup_s\": " + Array(setup_s) + ", \"batches\": [";
  for (size_t i = 0; i < batches.size(); ++i) {
    if (i > 0) out += ", ";
    out += BatchJson(batches[i]);
  }
  return out + "]";
}

bool ParseFlag(const std::string& arg, const char* name, std::string* value) {
  const std::string prefix = std::string("--") + name + "=";
  if (arg.compare(0, prefix.size(), prefix) != 0) return false;
  *value = arg.substr(prefix.size());
  return true;
}

int Main(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    std::string v;
    if (ParseFlag(arg, "workload", &v)) {
      o.workload = v;
    } else if (ParseFlag(arg, "seconds", &v)) {
      o.seconds = std::strtod(v.c_str(), nullptr);
    } else if (ParseFlag(arg, "seed", &v)) {
      o.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (ParseFlag(arg, "model-seed", &v)) {
      o.model_seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (ParseFlag(arg, "setup-reps", &v)) {
      o.setup_reps = std::atoi(v.c_str());
    } else if (ParseFlag(arg, "max-batches", &v)) {
      o.max_batches = std::atoi(v.c_str());
    } else if (ParseFlag(arg, "spans-out", &v)) {
      o.spans_out = v;
    } else if (arg == "--traced") {
      o.traced = true;
    } else {
      std::fprintf(stderr, "unknown flag %s (see the header of driver.cc)\n",
                   arg.c_str());
      return 2;
    }
  }
  const WorkloadDef* def = nullptr;
  for (const WorkloadDef& d : kWorkloads) {
    if (d.name == o.workload) def = &d;
  }
  if (def == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", o.workload.c_str());
    return 2;
  }
  const std::string body =
      o.traced ? TracedPass(o, *def) : UntracedPass(o, *def);
  char scale[32];
  std::snprintf(scale, sizeof scale, "1/%.0f", 1.0 / def->scale);
  std::printf(
      "{\"workload\": %s, \"manifest\": {\"model_seed\": %llu, "
      "\"scale\": %s, \"workers\": %u, \"pool_threads\": %u, \"nproc\": %ld, "
      "\"build_type\": %s, \"compiler\": %s}, %s, \"peak_rss_mib\": %s}\n",
      Quote(def->name).c_str(),
      static_cast<unsigned long long>(o.model_seed), Quote(scale).c_str(),
      def->workers, def->pool_threads, sysconf(_SC_NPROCESSORS_ONLN),
      Quote(BDIO_BENCH_BUILD_TYPE).c_str(), Quote(BDIO_BENCH_COMPILER).c_str(),
      body.c_str(), Num(PeakRssMib()).c_str());
  return 0;
}

}  // namespace
}  // namespace bdio_bench

int main(int argc, char** argv) { return bdio_bench::Main(argc, argv); }
