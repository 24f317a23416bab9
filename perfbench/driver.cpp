// One repetition of a figure-sweep workload: set-up, then the sweep through
// sim::ExperimentRunner with the library's defaults, then a digest of the
// results. Prints one JSON object on stdout. run.py drives repetitions,
// reports medians and checks digests.
//
//   perfbench_driver --workload nmm-cold|ndm-warm --seed N
//                    --scale D --threads T --dir WORKDIR [--traced]
//
// With --traced the process also rebuilds the same sweep serially from the
// layers' public functions, timing each call with perfbench::Tracer, checks
// that the rebuilt results equal the untraced ones bit for bit, writes the
// spans to WORKDIR/spans.json and reports per-layer totals.
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "hms/designs/configs.hpp"
#include "hms/designs/partition.hpp"
#include "hms/model/report.hpp"
#include "hms/sim/checkpoint.hpp"
#include "hms/sim/experiment.hpp"
#include "hms/sim/parallel.hpp"
#include "hms/sim/simulator.hpp"
#include "hms/trace/interval_profile.hpp"
#include "hms/trace/trace_store.hpp"
#include "hms/workloads/registry.hpp"
#include "perfbench.hpp"

extern char** environ;

namespace {

using namespace hms;
using perfbench::Scope;
using perfbench::Tracer;
namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

constexpr mem::Technology kNmmTech = mem::Technology::PCM;
constexpr mem::Technology kNdmTechs[] = {
    mem::Technology::PCM, mem::Technology::STTRAM, mem::Technology::FeRAM};

enum class Workload { NmmCold, NdmWarm };

struct Args {
  Workload workload = Workload::NmmCold;
  std::uint64_t seed = 0;
  std::uint64_t scale = 0;
  unsigned threads = 0;
  fs::path dir;
  bool traced = false;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench_driver: " << why
            << "\nusage: perfbench_driver --workload nmm-cold|ndm-warm "
               "--seed N --scale D --threads T --dir DIR [--traced]\n";
  std::exit(2);
}

std::uint64_t parse_u64(const std::string& flag, const std::string& v) {
  if (v.empty() || v.find_first_not_of("0123456789") != std::string::npos) {
    usage(flag + " expects a whole number, got \"" + v + "\"");
  }
  try {
    return std::stoull(v);
  } catch (const std::exception&) {
    usage(flag + " out of range: \"" + v + "\"");
  }
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--traced") {
      a.traced = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string v = argv[++i];
    if (flag == "--workload") {
      have_workload = true;
      if (v == "nmm-cold") {
        a.workload = Workload::NmmCold;
      } else if (v == "ndm-warm") {
        a.workload = Workload::NdmWarm;
      } else {
        usage("unknown workload \"" + v + "\"");
      }
    } else if (flag == "--seed") {
      a.seed = parse_u64(flag, v);
    } else if (flag == "--scale") {
      a.scale = parse_u64(flag, v);
    } else if (flag == "--threads") {
      const std::uint64_t t = parse_u64(flag, v);
      if (t == 0 || t > 1024) usage("--threads must be 1..1024");
      a.threads = static_cast<unsigned>(t);
    } else if (flag == "--dir") {
      a.dir = v;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (!have_workload || a.scale == 0 || a.threads == 0 || a.dir.empty()) {
    usage("--workload, --scale, --threads and --dir are required");
  }
  return a;
}

/// The measurement is of the program's defaults: any inherited HMS_* knob
/// (replay mode, sampling, faults, watchdog, SIMD opt-out) would change
/// what is measured, so the driver refuses to run under one.
void refuse_hms_environment() {
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "HMS_", 4) == 0) {
      std::cerr << "perfbench_driver: refusing to run with " << *e
                << " set; clear every HMS_* variable\n";
      std::exit(2);
    }
  }
}

// -- Starting state -------------------------------------------------------

sim::ExperimentConfig make_config(const Args& a, const fs::path& dir) {
  sim::ExperimentConfig cfg;
  cfg.scale_divisor = a.scale;
  cfg.footprint_divisor = a.scale;
  cfg.seed = a.seed;
  cfg.threads = a.threads;
  cfg.trace_cache_dir = (dir / "store").string();
  if (a.workload == Workload::NmmCold) {
    cfg.checkpoint_path = (dir / "sweep.ckpt").string();
  }
  return cfg;
}

workloads::WorkloadParams params_for(const sim::ExperimentConfig& cfg,
                                     const std::string& workload) {
  // The runner sizes a workload from its paper metadata, read off a probe
  // instance; the same two calls here give the same params.
  const auto probe = workloads::make_workload(
      workload, workloads::WorkloadParams{1ull << 20, cfg.seed, 1});
  return cfg.params_for(probe->info());
}

/// Fills the trace store the way a first sweep would, with the code under
/// test: one cached capture per suite workload, `threads` at a time.
void fill_store(const sim::ExperimentConfig& cfg,
                const designs::DesignFactory& factory,
                const std::vector<std::string>& suite) {
  const trace::TraceStore store(cfg.trace_cache_dir);
  std::vector<std::function<void()>> tasks;
  for (const std::string& w : suite) {
    tasks.emplace_back([&, w] {
      (void)sim::capture_front_cached(w, params_for(cfg, w), factory, &store);
    });
  }
  sim::run_parallel(std::move(tasks), cfg.threads);
}

/// fill_store in a child process, as an earlier process would have filled
/// the store: the measuring process then starts the sweep with a clean heap,
/// and its peak memory is the sweep's, not the fill's (which depends on how
/// the fill's threads happened to overlap).
void fill_store_in_child(const sim::ExperimentConfig& cfg,
                         const designs::DesignFactory& factory,
                         const std::vector<std::string>& suite) {
  std::cout.flush();
  std::cerr.flush();
  const pid_t pid = fork();
  if (pid < 0) throw std::runtime_error("fork failed for the store fill");
  if (pid == 0) {
    int code = 0;
    try {
      fill_store(cfg, factory, suite);
    } catch (const std::exception& e) {
      std::cerr << "perfbench_driver: store fill: " << e.what() << "\n";
      code = 1;
    }
    std::cerr.flush();
    _exit(code);
  }
  int status = 0;
  if (waitpid(pid, &status, 0) != pid || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0) {
    throw std::runtime_error("store fill failed");
  }
}

// -- Result digest --------------------------------------------------------

void add_report(perfbench::Digest& d, const model::NormalizedReport& n) {
  d.add(n.workload);
  d.add(n.runtime);
  d.add(n.dynamic);
  d.add(n.leakage);
  d.add(n.total_energy);
  d.add(n.edp);
}

std::uint64_t digest_nmm(const std::vector<sim::SuiteResult>& results) {
  perfbench::Digest d;
  for (const auto& suite : results) {
    d.add(suite.config_name);
    d.add(static_cast<std::uint64_t>(suite.per_workload.size()));
    for (const auto& w : suite.per_workload) add_report(d, w.normalized);
  }
  return d.value();
}

std::uint64_t digest_ndm(
    const std::vector<std::vector<sim::NdmResult>>& per_tech) {
  perfbench::Digest d;
  for (const auto& results : per_tech) {
    d.add(static_cast<std::uint64_t>(results.size()));
    for (const auto& r : results) {
      d.add(r.workload);
      d.add(r.chosen.name);
      add_report(d, r.result.normalized);
      d.add(static_cast<std::uint64_t>(r.all_placements.size()));
      for (const auto& [placement, n] : r.all_placements) {
        d.add(placement.name);
        add_report(d, n);
      }
    }
  }
  return d.value();
}

struct SweepOutcome {
  std::uint64_t digest = 0;
  std::uint64_t cells = 0;
  std::uint64_t failed_cells = 0;
};

SweepOutcome outcome_nmm(const std::vector<sim::SuiteResult>& results,
                         std::size_t suite_size) {
  SweepOutcome o;
  o.digest = digest_nmm(results);
  o.cells = results.size() * suite_size;
  for (const auto& r : results) o.failed_cells += r.failures.size();
  return o;
}

SweepOutcome outcome_ndm(
    const std::vector<std::vector<sim::NdmResult>>& per_tech,
    std::size_t suite_size) {
  SweepOutcome o;
  o.digest = digest_ndm(per_tech);
  o.cells = std::size(kNdmTechs) * suite_size;
  // ndm_oracle has no degradable cells: a failing workload throws, which
  // fails the whole repetition. Missing rows are still counted here.
  std::size_t got = 0;
  for (const auto& results : per_tech) got += results.size();
  o.failed_cells = o.cells - got;
  return o;
}

// -- Untraced repetition ---------------------------------------------------

double cpu_seconds() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_utime.tv_sec + u.ru_stime.tv_sec) +
         static_cast<double>(u.ru_utime.tv_usec + u.ru_stime.tv_usec) * 1e-6;
}

double peak_rss_mb() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Untraced {
  double setup_s = 0;
  double sweep_s = 0;
  double cpu_s = 0;
  double peak_rss_mb = 0;
  SweepOutcome outcome;
};

/// Set-up (fresh directory, store fill for ndm-warm, runner) and
/// the timed sweep, exactly as a user's first or repeated figure run does.
Untraced run_untraced(const Args& a, const fs::path& dir) {
  Untraced r;
  const auto t0 = Clock::now();
  fs::remove_all(dir);
  fs::create_directories(dir);
  const sim::ExperimentConfig cfg = make_config(a, dir);
  sim::ExperimentRunner runner(cfg);
  if (a.workload == Workload::NdmWarm) {
    fill_store_in_child(cfg, runner.factory(), runner.suite());
  }
  r.setup_s = seconds_since(t0);

  const double cpu0 = cpu_seconds();
  const auto t1 = Clock::now();
  if (a.workload == Workload::NdmWarm) {
    std::vector<std::vector<sim::NdmResult>> per_tech;
    for (const auto tech : kNdmTechs) per_tech.push_back(runner.ndm_oracle(tech));
    r.sweep_s = seconds_since(t1);
    r.cpu_s = cpu_seconds() - cpu0;
    r.outcome = outcome_ndm(per_tech, runner.suite().size());
  } else {
    const auto results = runner.nmm_sweep(kNmmTech, designs::n_configs());
    r.sweep_s = seconds_since(t1);
    r.cpu_s = cpu_seconds() - cpu0;
    r.outcome = outcome_nmm(results, runner.suite().size());
  }
  r.peak_rss_mb = peak_rss_mb();
  return r;
}

// -- Traced rebuild ----------------------------------------------------------

/// Counts taken at the same call boundaries the spans time.
struct Counters {
  std::uint64_t workload_refs = 0;
  std::uint64_t residual_accesses = 0;
  std::uint64_t encoded_bytes = 0;
  std::uint64_t back_accesses = 0;
  std::uint64_t store_hits = 0;
  std::uint64_t store_misses = 0;
  std::uint64_t checkpoint_appends = 0;
  std::uint64_t cells = 0;
  std::uint64_t placements = 0;
  std::uint64_t evals = 0;
};

struct Warmed {
  sim::FrontCapture capture;
  model::DesignReport base;
  model::ReferenceAnchor anchor;
};

/// The sweep rebuilt serially from the layers' public functions — the same
/// calls, in the same per-back order, that ExperimentRunner makes — with a
/// span around each call. A cold capture is decomposed by extra passes under
/// a "decompose" root (see decompose()), which is one reason the traced run
/// takes longer than the sweep it explains.
class TracedSweep {
 public:
  TracedSweep(Tracer& tracer, const sim::ExperimentConfig& cfg,
              const designs::DesignFactory& factory, const fs::path& dir)
      : t_(tracer),
        cfg_(cfg),
        factory_(factory),
        store_(cfg.trace_cache_dir),
        append_store_((dir / "append-scratch").string()) {}

  Counters counters;

  /// Cold capture: a store miss, then the library's cached capture (which
  /// captures and appends), then the decomposition passes.
  sim::FrontCapture capture_cold(const std::string& w) {
    const auto params = params_for(cfg_, w);
    const std::uint64_t key = sim::capture_hash(w, params, factory_);
    sim::FrontCapture c;
    {
      Scope cap(t_, "sim.capture");
      {
        Scope s(t_, "trace.store_load");
        if (store_.load(key)) throw std::runtime_error("store not cold: " + w);
        ++counters.store_misses;
      }
      Scope s(t_, "sim.capture_front");
      c = sim::capture_front_cached(w, params, factory_, &store_);
    }
    decompose(w, params, key, c);
    return c;
  }

  /// Warm capture: a CRC-checked load from the store filled in set-up.
  sim::FrontCapture capture_warm(const std::string& w) {
    const auto params = params_for(cfg_, w);
    const std::uint64_t key = sim::capture_hash(w, params, factory_);
    if (!fs::exists(store_.entry_path(key))) {
      throw std::runtime_error("store not warm: " + w);
    }
    sim::FrontCapture c;
    {
      Scope cap(t_, "sim.capture");
      Scope s(t_, "trace.store_load");
      c = sim::capture_front_cached(w, params, factory_, &store_);
    }
    ++counters.store_hits;
    return c;
  }

  /// Base replay, anchor and base report (the runner's warm-up tail). The
  /// residual is counted here, once per workload the sweep evaluates.
  Warmed warm(sim::FrontCapture capture) {
    counters.residual_accesses += capture.residual.access_count();
    counters.encoded_bytes += capture.residual.encoded_bytes();
    Warmed out;
    Scope s(t_, "sim.base_report");
    auto back = factory_.base_back(capture.footprint_bytes);
    cache::MemoryHierarchy* backs[] = {back.get()};
    const auto profile = replay(capture, backs).front();
    {
      Scope m(t_, "model.eval");
      out.anchor = model::make_anchor(profile,
                                      capture.info.memory_bound_fraction);
      out.base = model::evaluate("base", capture.workload_name, profile,
                                 out.anchor);
      ++counters.evals;
    }
    out.capture = std::move(capture);
    return out;
  }

  /// Decodes each residual chunk once and feeds it to every back, then
  /// combines each back's profile with the front's (replay_back's loop).
  std::vector<cache::HierarchyProfile> replay(
      const sim::FrontCapture& c,
      std::span<cache::MemoryHierarchy* const> backs) {
    std::vector<trace::MemoryAccess> scratch;
    const std::size_t chunks = c.residual.chunk_count();
    for (std::size_t i = 0; i < chunks; ++i) {
      {
        Scope s(t_, "trace.decode");
        c.residual.decode_chunk(i, scratch);
      }
      for (cache::MemoryHierarchy* back : backs) {
        Scope s(t_, "cache.back");
        back->access_batch(scratch);
      }
      counters.back_accesses += scratch.size() * backs.size();
    }
    std::vector<cache::HierarchyProfile> out;
    out.reserve(backs.size());
    for (cache::MemoryHierarchy* back : backs) {
      out.push_back(
          cache::HierarchyProfile::combine(c.front_profile, back->profile()));
    }
    return out;
  }

  /// The runner's finish_result for a full (unsampled) replay.
  sim::WorkloadResult finish(const std::string& design, const Warmed& w,
                             const cache::HierarchyProfile& profile) {
    Scope m(t_, "model.eval");
    sim::WorkloadResult r;
    r.report = model::evaluate(design, w.capture.workload_name, profile,
                               w.anchor);
    r.normalized = model::normalize(r.report, w.base);
    ++counters.evals;
    return r;
  }

 private:
  /// The parts of a cold capture that are not the L1-L3 front, each redone
  /// on its own: generation into a counting sink, re-encoding of the
  /// captured residual chunk by chunk, and the store append of the same
  /// bulk records (the sim layer's small metadata record is private) into
  /// a scratch directory, so the real store stays as the library wrote it.
  void decompose(const std::string& w, const workloads::WorkloadParams& params,
                 std::uint64_t key, const sim::FrontCapture& c) {
    Scope root(t_, "decompose");
    {
      Scope s(t_, "workloads.gen");
      auto workload = workloads::make_workload(w, params);
      trace::CountingSink sink;
      workload->run(sink);
      counters.workload_refs += sink.total();
    }
    trace::ChunkedTraceBuffer buffer;
    trace::IntervalProfile profile;
    buffer.attach_interval_profile(&profile);
    std::vector<trace::MemoryAccess> scratch;
    for (std::size_t i = 0; i < c.residual.chunk_count(); ++i) {
      c.residual.decode_chunk(i, scratch);
      Scope s(t_, "trace.encode");
      for (const auto& access : scratch) buffer.access(access);
    }
    buffer.attach_interval_profile(nullptr);
    if (buffer.encoded_bytes() != c.residual.encoded_bytes()) {
      throw std::runtime_error("re-encoding " + w + " changed its size");
    }
    Scope s(t_, "trace.store_append");
    trace::TraceStoreEntry entry;
    entry.metadata = w;
    c.interval_profile.serialize(entry.interval_profile);
    c.residual.serialize(entry.residual);
    append_store_.store(key, entry);
  }

  Tracer& t_;
  const sim::ExperimentConfig& cfg_;
  const designs::DesignFactory& factory_;
  trace::TraceStore store_;
  trace::TraceStore append_store_;
};

/// Mirrors ExperimentRunner::average (suite means over the survivors).
sim::SuiteResult average(const std::string& name,
                         std::vector<sim::WorkloadResult> results) {
  sim::SuiteResult s;
  s.config_name = name;
  double runtime = 0, dynamic = 0, leakage = 0, total = 0, edp = 0;
  for (const auto& r : results) {
    runtime += r.normalized.runtime;
    dynamic += r.normalized.dynamic;
    leakage += r.normalized.leakage;
    total += r.normalized.total_energy;
    edp += r.normalized.edp;
  }
  const double n = static_cast<double>(results.size());
  s.runtime = runtime / n;
  s.dynamic = dynamic / n;
  s.leakage = leakage / n;
  s.total_energy = total / n;
  s.edp = edp / n;
  s.per_workload = std::move(results);
  return s;
}

SweepOutcome traced_nmm(TracedSweep& ts, Tracer& t,
                        const sim::ExperimentConfig& cfg,
                        const designs::DesignFactory& factory,
                        const std::vector<std::string>& suite) {
  Scope sweep(t, "sweep");
  sim::SweepCheckpoint checkpoint(
      cfg.checkpoint_path,
      sim::experiment_hash(cfg, "nmm:" + std::string(mem::to_string(kNmmTech))));
  const auto& configs = designs::n_configs();
  std::vector<std::vector<sim::WorkloadResult>> grid(configs.size());
  for (const std::string& w : suite) {
    const Warmed warmed = ts.warm(ts.capture_cold(w));
    Scope replay(t, "sim.replay");
    std::vector<std::unique_ptr<cache::MemoryHierarchy>> owned;
    std::vector<cache::MemoryHierarchy*> backs;
    for (const auto& c : configs) {
      owned.push_back(factory.nvm_main_memory_back(
          c, kNmmTech, warmed.capture.footprint_bytes));
      backs.push_back(owned.back().get());
    }
    const auto profiles = ts.replay(warmed.capture, backs);
    for (std::size_t c = 0; c < configs.size(); ++c) {
      grid[c].push_back(ts.finish(configs[c].name, warmed, profiles[c]));
      ++ts.counters.cells;
    }
  }
  std::vector<sim::SuiteResult> results;
  for (std::size_t c = 0; c < configs.size(); ++c) {
    results.push_back(average(configs[c].name, std::move(grid[c])));
    Scope s(t, "sim.checkpoint_append");
    checkpoint.append(results.back());
    ++ts.counters.checkpoint_appends;
  }
  return outcome_nmm(results, suite.size());
}

SweepOutcome traced_ndm(TracedSweep& ts, Tracer& t,
                        const designs::DesignFactory& factory,
                        const std::vector<std::string>& suite) {
  Scope sweep(t, "sweep");
  std::map<std::string, Warmed> warmed;  // the runner's per-workload caches
  std::vector<std::vector<sim::NdmResult>> per_tech;
  for (const auto tech : kNdmTechs) {
    std::vector<sim::NdmResult> out;
    for (const std::string& w : suite) {
      auto it = warmed.find(w);
      if (it == warmed.end()) {
        it = warmed.emplace(w, ts.warm(ts.capture_warm(w))).first;
      }
      const Warmed& ww = it->second;
      std::vector<designs::RangeUsage> usages;
      {
        Scope s(t, "designs.range_profile");
        designs::RangeProfiler profiler(ww.capture.ranges);
        ww.capture.residual.replay(profiler);
        usages = profiler.usages();
      }
      // The oracle's placement search, as ExperimentRunner::ndm_oracle.
      const auto candidates = designs::merge_ranges(usages, 3);
      const std::uint64_t dram_capacity =
          factory.scaled(designs::kNdmDramCapacity, 4096);
      auto placements =
          designs::enumerate_subset_placements(candidates, dram_capacity);
      if (std::none_of(placements.begin(), placements.end(),
                       [](const auto& p) { return p.feasible; })) {
        std::uint64_t least = std::numeric_limits<std::uint64_t>::max();
        for (const auto& p : placements) least = std::min(least, p.dram_bytes);
        for (auto& p : placements) p.feasible = p.dram_bytes == least;
      }
      sim::NdmResult ndm;
      ndm.workload = w;
      double best_edp = std::numeric_limits<double>::infinity();
      for (const auto& placement : placements) {
        Scope replay(t, "sim.replay");
        auto back = factory.nvm_plus_dram_back(tech, placement.nvm_rules,
                                               ww.capture.footprint_bytes);
        cache::MemoryHierarchy* backs[] = {back.get()};
        auto result = ts.finish("NDM-" + placement.name, ww,
                                ts.replay(ww.capture, backs).front());
        ndm.all_placements.emplace_back(placement, result.normalized);
        if (placement.feasible && !placement.nvm_rules.empty() &&
            result.normalized.edp < best_edp) {
          best_edp = result.normalized.edp;
          ndm.chosen = placement;
          ndm.result = std::move(result);
        }
        ++ts.counters.placements;
      }
      if (ndm.chosen.nvm_rules.empty()) {
        throw std::runtime_error("ndm: no feasible placement for " + w);
      }
      out.push_back(std::move(ndm));
      ++ts.counters.cells;
    }
    per_tech.push_back(std::move(out));
  }
  return outcome_ndm(per_tech, suite.size());
}

struct Traced {
  SweepOutcome outcome;
  std::vector<perfbench::Span> spans;
  Counters counters;
};

Traced run_traced(const Args& a, const fs::path& dir) {
  fs::remove_all(dir);
  fs::create_directories(dir);
  const sim::ExperimentConfig cfg = make_config(a, dir);
  Tracer tracer(1);
  Traced out;
  // The runner is built only for the factory and suite it resolves from
  // the config; the rebuild never calls its sweeps.
  const sim::ExperimentRunner runner(cfg);
  TracedSweep ts(tracer, cfg, runner.factory(), dir);
  if (a.workload == Workload::NdmWarm) {
    {
      // Serial here; run_untraced fills `threads` captures at a time.
      Scope setup(tracer, "setup");
      for (const std::string& w : runner.suite()) (void)ts.capture_cold(w);
    }
    out.outcome = traced_ndm(ts, tracer, runner.factory(), runner.suite());
  } else {
    out.outcome = traced_nmm(ts, tracer, cfg, runner.factory(), runner.suite());
  }
  out.spans = tracer.spans();
  out.counters = ts.counters;
  return out;
}

// -- Output -------------------------------------------------------------------

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

void write_spans(const fs::path& path, const std::vector<perfbench::Span>& spans) {
  std::ofstream f(path);
  f << "[\n";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto& s = spans[i];
    f << "  {\"name\": \"" << json_escape(s.name) << "\", \"start\": "
      << num(s.start) << ", \"end\": " << num(s.end)
      << ", \"parent\": " << s.parent << ", \"run\": " << s.run << "}"
      << (i + 1 < spans.size() ? ",\n" : "\n");
  }
  f << "]\n";
  if (!f) throw std::runtime_error("cannot write " + path.string());
}

/// Per-layer metrics from the traced run. Layer totals cover the whole
/// traced run: for ndm-warm the capture layers ran in set-up,
/// which is where that workload pays for them.
std::map<std::string, double> layer_metrics(const Traced& tr,
                                            double traced_wall_s,
                                            double untraced_sweep_s,
                                            unsigned threads) {
  const auto totals = perfbench::totals_by_name(tr.spans);
  const auto layer = [&](const char* name) {
    const auto it = totals.find(name);
    return it == totals.end() ? perfbench::LayerTotals{} : it->second;
  };
  const auto total = [&](const char* name) { return layer(name).total; };
  const Counters& c = tr.counters;
  std::map<std::string, double> m;
  m["workloads.gen_s"] = total("workloads.gen");
  m["workloads.refs"] = static_cast<double>(c.workload_refs);
  m["trace.encode_s"] = total("trace.encode");
  m["trace.store_append_s"] = total("trace.store_append");
  m["cache.front_s"] = total("sim.capture_front") - m["workloads.gen_s"] -
                       m["trace.encode_s"] - m["trace.store_append_s"];
  m["cache.front_refs_per_s"] =
      static_cast<double>(c.workload_refs) / m["cache.front_s"];
  m["trace.encoded_bytes"] = static_cast<double>(c.encoded_bytes);
  m["trace.residual_accesses"] = static_cast<double>(c.residual_accesses);
  m["trace.decode_s"] = total("trace.decode");
  m["cache.back_s"] = total("cache.back");
  m["cache.back_accesses"] = static_cast<double>(c.back_accesses);
  m["cache.back_accesses_per_s"] =
      static_cast<double>(c.back_accesses) / m["cache.back_s"];
  m["trace.store_misses"] = static_cast<double>(c.store_misses);
  m["trace.store_load_s"] = total("trace.store_load");
  m["trace.store_hits"] = static_cast<double>(c.store_hits);
  m["sim.capture_s"] = total("sim.capture");
  m["sim.capture_max_s"] = layer("sim.capture").max;
  m["sim.base_report_s"] = total("sim.base_report");
  m["sim.replay_s"] = total("sim.replay");
  m["sim.replay_self_s"] = layer("sim.replay").self;
  m["sim.checkpoint_append_s"] = total("sim.checkpoint_append");
  m["sim.checkpoint_appends"] = static_cast<double>(c.checkpoint_appends);
  m["sim.cells"] = static_cast<double>(c.cells);
  m["sim.failed_cells"] = static_cast<double>(tr.outcome.failed_cells);
  m["designs.range_profile_s"] = total("designs.range_profile");
  m["designs.placements"] = static_cast<double>(c.placements);
  m["model.eval_s"] = total("model.eval");
  m["model.evals"] = static_cast<double>(c.evals);
  m["sim.traced_wall_s"] = traced_wall_s;
  m["sim.sweep_untraced_s"] = untraced_sweep_s;
  m["sim.decompose_s"] = total("decompose");
  // Serial busy time of the sweep — the traced sweep minus the
  // decomposition passes that ran inside it — over the parallel capacity
  // the untraced sweep had.
  double busy = total("sweep");
  for (std::size_t i = 0; i < tr.spans.size(); ++i) {
    if (tr.spans[i].name != "decompose") continue;
    std::size_t root = i;
    while (tr.spans[root].parent >= 0) {
      root = static_cast<std::size_t>(tr.spans[root].parent);
    }
    if (tr.spans[root].name == "sweep") {
      busy -= tr.spans[i].end - tr.spans[i].start;
    }
  }
  m["sim.work_over_wall"] =
      busy / (static_cast<double>(threads) * untraced_sweep_s);
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  refuse_hms_environment();
#ifndef PERFBENCH_BUILD_TYPE
#error "PERFBENCH_BUILD_TYPE must be defined by the build"
#endif
  if (std::string(PERFBENCH_BUILD_TYPE) != "Release") {
    std::cerr << "perfbench_driver: refusing a " << PERFBENCH_BUILD_TYPE
              << " build; configure with -DCMAKE_BUILD_TYPE=Release\n";
    return 2;
  }
  const Args a = parse_args(argc, argv);
  try {
    const Untraced u = run_untraced(a, a.dir / "untraced");
    std::ostringstream out;
    out << "{\"setup_s\": " << num(u.setup_s) << ", \"sweep_s\": "
        << num(u.sweep_s) << ", \"cpu_s\": " << num(u.cpu_s)
        << ", \"cells\": " << u.outcome.cells
        << ", \"failed_cells\": " << u.outcome.failed_cells
        << ", \"digest\": \"" << hex(u.outcome.digest) << "\"";
    if (a.traced) {
      const auto t0 = Clock::now();
      const Traced tr = run_traced(a, a.dir / "traced");
      const double traced_wall_s = seconds_since(t0);
      write_spans(a.dir / "spans.json", tr.spans);
      out << ", \"traced_digest\": \"" << hex(tr.outcome.digest)
          << "\", \"traced_wall_s\": " << num(traced_wall_s)
          << ", \"spans\": " << tr.spans.size() << ", \"layers\": {";
      bool first = true;
      for (const auto& [name, value] :
           layer_metrics(tr, traced_wall_s, u.sweep_s, a.threads)) {
        out << (first ? "" : ", ") << "\"" << name << "\": " << num(value);
        first = false;
      }
      out << "}";
    }
    out << ", \"peak_rss_mb\": " << num(u.peak_rss_mb) << "}";
    std::cout << out.str() << std::endl;
  } catch (const std::exception& e) {
    std::cerr << "perfbench_driver: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
