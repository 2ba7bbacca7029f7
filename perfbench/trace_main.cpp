// perfbench_trace — the traced twin of the `ccfuzz` CLI for the benchmark's
// workloads. It runs the same campaign, shard, triage and replay steps
// through the library's public API and records spans around each call into
// a layer, plus one record per simulation, so run.py can split a workload's
// time across the scenario, cca, fuzz, campaign, dist and triage layers.
//
//   perfbench_trace run    --output DIR --spans FILE --run-id ID
//                          [--workers N] [--checkpoint-every N] [matrix flags]
//   perfbench_trace triage --output DIR --spans FILE --run-id ID [matrix flags]
//   perfbench_trace replay --output DIR --spans FILE --run-id ID [matrix flags]
//
// Matrix flags: --ccas a,b --modes m,.. --score NAME --generations N
// --population N --seed N --duration-ms N --winners N, with the CLI's
// defaults (the island count and event budget stay at the CLI's defaults).
// The report trees this writes must be byte-identical to the CLI's; run.py
// checks that on every traced run.
//
// Hooks, all through public extension points (nothing inside src/ is
// traced):
//   - each cell's CCA factory is wrapped to stamp the start of a simulation
//     (the factory runs once per simulation, on the simulating thread);
//   - each cell's ScoreFunction is wrapped to stamp its end and read the
//     packet counts from the RunResult; it forwards name() and identity(),
//     so report bytes do not change;
//   - a CampaignObserver stamps generation and cell boundaries, and a
//     forwarding observer times the JsonlObserver callbacks;
//   - an inotify watch on each campaign's checkpoint directory counts the
//     checkpoint heads landed (renames onto campaign.ckpt) while it runs.
// An explicit factory switches the campaign's evaluation-cache key to
// index-based keying. Cells with distinct CCAs never share cache entries
// either way, so reports stay identical; checkpoint cache keys do change,
// which is why checkpoint sizes are read from the untraced run.
//
// Records stay in memory and are written to --spans when the process ends;
// a forked shard worker writes to `<spans>.<shard>`. Output is one
// tab-separated record per line:
//   span <run> <pid> <id> <parent> <name> <start_ns> <end_ns> <k=v;...>
//   sim  <run> <pid> <parent> <cca> <start_ns> <end_ns> <packets>
//   mark <run> <pid> <name> <t_ns> <cell>
// Times are CLOCK_MONOTONIC nanoseconds, comparable across processes. A sim
// with start or end -1 was not fully observed: a simulation run without a
// score, such as triage's armed-invariants classification run.
#include <sys/inotify.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "campaign/campaign.h"
#include "campaign/report.h"
#include "cca/registry.h"
#include "dist/merge.h"
#include "dist/shard_plan.h"
#include "dist/worker.h"
#include "fuzz/score.h"
#include "triage/triage.h"

using namespace ccfuzz;

namespace {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// --- Recording ---------------------------------------------------------------

struct SpanRec {
  std::int64_t id;
  std::int64_t parent;
  std::string name;
  std::int64_t start;
  std::int64_t end;
  std::string attrs;
};

struct SimRec {
  std::int64_t parent;
  int cca;  // index into the interned CCA names
  std::int64_t start;
  std::int64_t end;
  std::int64_t packets;
};

struct MarkRec {
  std::string name;
  std::int64_t t;
  std::string cell;
};

/// Process-wide record store. Spans and marks come from the driver thread;
/// sims come from thread-pool workers, hence the mutex.
class Recorder {
 public:
  std::int64_t new_id() {
    return static_cast<std::int64_t>(getpid()) * 1'000'000 + ++next_id_;
  }
  void span(SpanRec r) {
    std::lock_guard<std::mutex> lk(mu_);
    spans_.push_back(std::move(r));
  }
  void sim(const SimRec& r) {
    std::lock_guard<std::mutex> lk(mu_);
    sims_.push_back(r);
  }
  void mark(MarkRec r) {
    std::lock_guard<std::mutex> lk(mu_);
    marks_.push_back(std::move(r));
  }
  /// Interns a CCA name for sim records (driver thread, before any sim).
  int intern(const std::string& cca) {
    std::lock_guard<std::mutex> lk(mu_);
    const auto it = std::find(ccas_.begin(), ccas_.end(), cca);
    if (it != ccas_.end()) return static_cast<int>(it - ccas_.begin());
    ccas_.push_back(cca);
    return static_cast<int>(ccas_.size()) - 1;
  }
  /// Drops inherited records: a forked child reports only its own work.
  void clear() {
    std::lock_guard<std::mutex> lk(mu_);
    spans_.clear();
    sims_.clear();
    marks_.clear();
  }

  /// Writes every record to `path`; returns false when the file cannot be
  /// written.
  bool write(const std::string& path, const std::string& run_id) {
    std::lock_guard<std::mutex> lk(mu_);
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    const long pid = static_cast<long>(getpid());
    for (const SpanRec& s : spans_) {
      std::fprintf(f, "span\t%s\t%ld\t%lld\t%lld\t%s\t%lld\t%lld\t%s\n",
                   run_id.c_str(), pid, static_cast<long long>(s.id),
                   static_cast<long long>(s.parent), s.name.c_str(),
                   static_cast<long long>(s.start),
                   static_cast<long long>(s.end), s.attrs.c_str());
    }
    for (const SimRec& s : sims_) {
      std::fprintf(f, "sim\t%s\t%ld\t%lld\t%s\t%lld\t%lld\t%lld\n",
                   run_id.c_str(), pid, static_cast<long long>(s.parent),
                   ccas_[static_cast<std::size_t>(s.cca)].c_str(),
                   static_cast<long long>(s.start),
                   static_cast<long long>(s.end),
                   static_cast<long long>(s.packets));
    }
    for (const MarkRec& m : marks_) {
      std::fprintf(f, "mark\t%s\t%ld\t%s\t%lld\t%s\n", run_id.c_str(), pid,
                   m.name.c_str(), static_cast<long long>(m.t),
                   m.cell.c_str());
    }
    return std::fclose(f) == 0;
  }

 private:
  std::mutex mu_;
  std::vector<SpanRec> spans_;
  std::vector<SimRec> sims_;
  std::vector<MarkRec> marks_;
  std::vector<std::string> ccas_;
  std::int64_t next_id_ = 0;
};

Recorder g_rec;
/// The innermost open span on the driver thread: the parent of new spans and
/// of every simulation (pool threads read it, so it is atomic).
std::atomic<std::int64_t> g_current{0};

/// RAII span on the driver thread.
class Span {
 public:
  explicit Span(std::string name)
      : id_(g_rec.new_id()),
        parent_(g_current.load()),
        name_(std::move(name)),
        start_(now_ns()) {
    g_current.store(id_);
  }
  ~Span() {
    g_current.store(parent_);
    g_rec.span({id_, parent_, std::move(name_), start_, now_ns(),
                std::move(attrs_)});
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  void attr(const std::string& key, const std::string& value) {
    if (!attrs_.empty()) attrs_ += ';';
    attrs_ += key + '=' + value;
  }
  void attr(const std::string& key, long long value) {
    attr(key, std::to_string(value));
  }
  std::int64_t id() const { return id_; }

 private:
  std::int64_t id_;
  std::int64_t parent_;
  std::string name_;
  std::int64_t start_;
  std::string attrs_;
};

// --- Simulation hooks ---------------------------------------------------------

/// Start of the simulation running on this thread; -1 when none is open.
thread_local std::int64_t t_sim_start = -1;
thread_local int t_sim_cca = 0;

/// A simulation that started but was never scored: record it as unobserved.
void flush_unscored_sim() {
  if (t_sim_start < 0) return;
  g_rec.sim({g_current.load(), t_sim_cca, t_sim_start, -1, 0});
  t_sim_start = -1;
}

/// Forwards to the cell's score; stamps the end of the simulation that
/// produced `run`. Pure apart from the record, as ScoreFunction requires.
class TracedScore final : public fuzz::ScoreFunction {
 public:
  TracedScore(std::shared_ptr<const fuzz::ScoreFunction> inner, int cca)
      : inner_(std::move(inner)), cca_(cca) {}

  double performance_score(const scenario::RunResult& run) const override {
    const std::int64_t end = now_ns();
    std::int64_t packets = run.cross_sent;
    for (const scenario::FlowResult& f : run.flows) packets += f.sent;
    g_rec.sim({g_current.load(), cca_, t_sim_start, end, packets});
    t_sim_start = -1;
    return inner_->performance_score(run);
  }
  const char* name() const override { return inner_->name(); }
  std::uint64_t identity() const override { return inner_->identity(); }
  void validate(const scenario::ScenarioConfig& s) const override {
    inner_->validate(s);
  }

 private:
  std::shared_ptr<const fuzz::ScoreFunction> inner_;
  int cca_;
};

/// Wraps a cell's factory and score with the simulation hooks.
campaign::CellConfig traced_cell(campaign::CellConfig cell) {
  const int cca = g_rec.intern(cell.cca);
  tcp::CcaFactory inner = cca::make_factory(cell.cca);
  cell.factory = [inner, cca]() {
    flush_unscored_sim();
    t_sim_start = now_ns();
    t_sim_cca = cca;
    return inner();
  };
  cell.score = std::make_shared<TracedScore>(cell.score, cca);
  return cell;
}

// --- Campaign hooks -------------------------------------------------------------

/// Stamps generation and cell boundaries (registered last, so a generation
/// mark follows every other observer's work for that event).
class MarkObserver final : public campaign::CampaignObserver {
 public:
  void on_generation(const campaign::CellConfig& cell,
                     const fuzz::GenStats&) override {
    g_rec.mark({"generation", now_ns(), cell.name});
  }
  void on_cell_end(const campaign::CellResult& r) override {
    g_rec.mark({"cell_end", now_ns(), r.cell.name});
  }
};

/// Times another observer's callbacks as `campaign.feed` spans.
class TimedObserver final : public campaign::CampaignObserver {
 public:
  explicit TimedObserver(campaign::CampaignObserver& inner) : inner_(inner) {}

  void on_campaign_begin(
      const std::vector<campaign::CellConfig>& cells) override {
    Span s("campaign.feed");
    inner_.on_campaign_begin(cells);
  }
  void on_generation(const campaign::CellConfig& cell,
                     const fuzz::GenStats& gs) override {
    Span s("campaign.feed");
    inner_.on_generation(cell, gs);
  }
  void on_cell_end(const campaign::CellResult& r) override {
    Span s("campaign.feed");
    inner_.on_cell_end(r);
  }
  void on_campaign_end(const campaign::CampaignReport& r) override {
    Span s("campaign.feed");
    inner_.on_campaign_end(r);
  }

 private:
  campaign::CampaignObserver& inner_;
};

/// Counts checkpoint heads landed in `<dir>/checkpoint` from construction
/// on: a completed checkpoint write renames its temporary file onto
/// campaign.ckpt, which inotify reports as IN_MOVED_TO.
class CheckpointWrites {
 public:
  explicit CheckpointWrites(const std::string& dir) {
    const std::string ckpt = dir + "/checkpoint";
    std::filesystem::create_directories(ckpt);
    fd_ = inotify_init1(IN_NONBLOCK | IN_CLOEXEC);
    if (fd_ < 0 || inotify_add_watch(fd_, ckpt.c_str(), IN_MOVED_TO) < 0) {
      throw std::runtime_error("perfbench_trace: cannot watch " + ckpt + ": " +
                               std::strerror(errno));
    }
  }
  ~CheckpointWrites() {
    if (fd_ >= 0) close(fd_);
  }
  CheckpointWrites(const CheckpointWrites&) = delete;
  CheckpointWrites& operator=(const CheckpointWrites&) = delete;

  /// Drains the queued events; returns the heads landed so far.
  long long count() {
    alignas(inotify_event) char buf[4096];
    for (ssize_t n; (n = read(fd_, buf, sizeof buf)) > 0;) {
      for (ssize_t i = 0; i < n;) {
        const auto* ev = reinterpret_cast<const inotify_event*>(buf + i);
        if ((ev->mask & IN_Q_OVERFLOW) != 0) {
          throw std::runtime_error("perfbench_trace: inotify queue overflow");
        }
        if (ev->len > 0 && std::strcmp(ev->name, "campaign.ckpt") == 0) {
          ++writes_;
        }
        i += static_cast<ssize_t>(sizeof(inotify_event) + ev->len);
      }
    }
    return writes_;
  }

 private:
  int fd_ = -1;
  long long writes_ = 0;
};

// --- Options and matrix -----------------------------------------------------------

/// CLI defaults the workloads never override.
constexpr int kIslands = 2;
constexpr long long kMaxEvents = 50'000'000;

struct Options {
  std::string command;
  std::vector<std::string> ccas = {"reno", "cubic"};
  std::vector<std::string> modes = {"traffic"};
  std::string score = "low-utilization";
  int generations = 6;
  int population = 24;
  unsigned long long seed = 11;
  long long duration_ms = 2000;
  int winners = 3;
  int checkpoint_every = 1;
  int workers = 2;
  std::string output;
  std::string spans;
  std::string run_id = "0";
};

std::vector<std::string> split_csv(const std::string& s) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start < s.size()) {
    std::size_t comma = s.find(',', start);
    if (comma == std::string::npos) comma = s.size();
    if (comma > start) out.push_back(s.substr(start, comma - start));
    start = comma + 1;
  }
  return out;
}

bool parse_args(int argc, char** argv, Options& opt) {
  if (argc < 2) return false;
  opt.command = argv[1];
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string val = argv[i + 1];
    if (flag == "--ccas") {
      opt.ccas = split_csv(val);
    } else if (flag == "--modes") {
      opt.modes = split_csv(val);
    } else if (flag == "--score") {
      opt.score = val;
    } else if (flag == "--generations") {
      opt.generations = std::atoi(val.c_str());
    } else if (flag == "--population") {
      opt.population = std::atoi(val.c_str());
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (flag == "--duration-ms") {
      opt.duration_ms = std::atoll(val.c_str());
    } else if (flag == "--winners") {
      opt.winners = std::atoi(val.c_str());
    } else if (flag == "--checkpoint-every") {
      opt.checkpoint_every = std::atoi(val.c_str());
    } else if (flag == "--workers") {
      opt.workers = std::atoi(val.c_str());
    } else if (flag == "--output") {
      opt.output = val;
    } else if (flag == "--spans") {
      opt.spans = val;
    } else if (flag == "--run-id") {
      opt.run_id = val;
    } else {
      std::fprintf(stderr, "perfbench_trace: unknown flag %s\n", flag.c_str());
      return false;
    }
  }
  if (argc % 2 != 0) {
    std::fprintf(stderr, "perfbench_trace: every flag needs a value\n");
    return false;
  }
  return !opt.output.empty() && !opt.spans.empty() && opt.workers >= 0;
}

std::shared_ptr<const fuzz::ScoreFunction> make_score(const std::string& n) {
  if (n == "low-utilization") {
    return std::make_shared<fuzz::LowUtilizationScore>();
  }
  if (n == "low-send-rate") return std::make_shared<fuzz::LowSendRateScore>();
  throw std::invalid_argument("perfbench_trace: unsupported score " + n);
}

/// The CLI's matrix (tools/ccfuzz_main.cpp build_matrix) for the flags the
/// workloads use, with every cell wrapped in the simulation hooks.
std::vector<campaign::CellConfig> traced_cells(const Options& opt) {
  scenario::ScenarioConfig sc;
  sc.duration = TimeNs::millis(opt.duration_ms);
  sc.budget.max_events = kMaxEvents;

  fuzz::GaConfig ga;
  ga.population = opt.population;
  ga.islands = kIslands;
  ga.max_generations = opt.generations;
  ga.seed = opt.seed;

  std::vector<scenario::FuzzMode> modes;
  for (const std::string& m : opt.modes) {
    if (m == "traffic") {
      modes.push_back(scenario::FuzzMode::kTraffic);
    } else if (m == "link") {
      modes.push_back(scenario::FuzzMode::kLink);
    } else {
      throw std::invalid_argument("perfbench_trace: unknown mode " + m);
    }
  }

  campaign::CampaignConfig cfg;
  cfg.ccas(opt.ccas)
      .modes(std::move(modes))
      .base_scenario(sc)
      .score(make_score(opt.score))
      .ga(ga)
      .winners(static_cast<std::size_t>(opt.winners));
  std::vector<campaign::CellConfig> cells = cfg.cells();
  for (campaign::CellConfig& cell : cells) cell = traced_cell(std::move(cell));
  return cells;
}

std::string threads_attr() {
  const char* env = std::getenv("CCFUZZ_THREADS");
  if (env != nullptr && std::atoi(env) > 0) return env;
  return std::to_string(std::thread::hardware_concurrency());
}

// --- Commands ---------------------------------------------------------------------

/// One campaign through the public driver, as `ccfuzz run --workers 0` or a
/// `ccfuzz worker` runs it: Campaign constructor (restoring any checkpoint),
/// run(), and a timed write_report of the finished report into `dir` (same
/// bytes run() wrote). The progress feed is `stream_feed` for a shard worker,
/// else `<dir>/progress.jsonl`; either is timed as campaign.feed.
int traced_campaign(const std::vector<campaign::CellConfig>& cells,
                    const std::string& dir, int checkpoint_every,
                    campaign::JsonlObserver* stream_feed, bool console) {
  campaign::CampaignConfig cfg;
  cfg.output_dir(dir).resume_dir(dir).checkpoint_every(checkpoint_every);
  for (const campaign::CellConfig& cell : cells) cfg.add_cell(cell);

  CheckpointWrites writes(dir);
  std::optional<campaign::Campaign> campaign;
  {
    Span s("campaign.ctor");
    campaign.emplace(cfg);
    s.attr("resumed", campaign->resumed() ? 1 : 0);
  }
  std::filesystem::create_directories(dir);
  std::optional<campaign::JsonlObserver> file_feed;
  if (stream_feed == nullptr) {
    file_feed.emplace(dir + "/progress.jsonl", /*sync=*/false,
                      /*append=*/campaign->resumed());
  }
  campaign::ConsoleObserver console_obs;
  TimedObserver feed(stream_feed ? *stream_feed : *file_feed);
  MarkObserver marks;
  if (console) campaign->add_observer(&console_obs);
  campaign->add_observer(&feed);
  campaign->add_observer(&marks);

  const campaign::CampaignReport* report = nullptr;
  {
    Span s("campaign.run");
    s.attr("threads", threads_attr());
    report = &campaign->run();
    s.attr("checkpoint_writes", writes.count());
  }
  {
    Span s("campaign.write_report");
    campaign::write_report(*report, dir);
  }
  return report->interrupted ? dist::kWorkerInterruptedExit : 0;
}

/// A forked shard worker: dist::run_worker's cell selection and feed, traced.
int traced_worker(const std::vector<campaign::CellConfig>& cells,
                  const Options& opt, int shard) {
  const std::string dir =
      dist::shard_dir(opt.output, static_cast<std::uint32_t>(shard));
  std::filesystem::create_directories(dir);
  std::vector<campaign::CellConfig> mine;
  for (const campaign::CellConfig& cell : cells) {
    if (dist::ShardPlan::shard_of(cell.name, opt.workers) ==
        static_cast<std::uint32_t>(shard)) {
      mine.push_back(cell);
    }
  }
  if (mine.empty()) {
    campaign::write_report(campaign::CampaignReport{}, dir);
    return 0;
  }
  campaign::JsonlObserver jsonl(std::cout);
  jsonl.set_shard(shard);
  return traced_campaign(mine, dir, opt.checkpoint_every, &jsonl,
                         /*console=*/false);
}

int cmd_run(const Options& opt) {
  const std::vector<campaign::CellConfig> cells = traced_cells(opt);
  if (opt.workers == 0) {
    return traced_campaign(cells, opt.output, opt.checkpoint_every, nullptr,
                           /*console=*/true);
  }

  std::optional<dist::ShardPlan> plan;
  {
    Span s("dist.plan");
    plan = dist::ShardPlan::build(cells, opt.workers);
    std::filesystem::create_directories(opt.output);
    if (Error e = plan->save_file(opt.output + "/shard_plan.json")) {
      std::fprintf(stderr, "perfbench_trace: %s\n", e.message.c_str());
      return 1;
    }
  }

  // Shards run as forked children of this single-threaded process (the
  // thread pool is created lazily, inside each child).
  int failures = 0;
  {
    Span workers("dist.workers");
    struct Child {
      pid_t pid;
      int shard;
      std::int64_t start;
    };
    std::vector<Child> children;
    for (int k = 0; k < opt.workers; ++k) {
      std::fflush(nullptr);
      std::cout.flush();
      const std::int64_t start = now_ns();
      const pid_t pid = fork();
      if (pid < 0) {
        std::perror("perfbench_trace: fork");
        return 1;
      }
      if (pid == 0) {
        g_rec.clear();
        int rc = 1;
        try {
          rc = traced_worker(cells, opt, k);
        } catch (const std::exception& e) {
          std::fprintf(stderr, "perfbench_trace worker %d: %s\n", k, e.what());
        }
        std::cout.flush();
        std::fflush(nullptr);
        if (!g_rec.write(opt.spans + "." + std::to_string(k), opt.run_id)) {
          rc = 1;
        }
        std::_Exit(rc);
      }
      children.push_back({pid, k, start});
    }
    for (std::size_t reaped = 0; reaped < children.size();) {
      int status = 0;
      rusage ru{};
      const pid_t pid = wait4(-1, &status, 0, &ru);
      if (pid < 0) {
        std::perror("perfbench_trace: wait4");
        return 1;
      }
      const std::int64_t end = now_ns();
      for (const Child& c : children) {
        if (c.pid != pid) continue;
        ++reaped;
        const int rc = WIFEXITED(status) ? WEXITSTATUS(status) : 128;
        if (rc != 0) ++failures;
        const double cpu_s =
            static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
            static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) *
                1e-6;
        char attrs[128];
        std::snprintf(attrs, sizeof attrs,
                      "shard=%d;rc=%d;cpu_s=%.6f;maxrss_kb=%ld", c.shard, rc,
                      cpu_s, ru.ru_maxrss);
        g_rec.span({g_rec.new_id(), workers.id(), "dist.worker", c.start, end,
                    attrs});
      }
    }
  }
  if (failures > 0) {
    std::fprintf(stderr, "perfbench_trace: %d worker(s) failed\n", failures);
    return 1;
  }
  Span s("dist.merge");
  Result<dist::MergeStats> stats =
      dist::merge_reports(opt.output, *plan, opt.output);
  if (!stats) {
    std::fprintf(stderr, "perfbench_trace: merge: %s\n",
                 stats.error().message.c_str());
    return 1;
  }
  return 0;
}

int cmd_triage(const Options& opt) {
  const std::vector<campaign::CellConfig> cells = traced_cells(opt);
  triage::TriageConfig tcfg;
  tcfg.log = stdout;
  Span s("triage.triage_report");
  Result<triage::TriageStats> stats =
      triage::triage_report(cells, opt.output, tcfg);
  flush_unscored_sim();
  if (!stats) {
    std::fprintf(stderr, "perfbench_trace: triage: %s\n",
                 stats.error().message.c_str());
    return 1;
  }
  std::printf(
      "triage: %d candidate(s): %d confirmed, %d flaky, %d unreproduced, "
      "%d simulator bug(s); %d bundle(s) in %s/findings\n",
      stats->candidates, stats->confirmed, stats->flaky, stats->unreproduced,
      stats->simulator_bugs, stats->bundles_written, opt.output.c_str());
  s.attr("candidates", stats->candidates);
  s.attr("confirmed", stats->confirmed);
  s.attr("flaky", stats->flaky);
  s.attr("unreproduced", stats->unreproduced);
  s.attr("simulator_bugs", stats->simulator_bugs);
  s.attr("bundles", stats->bundles_written);
  s.attr("errors", stats->errors);
  return stats->errors > 0 ? 1 : 0;
}

int cmd_replay(const Options& opt) {
  const std::vector<campaign::CellConfig> cells = traced_cells(opt);
  Span s("triage.replay_findings");
  Result<triage::ReplayStats> stats =
      triage::replay_findings(cells, opt.output + "/findings", stdout);
  flush_unscored_sim();
  if (!stats) {
    std::fprintf(stderr, "perfbench_trace: replay: %s\n",
                 stats.error().message.c_str());
    return 1;
  }
  s.attr("bundles", stats->bundles);
  s.attr("ok", stats->ok);
  s.attr("drifted", stats->drifted);
  s.attr("broken", stats->broken);
  return (stats->drifted > 0 || stats->broken > 0) ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse_args(argc, argv, opt)) {
    std::fprintf(stderr,
                 "usage: perfbench_trace <run|triage|replay> --output DIR "
                 "--spans FILE [--run-id ID] [flags]\n");
    return 2;
  }
  int rc = 2;
  try {
    if (opt.command == "run") {
      rc = cmd_run(opt);
    } else if (opt.command == "triage") {
      rc = cmd_triage(opt);
    } else if (opt.command == "replay") {
      rc = cmd_replay(opt);
    } else {
      std::fprintf(stderr, "perfbench_trace: unknown command %s\n",
                   opt.command.c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_trace %s: %s\n", opt.command.c_str(),
                 e.what());
    rc = 1;
  }
  std::fflush(nullptr);
  if (!g_rec.write(opt.spans, opt.run_id)) {
    std::fprintf(stderr, "perfbench_trace: cannot write %s\n",
                 opt.spans.c_str());
    return 1;
  }
  return rc;
}
