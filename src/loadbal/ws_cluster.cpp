#include "loadbal/ws_cluster.hpp"

#include <dirent.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <limits>
#include <sstream>

#include "runtime/fault_io.hpp"
#include "runtime/trace.hpp"
#include "runtime/transport_socket.hpp"
#include "util/io_status.hpp"
#include "util/rng.hpp"

namespace pmpl::loadbal {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Each child's budget to bring up its share of the socket mesh.
constexpr double kLaunchTimeoutS = 10.0;
/// A rank's restart backoff starts here and doubles per consecutive
/// restart up to the cap.
constexpr double kRestartBackoffInitialS = 0.02;
constexpr double kRestartBackoffMaxS = 0.5;

double steady_seconds() {
  timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

double realtime_seconds() {
  timespec ts;
  clock_gettime(CLOCK_REALTIME, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

void sleep_s(double s) {
  if (s <= 0.0) return;
  timespec ts;
  ts.tv_sec = static_cast<time_t>(s);
  ts.tv_nsec = static_cast<long>((s - static_cast<double>(ts.tv_sec)) * 1e9);
  nanosleep(&ts, nullptr);
}

// --- interrupt handling -------------------------------------------------
//
// A ^C (or SIGTERM) during a cluster run used to leak the whole
// /tmp/pmpl_ws_* directory plus every child process. The handler itself
// only sets a flag (async-signal-safe by construction); the supervision
// loop polls it every millisecond and then tears the run down through the
// ordinary cleanup path — kills, reaps, file removal — before returning.

volatile sig_atomic_t g_interrupted = 0;

void on_interrupt(int) { g_interrupted = 1; }

struct InterruptScope {
  struct sigaction old_int {}, old_term {};
  InterruptScope() {
    g_interrupted = 0;
    struct sigaction sa {};
    sa.sa_handler = on_interrupt;
    sigemptyset(&sa.sa_mask);
    ::sigaction(SIGINT, &sa, &old_int);
    ::sigaction(SIGTERM, &sa, &old_term);
  }
  ~InterruptScope() {
    ::sigaction(SIGINT, &old_int, nullptr);
    ::sigaction(SIGTERM, &old_term, nullptr);
  }
};

/// Is `name` a file this harness family creates in the cluster dir?
/// Sockets ("r<digits>.sock"), result files, checkpoints, and the temp
/// names their atomic writers use.
bool is_cluster_file(const std::string& name) {
  if (name.rfind("result_", 0) == 0 || name.rfind("ckpt_", 0) == 0 ||
      name.rfind("trace_", 0) == 0)
    return true;
  if (name.size() > 1 && name[0] == 'r') {
    std::size_t i = 1;
    while (i < name.size() && name[i] >= '0' && name[i] <= '9') ++i;
    if (i > 1 && name.compare(i, std::string::npos, ".sock") == 0)
      return true;
  }
  return false;
}

/// Remove every harness file in `dir` (and the dir itself when this call
/// created it). Best-effort: called on every exit path, including the
/// interrupted one, so an aborted run leaves nothing behind.
void remove_cluster_files(const std::string& dir, bool remove_dir) {
  DIR* d = ::opendir(dir.c_str());
  if (!d) return;
  std::vector<std::string> doomed;
  while (dirent* e = ::readdir(d)) {
    const std::string name = e->d_name;
    if (name == "." || name == "..") continue;
    if (is_cluster_file(name)) doomed.push_back(name);
  }
  ::closedir(d);
  for (const std::string& name : doomed)
    ::unlink((dir + "/" + name).c_str());
  if (remove_dir) ::rmdir(dir.c_str());
}

struct CleanupGuard {
  std::string dir;
  bool created = false;
  bool armed = false;
  ~CleanupGuard() {
    if (armed && created) remove_cluster_files(dir, true);
  }
};

// --- child <-> parent result files -------------------------------------
//
// One file per incarnation, written by save_rank_result (util/state_file:
// tmp + rename, checksummed). A SIGKILLed child leaves at most a temp
// file behind, which the parent treats as "did not report" — expected for
// planned crash victims, an error for anyone else.

std::string result_path(const std::string& dir, std::uint32_t r,
                        std::uint32_t gen) {
  return dir + "/result_" + std::to_string(r) + ".g" + std::to_string(gen);
}

std::string trace_json_path(const std::string& prefix, std::uint32_t r,
                            std::uint32_t gen) {
  return prefix + ".r" + std::to_string(r) + ".g" + std::to_string(gen) +
         ".json";
}

/// The clock metadata tools/trace_merge aligns per-rank timelines on:
/// this rank's cluster epoch on CLOCK_MONOTONIC plus its hello-round-trip
/// offset estimate to every peer it dialed (null = never measured).
/// Emitted as a raw member of the trace's `otherData`.
std::string cluster_clock_json(const runtime::SocketTransport& net,
                               std::uint32_t r, std::uint32_t gen,
                               std::uint32_t p) {
  std::ostringstream os;
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", net.epoch_steady_s());
  os << "\"clusterClock\": {\"rank\": " << r << ", \"generation\": " << gen
     << ", \"epochSteadyS\": " << buf << ", \"offsets\": [";
  for (std::uint32_t q = 0; q < p; ++q) {
    if (q != 0) os << ", ";
    if (net.clock_offset_known(q)) {
      std::snprintf(buf, sizeof buf, "%.9g", net.clock_offset(q));
      os << buf;
    } else {
      os << "null";
    }
  }
  os << "]}";
  return os.str();
}

// --- fatal-signal flight-recorder flush --------------------------------
//
// A child that dies on SIGTERM/SIGSEGV/SIGABRT/SIGBUS still owns an
// in-memory trace ring worth salvaging. The handler serializes it through
// the same atomic state_file path as the periodic flight recorder, then
// re-raises with the default disposition so the exit status is unchanged.
// Snapshotting allocates, which is not async-signal-safe — acceptable
// here because the process is already dying and the write is best-effort
// (a torn fragment is rejected by its checksums, never misread). SIGKILL
// of course bypasses this; that is what the periodic writes are for.

runtime::Tracer* g_flight_tracer = nullptr;
std::string g_flight_path;
std::uint32_t g_flight_rank = 0;
std::uint32_t g_flight_gen = 0;

void on_fatal_signal(int sig) {
  ::signal(sig, SIG_DFL);
  if (g_flight_tracer != nullptr && !g_flight_path.empty()) {
    runtime::TraceSnapshot snap = runtime::snapshot_tracer(*g_flight_tracer);
    snap.rank = g_flight_rank;
    snap.generation = g_flight_gen;
    (void)runtime::save_trace_snapshot(snap, g_flight_path);
    g_flight_tracer = nullptr;
  }
  ::raise(sig);
}

[[noreturn]] void child_main(const ClusterConfig& cfg, std::uint32_t r,
                             std::uint32_t gen,
                             const std::string& restore_path,
                             const std::string& dir, double epoch) {
  // The child must not inherit the parent's interrupt bookkeeping: a ^C
  // reaches the whole group, and the children should die by default so
  // the parent's teardown only has to reap them.
  ::signal(SIGINT, SIG_DFL);
  ::signal(SIGTERM, SIG_DFL);
  runtime::Tracer tracer;
  runtime::SocketTransportConfig net_cfg;
  net_cfg.rank = r;
  net_cfg.size = cfg.ranks;
  net_cfg.dir = dir;
  net_cfg.generation = gen;
  net_cfg.dial_all = gen > 0;
  net_cfg.epoch_steady_s = epoch;
  net_cfg.connect_timeout_s = kLaunchTimeoutS;
  net_cfg.accept_timeout_s = kLaunchTimeoutS;
  // Crashes and pauses are the parent's job; children only see the
  // link/token/partition part, mapped from simulated onto wall seconds.
  net_cfg.faults = runtime::scaled_fault_plan(cfg.faults,
                                              cfg.rank.time_scale);
  net_cfg.faults.crashes.clear();
  net_cfg.faults.pauses.clear();
  if (!cfg.trace_path.empty()) {
    net_cfg.tracer = &tracer;
    net_cfg.track_name = "transport " + std::to_string(r);
    net_cfg.trace_capacity = 1 << 14;
    // Seed the flight recorder before the handshake: a rank SIGKILLed
    // while still dialing peers leaves a (nearly empty) fragment, so the
    // supervisor's salvage pass is deterministic instead of racing the
    // first in-loop flight-recorder write.
    runtime::TraceSnapshot snap = runtime::snapshot_tracer(tracer);
    snap.rank = r;
    snap.generation = gen;
    (void)runtime::save_trace_snapshot(snap,
                                       flight_recorder_path(dir, r, gen));
  }
  runtime::SocketTransport net(std::move(net_cfg));
  std::string err;
  if (!net.start(&err))
    std::fprintf(stderr, "rank %u: %s (continuing degraded)\n", r,
                 err.c_str());

  WsRankConfig rank_cfg = cfg.rank;
  rank_cfg.generation = gen;
  if (cfg.restart.enabled) {
    rank_cfg.checkpoint_dir = dir;
    rank_cfg.checkpoint_path = rank_checkpoint_path(dir, r, gen);
    rank_cfg.restore_path = restore_path;
  }
  if (!cfg.trace_path.empty()) {
    rank_cfg.tracer = &tracer;
    rank_cfg.trace_capacity =
        rank_cfg.trace_capacity ? rank_cfg.trace_capacity : 1 << 14;
    rank_cfg.flight_recorder_path = flight_recorder_path(dir, r, gen);
    g_flight_tracer = &tracer;
    g_flight_path = rank_cfg.flight_recorder_path;
    g_flight_rank = r;
    g_flight_gen = gen;
    for (const int sig : {SIGTERM, SIGSEGV, SIGABRT, SIGBUS})
      ::signal(sig, on_fatal_signal);
  }
  const WsRankResult result = run_ws_rank(net, rank_cfg);
  net.close();

  save_rank_result(result, result_path(dir, r, gen));
  if (!cfg.trace_path.empty()) {
    runtime::export_chrome_trace(
        tracer, trace_json_path(cfg.trace_path, r, gen),
        cluster_clock_json(net, r, gen, cfg.ranks));
  }
  _exit(result.superseded ? 5
        : result.fenced   ? 3
        : result.terminated ? 0
                            : 4);
}

}  // namespace

ClusterItems make_cluster_items(std::uint64_t seed, std::uint32_t n,
                                std::uint32_t p) {
  ClusterItems out;
  out.items.resize(n);
  out.initial.resize(n);
  Xoshiro256ss rng(derive_seed(seed, 0xc1a55e5ULL));
  for (std::uint32_t i = 0; i < n; ++i) {
    const double u = rng.uniform();
    out.items[i].service_s = 4e-3 + 3e-2 * u * u;  // heavy-tailed
    out.items[i].bytes = 256 + static_cast<std::uint64_t>(u * 4096.0);
    // Front-load rank 0 so the run *must* steal to balance.
    out.initial[i] = i < n / 2 ? 0 : i % p;
  }
  return out;
}

std::uint64_t region_payload_hash(std::uint64_t seed, std::uint32_t region) {
  Xoshiro256ss rng(derive_seed(seed, region));
  std::uint64_t words[4];
  for (auto& w : words) w = rng();
  return fnv1a64(words, sizeof words);
}

std::uint64_t roadmap_hash(std::uint64_t seed,
                           const std::vector<bool>& done) {
  std::uint64_t h = kFnvOffset;
  for (std::uint32_t i = 0; i < done.size(); ++i) {
    if (!done[i]) continue;
    h = fnv1a64(&i, sizeof i, h);
    const std::uint64_t payload = region_payload_hash(seed, i);
    h = fnv1a64(&payload, sizeof payload, h);
  }
  return h;
}

std::vector<bool> completed_set(const WsResult& des) {
  std::vector<bool> done(des.completion_s.size(), false);
  for (std::size_t i = 0; i < des.completion_s.size(); ++i)
    done[i] = des.completion_s[i] >= 0.0;
  return done;
}

ClusterResult run_ws_cluster(const ClusterConfig& config) {
  ClusterResult out;
  const std::uint32_t p = config.ranks;
  const std::size_t n = config.rank.items.size();
  out.ranks.resize(p);
  out.reported.assign(p, false);
  out.killed.assign(p, false);
  out.exit_codes.assign(p, -1);
  out.restarts.assign(p, 0);
  out.generations.assign(p, 0);
  out.done.assign(n, false);
  if (p == 0 || n == 0 || config.rank.initial.size() != n) {
    out.error = "bad cluster config";
    return out;
  }

  InterruptScope interrupts;
  CleanupGuard cleanup;
  std::string dir = config.dir;
  char tmpl[] = "/tmp/pmpl_ws_XXXXXX";
  if (dir.empty()) {
    if (!mkdtemp(tmpl)) {
      out.error = "mkdtemp failed";
      return out;
    }
    dir = tmpl;
    cleanup.dir = dir;
    cleanup.created = true;
    cleanup.armed = true;
  }

  // Parent-delivered fault schedules, on the wall clock.
  struct Kill {
    double at_s;
    std::uint32_t rank;
    bool fired = false;
  };
  std::vector<Kill> kills;
  for (const auto& c : config.faults.crashes)
    if (c.rank < p)
      kills.push_back({c.at_s * config.rank.time_scale, c.rank, false});
  struct PauseEv {
    double start_s, end_s;
    std::uint32_t rank;
    pid_t pid = -1;  ///< pid actually stopped (survives replacement)
    bool started = false, resumed = false;
  };
  std::vector<PauseEv> pauses;
  for (const auto& pz : config.faults.pauses)
    if (pz.rank < p)
      pauses.push_back({pz.from_s * config.rank.time_scale,
                        pz.until_s * config.rank.time_scale, pz.rank});

  // Lifecycle of each rank across its incarnations.
  struct RankState {
    pid_t pid = -1;
    std::uint32_t gen = 0;
    std::uint32_t restarts = 0;
    double forked_at = 0.0;
    double restart_at = kInf;
    double backoff = 0.0;
    double suspect_check_at = 0.0;
    bool reaped = false;
    int exit_code = -1;
    bool lifecycle_done = false;
  };
  std::vector<RankState> rs(p);
  // Superseded incarnations whose rank already has a replacement; still
  // the parent's children, so they must be reaped (and SIGCONTed if a
  // pause window left them stopped).
  struct Orphan {
    pid_t pid;
    std::uint32_t rank, gen;
    bool reaped = false;
  };
  std::vector<Orphan> orphans;

  const double epoch = steady_seconds();

  const auto newest_checkpoint = [&](std::uint32_t r,
                                     std::uint32_t below_gen) {
    for (std::uint32_t g = below_gen; g-- > 0;) {
      const std::string path = rank_checkpoint_path(dir, r, g);
      if (::access(path.c_str(), R_OK) == 0) return path;
    }
    return std::string();
  };

  const auto fork_rank = [&](std::uint32_t r, std::uint32_t gen) -> pid_t {
    const std::string restore =
        gen > 0 ? newest_checkpoint(r, gen) : std::string();
    const pid_t pid = ::fork();
    if (pid == 0) child_main(config, r, gen, restore, dir, epoch);
    return pid;
  };

  const auto kill_everything = [&] {
    for (auto& s : rs)
      if (s.pid > 0 && !s.reaped) {
        ::kill(s.pid, SIGCONT);
        ::kill(s.pid, SIGKILL);
      }
    for (auto& o : orphans)
      if (!o.reaped) {
        ::kill(o.pid, SIGCONT);
        ::kill(o.pid, SIGKILL);
      }
    for (auto& s : rs) {
      s.restart_at = kInf;
      s.lifecycle_done = true;
    }
  };

  for (std::uint32_t r = 0; r < p; ++r) {
    const pid_t pid = fork_rank(r, 0);
    if (pid < 0) {
      out.error = "fork failed";
      kill_everything();
      for (auto& s : rs)
        if (s.pid > 0) ::waitpid(s.pid, nullptr, 0);
      return out;
    }
    rs[r].pid = pid;
    rs[r].forked_at = 0.0;
  }

  // Supervision loop: fire planned kills/pauses, restart unhealthy
  // incarnations, fork replacements for suspected (stalled) ones, reap
  // everything. Exits when every rank's lifecycle is complete and every
  // incarnation — current or orphaned — has been reaped.
  bool watchdog_fired = false;
  bool interrupted = false;
  bool termination_seen = false;  ///< some incarnation exited 0
  double drain_deadline = kInf;
  const double suspect_grace =
      std::max(0.25, config.restart.suspect_after_s) + 0.25;
  while (true) {
    const double t = steady_seconds() - epoch;
    if (g_interrupted && !interrupted) {
      interrupted = true;
      out.error = "interrupted";
      kill_everything();
    }
    if (t > config.timeout_s && !watchdog_fired) {
      watchdog_fired = true;
      for (std::uint32_t r = 0; r < p; ++r)
        if (!rs[r].reaped) out.killed[r] = true;
      kill_everything();
    }
    for (auto& k : kills) {
      if (k.fired || t < k.at_s) continue;
      k.fired = true;
      if (!rs[k.rank].reaped && rs[k.rank].pid > 0) {
        ::kill(rs[k.rank].pid, SIGKILL);
        out.killed[k.rank] = true;
      }
    }
    for (auto& pz : pauses) {
      if (!pz.started && t >= pz.start_s) {
        pz.started = true;
        if (!rs[pz.rank].reaped && rs[pz.rank].pid > 0) {
          pz.pid = rs[pz.rank].pid;
          ::kill(pz.pid, SIGSTOP);
        } else {
          pz.resumed = true;  // nothing to stop
        }
      }
      if (pz.started && !pz.resumed && t >= pz.end_s) {
        pz.resumed = true;
        ::kill(pz.pid, SIGCONT);
      }
    }
    // Pending restarts.
    for (std::uint32_t r = 0; r < p; ++r) {
      auto& s = rs[r];
      if (s.lifecycle_done || !s.reaped || t < s.restart_at) continue;
      s.restart_at = kInf;
      const pid_t pid = fork_rank(r, s.gen + 1);
      if (pid < 0) {
        s.lifecycle_done = true;
        continue;
      }
      ++s.gen;
      ++s.restarts;
      s.pid = pid;
      s.reaped = false;
      s.exit_code = -1;
      s.forked_at = t;
      s.suspect_check_at = t + suspect_grace;
    }
    // Suspected-stall replacements (the deliberate-zombie path): the
    // child is alive but its checkpoint stopped advancing, so fork its
    // successor WITHOUT killing it and let the epoch fence neutralize it.
    if (config.restart.enabled && config.restart.suspect_after_s > 0.0) {
      for (std::uint32_t r = 0; r < p; ++r) {
        auto& s = rs[r];
        if (s.lifecycle_done || s.reaped || t < s.suspect_check_at ||
            s.restarts >= config.restart.max_restarts ||
            t - s.forked_at < suspect_grace)
          continue;
        s.suspect_check_at = t + 0.01;
        struct stat st {};
        const std::string path = rank_checkpoint_path(dir, r, s.gen);
        const bool stale =
            ::stat(path.c_str(), &st) != 0 ||
            realtime_seconds() - (static_cast<double>(st.st_mtim.tv_sec) +
                                  static_cast<double>(st.st_mtim.tv_nsec) *
                                      1e-9) >
                config.restart.suspect_after_s;
        if (!stale) continue;
        const pid_t pid = fork_rank(r, s.gen + 1);
        if (pid < 0) continue;
        orphans.push_back({s.pid, r, s.gen});
        ++s.gen;
        ++s.restarts;
        s.pid = pid;
        s.exit_code = -1;
        s.forked_at = t;
        s.suspect_check_at = t + suspect_grace;
      }
    }
    // Reap.
    int status = 0;
    const pid_t done_pid = ::waitpid(-1, &status, WNOHANG);
    if (done_pid > 0) {
      const int code = WIFEXITED(status)    ? WEXITSTATUS(status)
                       : WIFSIGNALED(status) ? 128 + WTERMSIG(status)
                                             : -2;
      bool matched = false;
      for (std::uint32_t r = 0; r < p && !matched; ++r) {
        auto& s = rs[r];
        if (s.reaped || s.pid != done_pid) continue;
        matched = true;
        s.reaped = true;
        s.exit_code = code;
        if (code == 0) termination_seen = true;
        if (code == 5) ++out.zombies_fenced;
        // Once any rank exited terminated, the run is globally done — a
        // rank that merely wedged (exit 4) is a straggler of a finished
        // run, not worth re-forking. A SIGKILLed rank still gets its
        // replacement so its directory is reported.
        const bool restartable = code != 0 && config.restart.enabled &&
                                 s.restarts < config.restart.max_restarts &&
                                 !watchdog_fired && !interrupted &&
                                 (code >= 128 || !termination_seen);
        if (restartable) {
          s.backoff = s.backoff == 0.0
                          ? kRestartBackoffInitialS
                          : std::min(s.backoff * 2.0, kRestartBackoffMaxS);
          s.restart_at = t + s.backoff;
        } else {
          s.lifecycle_done = true;
        }
      }
      for (auto& o : orphans) {
        if (matched) break;
        if (o.reaped || o.pid != done_pid) continue;
        matched = true;
        o.reaped = true;
        // A superseded orphan is neutralized either by the epoch fence
        // (exit 5) or by draining a buffered death notice naming its own
        // stale generation (exit 3) — both are the zombie exiting cleanly
        // instead of corrupting the directory.
        if (code == 3 || code == 5) ++out.zombies_fenced;
      }
      continue;  // immediately try to reap more
    }
    // Done? Every lifecycle complete and every incarnation reaped.
    bool all_done = true;
    for (const auto& s : rs)
      if (!s.lifecycle_done || !s.reaped) all_done = false;
    if (all_done) {
      bool orphans_left = false;
      for (const auto& o : orphans)
        if (!o.reaped) orphans_left = true;
      if (!orphans_left) break;
      // Drain stragglers: wake any stopped zombie so it can fence itself;
      // after a grace period, put it down.
      if (drain_deadline == kInf) {
        drain_deadline = t + 3.0;
        for (const auto& o : orphans)
          if (!o.reaped) ::kill(o.pid, SIGCONT);
      } else if (t > drain_deadline) {
        for (const auto& o : orphans)
          if (!o.reaped) ::kill(o.pid, SIGKILL);
      }
    }
    sleep_s(1e-3);
  }
  if (watchdog_fired && out.error.empty())
    out.error = "watchdog: cluster run timed out";

  // Collect what each rank's final incarnation reported. Exit codes 0/3/
  // 4/5 write a result before exiting; a signaled child (SIGKILL) leaves
  // none, which is only acceptable for planned victims.
  out.ok = !watchdog_fired && !interrupted;
  out.terminated_all = true;
  for (std::uint32_t r = 0; r < p; ++r) {
    out.exit_codes[r] = rs[r].exit_code;
    out.generations[r] = rs[r].gen;
    out.restarts[r] = rs[r].restarts;
    IoStatus status = IoStatus::kOk;
    auto res = load_rank_result(result_path(dir, r, rs[r].gen), r,
                                rs[r].gen, &status);
    if (!res) {
      // A kill can race the write; only survivors must parse.
      if (!out.killed[r]) {
        out.ok = false;
        if (out.error.empty())
          out.error = "rank " + std::to_string(r) + ": " +
                      (status == IoStatus::kOpenFailed ? "no result file"
                                                       : to_string(status));
      }
      continue;
    }
    out.ranks[r] = std::move(*res);
    out.reported[r] = true;
  }

  for (std::uint32_t r = 0; r < p; ++r) {
    if (!out.reported[r]) {
      if (!out.killed[r]) out.terminated_all = false;
      continue;
    }
    const WsRankResult& res = out.ranks[r];
    // A fenced rank was (falsely or not) declared dead; its directory
    // still counts, but it is not required to have seen termination.
    if (!res.terminated && !res.fenced && !out.killed[r])
      out.terminated_all = false;
    for (std::size_t i = 0; i < res.done.size() && i < n; ++i)
      if (res.done[i]) out.done[i] = true;
    out.steal_requests += res.steal_requests;
    out.steal_grants += res.steal_grants;
    out.steal_denies += res.steal_denies;
    out.regions_migrated += res.regions_migrated;
    out.regions_recovered += res.regions_recovered;
    out.grant_retransmits += res.grant_retransmits;
    out.deaths_detected += res.deaths_detected;
    out.executed_total += res.executed.size();
  }
  out.all_done =
      std::all_of(out.done.begin(), out.done.end(), [](bool b) { return b; });
  out.roadmap = roadmap_hash(config.rank.seed, out.done);

  // Salvage: any incarnation that died without exporting a live trace
  // (SIGKILL, watchdog, fatal mid-run) may have left a flight-recorder
  // fragment. Export each as the same .r<r>.g<g>.json the ranks write,
  // with a synthetic "supervisor" track whose "salvage" instant marks the
  // fragment as post-mortem (corr identifies the dead incarnation).
  if (!config.trace_path.empty()) {
    for (std::uint32_t r = 0; r < p; ++r) {
      for (std::uint32_t g = 0; g <= rs[r].gen; ++g) {
        const std::string json = trace_json_path(config.trace_path, r, g);
        if (::access(json.c_str(), R_OK) == 0) continue;  // exported live
        auto snap =
            runtime::load_trace_snapshot(flight_recorder_path(dir, r, g));
        if (!snap) continue;  // died before its first fragment (or corrupt)
        double t_end = 0.0;
        for (const auto& trk : snap->tracks)
          for (const auto& e : trk.events) t_end = std::max(t_end, e.t);
        runtime::TraceSnapshot::Track sup;
        sup.name = "supervisor";
        sup.total = 1;
        runtime::TraceSnapshot::Event ev;
        ev.t = t_end;
        ev.arg = r;
        ev.arg2 = runtime::trace_corr(r, g, 1);
        ev.name_ix = snap->intern("salvage");
        ev.type = runtime::TraceType::kInstant;
        sup.events.push_back(ev);
        snap->tracks.push_back(std::move(sup));
        std::ostringstream cc;
        cc << "\"clusterClock\": {\"rank\": " << r << ", \"generation\": "
           << g << ", \"salvaged\": true}";
        if (runtime::export_chrome_trace(*snap, json, cc.str()))
          out.traces_salvaged.push_back(json);
      }
    }
  }

  // Clean the dir if this call created it; the guard also covers early
  // returns and the interrupted path.
  if (cleanup.created) {
    cleanup.armed = false;
    remove_cluster_files(dir, true);
  }
  return out;
}

}  // namespace pmpl::loadbal
