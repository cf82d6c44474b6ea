#include "loadbal/ws_rank.hpp"

#include <time.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <map>
#include <set>
#include <type_traits>

#include "runtime/metrics_registry.hpp"
#include "util/rng.hpp"
#include "util/state_file.hpp"

namespace pmpl::loadbal {

namespace {

using runtime::Frame;
using runtime::FrameType;

constexpr double kInf = std::numeric_limits<double>::infinity();

/// kGrantAck with this grant id acknowledges a kTerminate instead.
constexpr std::uint64_t kTerminateAck = ~0ull;
/// kGrantAck with this grant id acknowledges one token hop (c = round).
constexpr std::uint64_t kTokenAck = ~1ull;

/// Identity of the workload + protocol config a checkpoint belongs to; a
/// restarted incarnation refuses to resume from a different setup.
std::uint64_t config_fingerprint(const WsRankConfig& cfg, std::uint32_t p) {
  std::uint64_t key[5] = {cfg.seed, cfg.items.size(), p,
                          static_cast<std::uint64_t>(cfg.policy),
                          (std::uint64_t(cfg.steal_max_items) << 32) |
                              cfg.rand_k};
  return fnv1a64(key, sizeof key);
}

void put_bitmap(std::vector<char>& out, const std::vector<bool>& v) {
  for (bool b : v) out.push_back(b ? 1 : 0);
}

bool take_bitmap(StateReader& r, std::size_t n, std::vector<bool>& v) {
  if (r.left < n) {
    r.ok = false;
    return false;
  }
  v.assign(n, false);
  for (std::size_t i = 0; i < n; ++i) {
    char c = 0;
    r.take(&c, 1);
    v[i] = c != 0;
  }
  return r.ok;
}

/// Every u64 counter of a WsRankResult (const or not), in file order. The
/// first kCheckpointedCounters are the ones a RankCheckpoint persists.
template <class Result>
auto result_counters(Result& r) {
  auto& t = r.transport;
  return std::array{
      &r.local_tasks,       &r.stolen_tasks,     &r.steal_requests,
      &r.steal_grants,      &r.steal_denies,     &r.regions_migrated,
      &r.token_rounds,      &r.steal_retries,    &r.grant_retransmits,
      &r.regions_recovered, &r.heartbeat_probes, &r.heartbeat_misses,
      &r.deaths_detected,   &r.tokens_regenerated,
      &r.stale_frames_rejected, &r.checkpoints_written, &r.rejoin_syncs,
      &t.frames_sent,       &t.frames_received,  &t.frames_dropped,
      &t.frames_delayed,    &t.bytes_sent,       &t.bytes_received,
      &t.reconnects,        &t.connect_retries,  &t.send_timeouts,
      &t.frames_stale};
}
constexpr std::size_t kCheckpointedCounters =
    std::extent_v<decltype(RankCheckpoint::counters)>;

void sleep_s(double s) {
  if (s <= 0.0) return;
  timespec ts;
  ts.tv_sec = static_cast<time_t>(s);
  ts.tv_nsec = static_cast<long>((s - static_cast<double>(ts.tv_sec)) * 1e9);
  nanosleep(&ts, nullptr);
}

/// A FIFO of region ids that also pops from the back (grants leave from
/// the back of the victim's queue): a vector plus a head cursor. A
/// std::deque would allocate ~600 B per rank up front, which the DES pays
/// once per simulated rank.
class RegionQueue {
 public:
  bool empty() const noexcept { return head_ == v_.size(); }
  std::size_t size() const noexcept { return v_.size() - head_; }
  auto begin() const noexcept { return v_.begin() + head_; }
  auto end() const noexcept { return v_.end(); }
  void assign(std::vector<std::uint32_t> v) noexcept {
    v_ = std::move(v);
    head_ = 0;
  }
  void push_back(std::uint32_t x) {
    if (head_ > 32 && head_ * 2 > v_.size()) {  // reclaim the popped front
      v_.erase(v_.begin(), v_.begin() + head_);
      head_ = 0;
    }
    v_.push_back(x);
  }
  std::uint32_t pop_front() noexcept { return reset_if_empty(v_[head_++]); }
  std::uint32_t pop_back() noexcept {
    const std::uint32_t x = v_.back();
    v_.pop_back();
    return reset_if_empty(x);
  }

 private:
  std::uint32_t reset_if_empty(std::uint32_t x) noexcept {
    if (empty()) {
      v_.clear();
      head_ = 0;
    }
    return x;
  }
  std::vector<std::uint32_t> v_;
  std::size_t head_ = 0;
};

/// Queue entries carry whether the region arrived by a grant (it then
/// counts as a stolen task where it executes) in their top bit; region
/// ids stay below the kDirSync tag bits.
constexpr std::uint32_t kStolenBit = 0x80000000u;

/// The termination token's payload: unacked-grant count, black flag,
/// round generation (kToken's a/b/c).
struct Token {
  std::uint64_t count = 0;
  bool black = false;
  std::uint64_t gen = 0;
};

}  // namespace

WsTimers WsTimers::wall_clock() {
  WsTimers t;
  t.steal_timeout_s = 0.05;
  t.grant_timeout_s = 0.05;
  t.token_retry_s = 0.05;
  t.heartbeat_period_s = 0.025;
  t.heartbeat_misses = 8;
  t.token_regen_initial_s = 0.4;
  t.token_regen_max_s = 8.0;
  t.backoff_initial_s = 2e-3;
  t.backoff_max_s = 0.05;
  t.pace_min_s = t.pace_max_s = 0.01;
  t.rejoin_timeout_s = 0.6;
  t.rejoin_retransmit_s = 0.05;
  t.checkpoint_period_s = 0.05;
  t.flight_record_period_s = 0.2;
  return t;
}

WsTimers WsTimers::virtual_time(const runtime::ClusterSpec& cluster,
                                const runtime::FaultPlan& faults,
                                std::uint32_t p) {
  const double remote = cluster.remote_latency_s;
  WsTimers t;
  // A short RPC-style timeout: long enough that control messages never
  // time out spuriously on a healthy link, far shorter than a region's
  // service time. A request parked at a busy victim may time out and be
  // retried elsewhere — wasteful but correct (the late grant is still
  // applied; its settled request is simply stale).
  t.steal_timeout_s = std::max(256.0 * remote, 1e-3);
  t.grant_timeout_s = t.steal_timeout_s;
  t.token_retry_s = std::max(64.0 * remote, 1e-4);
  t.heartbeat_period_s = std::max(64.0 * remote, 1e-4);
  // Three consecutive misses on a clean link. Under a lossy plan the
  // threshold scales so the per-window false-positive probability stays
  // ~1e-9 across ~1e5 probe windows — otherwise fencing would slowly
  // execute the whole cluster. A targeted drop_prob=1 link still fences
  // after the floor.
  t.heartbeat_misses = 3;
  double max_drop = 0.0;
  for (const auto& l : faults.links) max_drop = std::max(max_drop, l.drop_prob);
  const double p_lost_rt = 1.0 - (1.0 - max_drop) * (1.0 - max_drop);
  if (p_lost_rt > 0.0 && p_lost_rt < 1.0)
    t.heartbeat_misses = std::max(
        t.heartbeat_misses,
        static_cast<std::uint32_t>(std::ceil(-9.0 / std::log10(p_lost_rt))));
  // Keyed to an *idle* ring transit, not to the longest region: a token
  // legitimately parked at a busy rank may be regenerated spuriously,
  // which merely costs an extra round.
  t.token_regen_initial_s =
      std::max(32.0 * static_cast<double>(p) * remote, 1e-3);
  t.token_regen_max_s = kInf;
  t.backoff_initial_s = 5e-6;
  t.backoff_max_s = 1e-2;
  t.pace_min_s = 16.0 * remote;
  t.pace_max_s = 1e-2;
  t.pace_frac = 0.02;
  t.rejoin_timeout_s = t.rejoin_retransmit_s = kInf;  // no restarts
  t.checkpoint_period_s = t.flight_record_period_s = kInf;
  return t;
}

/// One rank's view of the protocol; see the header for the contract.
class WsRank::Core {
 public:
  Core(WsLink& link, std::uint32_t rank, std::uint32_t p,
       const WsRankConfig& cfg, const WsTimers& tm, bool resilient,
       std::vector<std::uint32_t> queue)
      : link_(link), cfg_(cfg), tm_(tm), p_(p), me_(rank),
        policy_(cfg.policy, p, cfg.rand_k),
        rng_(derive_seed(cfg.seed, 0xa11c0de ^ rank)) {
    queue_.assign(std::move(queue));
    if (resilient) {
      fs_ = std::make_unique<FaultState>();
      fs_->owner.assign(cfg_.initial.begin(), cfg_.initial.end());
      fs_->done.assign(cfg_.items.size(), false);
      fs_->death_known.assign(p_, false);
      fs_->peer_gen.assign(p_, 0);
    }
    result_.rank = me_;
    result_.generation = cfg_.generation;
    if (cfg_.tracer)
      trace_ = cfg_.tracer->track(
          cfg_.trace_prefix + "rank " + std::to_string(me_),
          cfg_.trace_capacity);
  }

  void start() {
    const double now = link_.now();
    last_activity_ = now;
    if (fs_) {
      fs_->regen_timeout = tm_.token_regen_initial_s;
      fs_->hb_at = now + tm_.heartbeat_period_s *
                             (static_cast<double>(me_ + 1) /
                              static_cast<double>(p_));
      if (!cfg_.checkpoint_path.empty())
        fs_->ckpt_at = now + tm_.checkpoint_period_s;
      if (!cfg_.flight_recorder_path.empty() && cfg_.tracer)
        fs_->flight_at = now;
      fs_->fingerprint = config_fingerprint(cfg_, p_);
      if (!cfg_.restore_path.empty()) restore();
      // Namespace this incarnation's request/grant ids above every
      // earlier incarnation's, so a zombie's grant id can never collide
      // with a fresh one in a peer's dedup set.
      const std::uint64_t floor_id =
          (static_cast<std::uint64_t>(cfg_.generation) << 32) + 1;
      next_req_id_ = std::max(next_req_id_, floor_id);
      next_grant_id_ = std::max(next_grant_id_, floor_id);
      if (cfg_.generation > 0) begin_rejoin(now);
    }
    settle();
  }

  // --- driver entry points ----------------------------------------------

  void on_frame(const Frame& f) {
    if (stopped()) return;
    handle(f);
    settle();
  }

  void on_timer(double now) {
    if (stopped()) return;
    if (fs_) {
      // Steal-request timeouts: treat silence as a deny.
      for (std::size_t i = 0; i < fs_->reqs.size();) {
        if (fs_->reqs[i].deadline > now) {
          ++i;
          continue;
        }
        fs_->reqs[i] = fs_->reqs.back();
        fs_->reqs.pop_back();
        ++result_.steal_retries;
        resolve_deny();
      }
      for (auto& [gid, g] : ledger_) {
        if (g.retransmit_at > now || fs_->death_known[g.thief]) continue;
        ++result_.grant_retransmits;
        transmit_grant(gid, g);
      }
      if (now >= fs_->hb_at) hb_tick();
      if (stopped()) return;
      if (fs_->tok_retry_at <= now) retry_token();
      if (leader() == me_ && round_active_ && now >= fs_->regen_at) {
        // The round's token vanished (it died with a rank, or a lossy
        // link ate it past the hop retries): abandon and re-initiate.
        ++result_.tokens_regenerated;
        round_active_ = false;
        fs_->regen_timeout =
            std::min(fs_->regen_timeout * 2.0, tm_.token_regen_max_s);
        pace_at_ = now;
      }
      if (fs_->rejoining) rejoin_timer(now);
    }
    if (retry_at_ <= now) {
      retry_at_ = kInf;
      if (idle() && outstanding_ == 0) {
        stage_ = 0;
        issue_requests();
      }
    }
    if (fs_ && now >= fs_->ckpt_at) save_checkpoint();
    // After (never before) the checkpoint write, so a salvaged fragment
    // never describes work the durable state has not caught up to.
    if (fs_ && now >= fs_->flight_at) save_flight_record();
    settle();
  }

  double next_wakeup() const {
    if (stopped()) return kInf;
    double t = retry_at_;
    if (leader() == me_ && !round_active_ && idle() && pace_at_ > link_.now())
      t = std::min(t, pace_at_);
    if (!fs_) return t;
    t = std::min({t, fs_->hb_at, fs_->tok_retry_at, fs_->ckpt_at,
                  fs_->flight_at});
    for (const auto& r : fs_->reqs) t = std::min(t, r.deadline);
    for (const auto& [gid, g] : ledger_)
      if (!fs_->death_known[g.thief]) t = std::min(t, g.retransmit_at);
    if (leader() == me_ && round_active_) t = std::min(t, fs_->regen_at);
    if (fs_->rejoining)
      t = std::min({t, fs_->rejoin_deadline, fs_->rejoin_resend_at});
    return t;
  }

  std::optional<std::uint32_t> start_region() {
    if (busy_ || stopped() || rejoining() || queue_.empty())
      return std::nullopt;
    while (!queue_.empty()) {
      const std::uint32_t entry = queue_.pop_front();
      const std::uint32_t item = entry & ~kStolenBit;
      idle_entered_ = false;
      // Completed elsewhere meanwhile, or migrated away by the rejoin
      // reconciliation — either way no longer this rank's to run.
      if (is_done(item) || (fs_ && fs_->owner[item] != me_)) continue;
      busy_ = true;
      cur_ = entry;
      if (trace_) {
        trace_->counter_at("queue", link_.now(), queue_.size());
        trace_->begin_at("region", link_.now(), item);
      }
      return item;
    }
    settle();
    return std::nullopt;
  }

  bool finish_region(double busy_s) {
    busy_ = false;
    const std::uint32_t item = cur_ & ~kStolenBit;
    if (trace_) trace_->end_at("region", link_.now(), item);
    if (stopped()) return false;
    bool committed = false;
    if (!is_done(item)) {  // else a peer completed it first: their ledger
      result_.busy_s += busy_s;
      committed = complete(item, (cur_ & kStolenBit) != 0);
    }
    if (stopped()) return committed;
    serve_parked();
    feed_lifelines();
    settle();
    return committed;
  }

  bool region_cancelled() const {
    return busy_ && is_done(cur_ & ~kStolenBit);
  }

  void halt() {
    if (trace_) {
      if (busy_) trace_->end_at("region", link_.now(), cur_ & ~kStolenBit);
      trace_->instant_at("crash", link_.now());
    }
    busy_ = false;
    halted_ = true;
  }

  bool busy() const { return busy_; }
  bool stopped() const {
    return terminated_ || fenced_ || superseded_ || halted_;
  }
  bool declared() const { return declared_; }
  bool known_dead(std::uint32_t r) const { return dead(r); }
  double last_activity() const { return last_activity_; }
  runtime::TraceBuffer* trace() const { return trace_; }
  const WsRankResult& result() const { return result_; }

  WsRankResult finish() {
    result_.finish_s = link_.now();
    if (fs_) result_.done = fs_->done;
    // Every exit flushes the flight recorder unthrottled — the black box
    // the post-mortem reads when the process is about to disappear.
    if (fs_ && !cfg_.flight_recorder_path.empty() && cfg_.tracer) {
      fs_->flight_at = -kInf;
      save_flight_record();
    }
    return std::move(result_);
  }

 private:
  struct InFlight {
    std::uint32_t thief = 0;
    std::uint64_t req_id = 0;
    std::vector<std::uint32_t> items;
    double retransmit_at = 0.0;
    double timeout = 0.0;
  };
  struct PendingRequest {
    std::uint64_t id = 0;
    double deadline = 0.0;
  };

  /// The failure machinery's state, allocated only when resilient (a
  /// fault-free DES replay carries none of it per simulated rank).
  struct FaultState {
    // Replicated region directory, peer liveness and incarnations.
    std::vector<std::uint32_t> owner;
    std::vector<bool> done;
    std::vector<bool> death_known;
    std::vector<std::uint32_t> peer_gen;  ///< newest gen seen per peer
    std::vector<PendingRequest> reqs;     ///< requests awaiting a reply
    std::set<std::uint64_t> seen_grants;  ///< dedupe (victim, gid)
    std::uint32_t hb_target = 0;
    std::uint32_t hb_misses = 0;
    std::uint64_t hb_seq = 0;
    std::uint64_t hb_acked = 0;
    double hb_at = kInf;
    Token tok_out;  ///< last token hop sent, until acked
    std::uint32_t tok_to = 0;
    double tok_retry_at = kInf;
    double regen_at = kInf;
    double regen_timeout = 0.0;
    // Restart/rejoin state (DESIGN.md §5i).
    std::uint64_t fingerprint = 0;
    bool rejoining = false;
    double ckpt_at = kInf;
    double flight_at = kInf;  ///< next flight-recorder write (throttle)
    double rejoin_deadline = kInf;
    double rejoin_resend_at = kInf;
    std::vector<bool> rejoin_replied;
    std::set<std::uint32_t> rejoin_claimed;  ///< pending, owned elsewhere
    std::set<std::uint32_t> rejoin_yours;    ///< peers credit them to me
  };

  bool dead(std::uint32_t r) const {
    return fs_ && fs_->death_known[r];
  }
  bool is_done(std::uint32_t item) const {
    return fs_ && fs_->done[item];
  }
  bool rejoining() const { return fs_ && fs_->rejoining; }
  bool idle() const { return !busy_ && queue_.empty() && !rejoining(); }

  /// Idle bookkeeping after every input: start stealing on entering
  /// idleness, pass on a held token, and (as leader) start a round.
  void settle() {
    if (stopped() || !idle()) return;
    if (!idle_entered_) {
      idle_entered_ = true;
      on_become_idle();
      if (stopped() || !idle()) return;
    }
    maybe_process_token();
    if (!stopped() && leader() == me_ && !round_active_ &&
        link_.now() >= pace_at_)
      initiate_round();
  }

  // --- durability (DESIGN.md §5i) --------------------------------------

  /// Is `item` inside any unacked outgoing grant? Such regions are the
  /// thief's problem (ack) or the reclaim path's (death) — never queued
  /// or claimed directly.
  bool in_ledger(std::uint32_t item) const {
    for (const auto& [gid, g] : ledger_)
      if (std::find(g.items.begin(), g.items.end(), item) != g.items.end())
        return true;
    return false;
  }

  void restore() {
    auto c = load_rank_checkpoint(cfg_.restore_path);
    if (!c || c->fingerprint != fs_->fingerprint || c->rank != me_ ||
        c->owner.size() != fs_->owner.size() || c->death_known.size() != p_)
      return;  // fresh start; the rejoin sync rebuilds the view
    rng_.set_state(c->rng_state);
    fs_->owner = c->owner;
    fs_->done = c->done;
    fs_->death_known = c->death_known;
    fs_->death_known[me_] = false;  // that fence died with the old one
    fs_->peer_gen = c->peer_gen;
    std::vector<std::uint32_t> q;
    for (const std::uint32_t item : c->queue)
      q.push_back(item | (c->stolen[item] ? kStolenBit : 0));
    queue_.assign(std::move(q));
    result_.executed = c->executed;
    for (const RankGrantRecord& g : c->ledger) {
      InFlight fl;
      fl.thief = g.thief;
      fl.req_id = g.req_id;
      fl.items = g.items;
      fl.timeout = tm_.grant_timeout_s;
      fl.retransmit_at = 0.0;  // retransmit immediately
      ledger_.emplace(g.grant_id, std::move(fl));
    }
    fs_->seen_grants.insert(c->seen_grants.begin(), c->seen_grants.end());
    next_req_id_ = c->next_req_id;
    next_grant_id_ = c->next_grant_id;
    result_.busy_s = c->busy_s;
    const auto counters = result_counters(result_);
    for (std::size_t i = 0; i < kCheckpointedCounters; ++i)
      *counters[i] = c->counters[i];
    // Self-heal: a region the directory credits to this rank that is in
    // neither the restored queue nor the grant ledger was in flight at
    // the crash (typically mid-execution); re-queue it.
    std::vector<bool> queued(fs_->owner.size(), false);
    for (const std::uint32_t e : queue_) queued[e & ~kStolenBit] = true;
    for (std::size_t i = 0; i < fs_->owner.size(); ++i)
      if (fs_->owner[i] == me_ && !fs_->done[i] && !queued[i] &&
          !in_ledger(static_cast<std::uint32_t>(i)))
        queue_.push_back(static_cast<std::uint32_t>(i));
    result_.restored = true;
  }

  void save_checkpoint() {
    if (!fs_ || cfg_.checkpoint_path.empty()) return;
    RankCheckpoint c;
    c.rank = me_;
    c.generation = cfg_.generation;
    c.fingerprint = fs_->fingerprint;
    rng_.state(c.rng_state);
    c.stolen.assign(fs_->owner.size(), false);
    for (const std::uint32_t e : queue_) {
      c.queue.push_back(e & ~kStolenBit);
      if (e & kStolenBit) c.stolen[e & ~kStolenBit] = true;
    }
    c.owner = fs_->owner;
    c.done = fs_->done;
    c.death_known = fs_->death_known;
    c.peer_gen = fs_->peer_gen;
    c.executed = result_.executed;
    c.ledger.reserve(ledger_.size());
    for (const auto& [gid, g] : ledger_)
      c.ledger.push_back({g.thief, gid, g.req_id, g.items});
    c.seen_grants.assign(fs_->seen_grants.begin(), fs_->seen_grants.end());
    c.next_req_id = next_req_id_;
    c.next_grant_id = next_grant_id_;
    c.busy_s = result_.busy_s;
    const auto counters = result_counters(result_);
    for (std::size_t i = 0; i < kCheckpointedCounters; ++i)
      c.counters[i] = *counters[i];
    if (save_rank_checkpoint(c, cfg_.checkpoint_path))
      ++result_.checkpoints_written;
    fs_->ckpt_at = link_.now() + tm_.checkpoint_period_s;
    if (link_.now() >= fs_->flight_at) save_flight_record();
  }

  /// Persist the whole trace ring (every track of the attached tracer)
  /// through the atomic state_file container, throttled by
  /// flight_record_period_s; a SIGKILL loses at most that much trace.
  void save_flight_record() {
    fs_->flight_at = link_.now() + tm_.flight_record_period_s;
    if (cfg_.flight_recorder_path.empty() || !cfg_.tracer) {
      fs_->flight_at = kInf;
      return;
    }
    runtime::TraceSnapshot snap = runtime::snapshot_tracer(*cfg_.tracer);
    snap.rank = me_;
    snap.generation = cfg_.generation;
    (void)runtime::save_trace_snapshot(snap, cfg_.flight_recorder_path);
  }

  /// Read the dead rank's newest durable checkpoint (when a shared
  /// checkpoint directory is configured) and merge its completed-region
  /// bits before anything is reclaimed or re-homed: a completion whose
  /// kRegionDone broadcast was cut short by the crash must not be
  /// re-executed. The ring successor re-broadcasts what it learned so
  /// every directory converges.
  void merge_peer_checkpoint(std::uint32_t d) {
    if (cfg_.checkpoint_dir.empty()) return;
    std::optional<RankCheckpoint> best;
    for (std::uint32_t g = 0; g <= fs_->peer_gen[d] + 4; ++g) {
      auto c = load_rank_checkpoint(
          rank_checkpoint_path(cfg_.checkpoint_dir, d, g));
      if (c && c->fingerprint == fs_->fingerprint && c->rank == d &&
          c->done.size() == fs_->done.size() &&
          (!best || c->generation >= best->generation))
        best = std::move(c);
    }
    if (!best) return;
    std::vector<std::uint32_t> learned;
    for (std::size_t i = 0; i < fs_->done.size(); ++i)
      if (best->done[i] && !fs_->done[i]) {
        fs_->done[i] = true;
        learned.push_back(static_cast<std::uint32_t>(i));
      }
    if (learned.empty()) return;
    if (next_known_alive(d) == me_) {
      Frame f;
      f.type = FrameType::kRegionDone;
      for (const std::uint32_t item : learned) {
        f.a = item;
        broadcast(f);
      }
    }
  }

  // --- restart / rejoin (DESIGN.md §5i) --------------------------------

  void begin_rejoin(double now) {
    fs_->rejoining = true;
    my_black_ = true;  // this incarnation's arrival invalidates any round
    // Durable ground truth before asking anyone: every completion is
    // checkpointed *before* its kRegionDone broadcast, so the union of
    // every peer's newest on-disk checkpoint covers every completed
    // region — even when the whole mesh finished and exited while this
    // incarnation was being forked. Without it, a rejoiner reviving into
    // a dead cluster rebuilds its queue from a stale directory and
    // re-executes regions that are already done (benign for the roadmap
    // hash, fatal for the zero-duplicate-execution guarantee).
    for (std::uint32_t r = 0; r < p_; ++r)
      if (r != me_) merge_peer_checkpoint(r);
    fs_->rejoin_deadline = now + tm_.rejoin_timeout_s;
    fs_->rejoin_resend_at = now;
    fs_->rejoin_replied.assign(p_, false);
    fs_->rejoin_replied[me_] = true;
    if (trace_) trace_->instant_at("rejoin", now, cfg_.generation);
  }

  /// Rejoin timers: reconcile once every live peer replied or the
  /// deadline passed; otherwise retransmit kRejoin to the silent ones.
  void rejoin_timer(double now) {
    bool all = true;
    for (std::uint32_t r = 0; r < p_; ++r)
      if (!fs_->rejoin_replied[r] && !fs_->death_known[r]) all = false;
    if (all || now >= fs_->rejoin_deadline) {
      finalize_rejoin();
      return;
    }
    if (now < fs_->rejoin_resend_at) return;
    fs_->rejoin_resend_at = now + tm_.rejoin_retransmit_s;
    Frame f;
    f.type = FrameType::kRejoin;
    f.a = cfg_.generation;
    for (std::size_t i = 0; i < fs_->done.size(); ++i)
      if (fs_->done[i]) f.items.push_back(static_cast<std::uint32_t>(i));
    for (std::uint32_t r = 0; r < p_; ++r)
      if (r != me_ && !fs_->rejoin_replied[r] && !fs_->death_known[r])
        send(r, f);
  }

  /// Rebuild the queue under the synchronized directory: drop regions the
  /// peers claimed or completed, adopt regions their directories still
  /// credit to this rank (covers a lost checkpoint), and re-queue anything
  /// the restored directory credits here that went missing.
  void finalize_rejoin() {
    fs_->rejoining = false;
    for (const std::uint32_t i : fs_->rejoin_yours)
      if (!fs_->done[i] && fs_->rejoin_claimed.count(i) == 0)
        fs_->owner[i] = me_;
    std::vector<std::uint32_t> q;
    std::vector<bool> queued(fs_->owner.size(), false);
    for (const std::uint32_t e : queue_) {
      const std::uint32_t item = e & ~kStolenBit;
      if (fs_->done[item] || fs_->owner[item] != me_ || queued[item]) continue;
      queued[item] = true;
      q.push_back(e);
    }
    for (std::size_t i = 0; i < fs_->owner.size(); ++i) {
      const auto item = static_cast<std::uint32_t>(i);
      if (fs_->owner[i] == me_ && !fs_->done[i] && !queued[i] &&
          !in_ledger(item))
        q.push_back(item);
    }
    queue_.assign(std::move(q));
    fs_->rejoin_claimed.clear();
    fs_->rejoin_yours.clear();
    my_black_ = true;
    idle_entered_ = false;
    last_activity_ = link_.now();
    if (trace_) trace_->counter_at("queue", link_.now(), queue_.size());
    save_checkpoint();
  }

  // --- execution --------------------------------------------------------

  bool complete(std::uint32_t item, bool stolen) {
    if (fs_) {
      fs_->done[item] = true;
      fs_->owner[item] = me_;
    }
    last_activity_ = link_.now();
    // Durability before visibility: once any peer hears this kRegionDone,
    // a restarted incarnation must never report the region undone.
    save_checkpoint();
    // Freeze fence, between the durable write and the ledger claim: if
    // peers declared this rank dead off the *pre*-completion checkpoint
    // and re-homed the region, claiming it now would put it in two final
    // ledgers. Once the renamed checkpoint records the done bit, a
    // death-merge sees it and nobody re-homes, so the claim below is safe
    // wherever a later freeze lands.
    link_.fence();
    if (stopped()) return false;
    result_.executed.push_back(item);
    if (stolen)
      ++result_.stolen_tasks;
    else
      ++result_.local_tasks;
    if (fs_) {
      Frame f;
      f.type = FrameType::kRegionDone;
      f.a = item;
      broadcast(f);
    }
    return true;
  }

  // --- stealing ---------------------------------------------------------

  void on_become_idle() {
    stage_ = 0;
    backoff_ = tm_.backoff_initial_s;
    failed_rounds_ = 0;  // fresh idleness: probe again
    retry_at_ = kInf;
    if (outstanding_ == 0) issue_requests();
  }

  void issue_requests() {
    if (stopped() || !idle()) return;
    auto victims = policy_.victims(me_, stage_, rng_);
    if (fs_)
      victims.erase(std::remove_if(victims.begin(), victims.end(),
                                   [this](std::uint32_t v) {
                                     return fs_->death_known[v];
                                   }),
                    victims.end());
    if (victims.empty()) {
      retry_later();
      return;
    }
    outstanding_ += static_cast<std::uint32_t>(victims.size());
    for (const std::uint32_t v : victims) {
      ++result_.steal_requests;
      const std::uint64_t req_id = next_req_id_++;
      if (trace_) {
        // Request ids are per-incarnation counters, so their low bits +
        // our (rank, generation) make the steal-flow correlation id; the
        // victim recomputes the same id from the frame fields.
        const auto corr = runtime::trace_corr(me_, cfg_.generation, req_id);
        trace_->instant_at("steal_req", link_.now(), v, corr);
        trace_->flow_start_at("steal", link_.now(), corr, v);
      }
      if (fs_)
        fs_->reqs.push_back({req_id, link_.now() + tm_.steal_timeout_s});
      Frame f;
      f.type = FrameType::kStealRequest;
      f.a = req_id;
      send(v, f);  // a failed send resolves via the timeout
    }
  }

  void retry_later() {
    retry_at_ = link_.now() + backoff_;
    backoff_ = std::min(backoff_ * 2.0, tm_.backoff_max_s);
  }

  /// A request was answered empty (or timed out): when the whole round
  /// came back empty, escalate, back off, or give up probing.
  void resolve_deny() {
    if (outstanding_ > 0) --outstanding_;
    if (outstanding_ == 0 && idle()) {
      if (stage_ + 1 < policy_.stages()) {
        ++stage_;
        issue_requests();
        return;
      }
      ++failed_rounds_;
      if (policy_.kind() == StealPolicyKind::kLifeline)
        return;  // registered on the victims' lifelines; wait for a push
      if (failed_rounds_ < cfg_.give_up_after) retry_later();
    }
  }

  /// Settle request `id` (reply or timeout, whichever first). Without
  /// timeouts every reply settles; with them, false means it already
  /// timed out and the reply is stale.
  bool settle_request(std::uint64_t id) {
    if (!fs_) return true;
    for (auto& r : fs_->reqs)
      if (r.id == id) {
        r = fs_->reqs.back();
        fs_->reqs.pop_back();
        return true;
      }
    return false;
  }

  /// How many regions a grant may take from the back of the queue: up to
  /// steal_max_items, never more than half (the front is what this rank
  /// runs next) — except the last queued region of a rank that is busy
  /// anyway, when `allow_last`.
  std::size_t grant_size(bool allow_last) const {
    const std::size_t n =
        std::min<std::size_t>(cfg_.steal_max_items, queue_.size() / 2);
    return n == 0 && allow_last && queue_.size() == 1 && busy_ ? 1 : n;
  }

  std::vector<std::uint32_t> take_grant(std::size_t n) {
    std::vector<std::uint32_t> grant(n);
    for (auto& item : grant) item = queue_.pop_back() & ~kStolenBit;
    return grant;
  }

  void serve(std::uint32_t thief, std::uint64_t req_id) {
    if (dead(thief)) return;
    if (const std::size_t n = grant_size(true)) {
      send_grant(thief, req_id, take_grant(n));
      return;
    }
    ++result_.steal_denies;
    if (trace_) trace_->instant_at("deny", link_.now(), thief);
    if (policy_.kind() == StealPolicyKind::kLifeline &&
        std::find(lifeline_waiters_.begin(), lifeline_waiters_.end(),
                  thief) == lifeline_waiters_.end())
      lifeline_waiters_.push_back(thief);
    Frame f;
    f.type = FrameType::kDeny;
    f.a = req_id;
    send(thief, f);  // lost deny: the thief's timeout resolves it
  }

  /// A grant stays in the ledger until acked: its regions count on the
  /// termination token meanwhile, and (when resilient) it is
  /// retransmitted on a doubling timeout, so loss delays but never
  /// destroys it.
  void send_grant(std::uint32_t thief, std::uint64_t req_id,
                  std::vector<std::uint32_t> grant) {
    ++result_.steal_grants;
    result_.regions_migrated += grant.size();
    const std::uint64_t gid = next_grant_id_++;
    if (trace_) {
      // Grant ids are per-incarnation like request ids, so the same corr
      // construction works; the thief completes the flow when it
      // *applies* the grant (dedup-filtered), not merely when bytes land.
      const auto corr = runtime::trace_corr(me_, cfg_.generation, gid);
      trace_->instant_at("grant", link_.now(), thief, corr);
      trace_->flow_start_at("grant", link_.now(), corr, thief);
    }
    InFlight g;
    g.thief = thief;
    g.req_id = req_id;
    g.items = std::move(grant);
    g.timeout = tm_.grant_timeout_s;
    auto it = ledger_.emplace(gid, std::move(g)).first;
    transmit_grant(gid, it->second);
  }

  void transmit_grant(std::uint64_t gid, InFlight& g) {
    Frame f;
    f.type = FrameType::kGrant;
    f.a = gid;
    f.b = g.req_id;
    f.items = g.items;
    send(g.thief, f);
    if (!fs_) return;
    g.retransmit_at = link_.now() + g.timeout;
    g.timeout = std::min(g.timeout * 2.0, 16.0 * tm_.grant_timeout_s);
  }

  /// Lifeline mode: with surplus queued work, push grants to registered
  /// waiters at this communication point.
  void feed_lifelines() {
    if (policy_.kind() != StealPolicyKind::kLifeline) return;
    while (!lifeline_waiters_.empty() && queue_.size() >= 2) {
      const std::uint32_t waiter = lifeline_waiters_.back();
      lifeline_waiters_.pop_back();
      if (dead(waiter)) continue;
      const std::size_t n = grant_size(false);
      if (n == 0) break;
      send_grant(waiter, /*req_id=*/0, take_grant(n));
    }
  }

  /// Steal requests that arrived mid-region: a rank progresses
  /// communication only between regions (STAPL RMI polls at scheduling
  /// points), so they are served when the region completes.
  void serve_parked() {
    if (parked_.empty()) return;
    const auto parked = std::move(parked_);
    parked_.clear();
    for (const auto& [thief, req_id] : parked) serve(thief, req_id);
  }

  void on_grant(const Frame& f) {
    // Ack every copy (the first ack may have been lost); apply only the
    // first (the retransmit ledger makes duplicates routine, and a
    // double-applied grant would execute regions twice unconditionally).
    Frame ack;
    ack.type = FrameType::kGrantAck;
    ack.a = f.a;
    send(f.from, ack);
    // Grant ids are generation-namespaced (high 32 bits), so the victim
    // rank must occupy bits above that to keep the key collision-free.
    if (fs_ &&
        !fs_->seen_grants
             .insert((static_cast<std::uint64_t>(f.from) << 48) ^ f.a)
             .second)
      return;
    // First application of this grant: close the victim's grant flow here
    // (retransmitted copies were deduped above, so the arrow lands once).
    if (trace_)
      trace_->flow_end_at("grant", link_.now(),
                          runtime::trace_corr(f.from, f.gen, f.a), f.from);
    if (f.b != 0) {  // settle the originating request unless lifeline push
      if (settle_request(f.b) && outstanding_ > 0) --outstanding_;
      stage_ = 0;
      backoff_ = tm_.backoff_initial_s;
      failed_rounds_ = 0;
    }
    std::uint64_t took = 0;
    for (const std::uint32_t item : f.items) {
      if (item >= cfg_.items.size() || is_done(item)) continue;
      if (fs_) fs_->owner[item] = me_;
      queue_.push_back(item | kStolenBit);
      ++took;
    }
    if (took == 0) return;
    my_black_ = true;  // new work: the current round must not terminate
    idle_entered_ = false;
    if (fs_) {
      Frame upd;
      upd.type = FrameType::kOwnerUpdate;
      upd.b = me_;
      upd.items.assign(f.items.begin(), f.items.end());
      broadcast(upd);
    }
    if (trace_) {
      trace_->instant_at("migrate_in", link_.now(), f.items.size());
      trace_->counter_at("queue", link_.now(), queue_.size());
    }
  }

  // --- heartbeats and death -------------------------------------------

  std::uint32_t pred_known_alive(std::uint32_t rank) const {
    std::uint32_t pred = (rank + p_ - 1) % p_;
    while (pred != rank && dead(pred)) pred = (pred + p_ - 1) % p_;
    return pred;
  }

  std::uint32_t next_known_alive(std::uint32_t rank) const {
    std::uint32_t next = (rank + 1) % p_;
    while (next != rank && dead(next)) next = (next + 1) % p_;
    return next;
  }

  /// Lowest rank not announced dead: round head, may declare termination.
  std::uint32_t leader() const {
    std::uint32_t l = 0;
    while (l < p_ && dead(l)) ++l;
    return l == p_ ? me_ : l;
  }

  /// Probe the ring predecessor. Heartbeats are answered whatever the
  /// rank is doing, so only silence — a crash, or a link eating every
  /// probe (fenced below) — counts as a miss.
  void hb_tick() {
    fs_->hb_at = link_.now() + tm_.heartbeat_period_s;
    if (p_ < 2) return;
    const std::uint32_t target = pred_known_alive(me_);
    if (target == me_) return;  // last announced-alive rank
    if (target != fs_->hb_target) {
      // Ring shifted under us; start a fresh probe history.
      fs_->hb_target = target;
      fs_->hb_misses = 0;
      fs_->hb_acked = fs_->hb_seq;
    }
    if (fs_->hb_seq > fs_->hb_acked) {
      ++fs_->hb_misses;
      ++result_.heartbeat_misses;
      if (trace_) trace_->instant_at("hb_miss", link_.now(), target);
      if (fs_->hb_misses >= tm_.heartbeat_misses &&
          !fs_->death_known[target]) {
        ++result_.deaths_detected;
        announce_death(target);
        return;
      }
    } else {
      fs_->hb_misses = 0;
    }
    ++fs_->hb_seq;
    ++result_.heartbeat_probes;
    Frame f;
    f.type = FrameType::kHbProbe;
    f.a = fs_->hb_seq;
    send(target, f);
  }

  void announce_death(std::uint32_t d) {
    Frame f;
    f.type = FrameType::kDeathNotice;
    f.a = d;
    // The suspect's newest known generation rides along so a *replacement*
    // incarnation (strictly newer gen) can ignore a notice that names only
    // its dead predecessor.
    f.b = fs_->peer_gen[d];
    // Including the suspect itself: a false positive must fence, so no
    // region ever has two live owners.
    for (std::uint32_t r = 0; r < p_; ++r)
      if (r != me_ && !fs_->death_known[r]) send(r, f);
    handle_death(d);
  }

  void handle_death(std::uint32_t d) {
    if (d >= p_ || fs_->death_known[d]) return;
    if (d == me_) {
      fenced_ = true;
      result_.fenced = true;
      if (trace_) trace_->instant_at("fenced", link_.now());
      return;
    }
    fs_->death_known[d] = true;
    last_activity_ = link_.now();
    if (trace_) trace_->instant_at("death_known", link_.now(), d);
    merge_peer_checkpoint(d);
    // Reclaim unacked grants this rank sent to the dead thief: they may
    // never have arrived. (If they did arrive, the successor scan below —
    // run by whichever rank owns that duty — may re-home them again off
    // the directory; double execution of a deterministic region is
    // benign, an orphaned region is not.)
    std::uint64_t reclaimed = 0;
    for (auto it = ledger_.begin(); it != ledger_.end();) {
      if (it->second.thief != d) {
        ++it;
        continue;
      }
      for (const std::uint32_t item : it->second.items)
        if (!fs_->done[item]) {
          queue_.push_back(item);
          fs_->owner[item] = me_;
          ++reclaimed;
        }
      it = ledger_.erase(it);
    }
    if (fs_->tok_to == d && fs_->tok_retry_at < kInf)
      fs_->tok_retry_at = link_.now();
    if (reclaimed > 0) rehome_done(d, reclaimed);
    // Ring-successor recovery: the first announced-alive rank after d
    // re-homes every region the directory still credits to d.
    if (next_known_alive(d) == me_) {
      std::vector<std::uint32_t> rehomed;
      for (std::size_t i = 0; i < fs_->owner.size(); ++i)
        if (fs_->owner[i] == d && !fs_->done[i]) {
          fs_->owner[i] = me_;
          queue_.push_back(static_cast<std::uint32_t>(i));
          rehomed.push_back(static_cast<std::uint32_t>(i));
        }
      if (!rehomed.empty()) {
        rehome_done(d, rehomed.size());
        Frame f;
        f.type = FrameType::kOwnerUpdate;
        f.b = me_;
        f.items = std::move(rehomed);
        broadcast(f);
      }
    }
    // An in-flight round is now unsound; the leader's regeneration timer
    // (or its own next idle) restarts detection over the repaired ring.
    if (leader() == me_)
      pace_at_ = std::min(pace_at_, link_.now() + tm_.pace_max_s);
  }

  /// Regions of dead rank `d` came home here (reclaimed grants or the
  /// successor scan): this rank is active again, so the current round
  /// must not certify quiescence.
  void rehome_done(std::uint32_t d, std::size_t n) {
    result_.regions_recovered += n;
    my_black_ = true;
    idle_entered_ = false;
    // The post-mortem analyzer pairs this with the death_known instant to
    // measure recovery latency (arg = dead rank, corr = regions home).
    if (trace_) {
      trace_->instant_at("rehome", link_.now(), d,
                         static_cast<std::uint32_t>(n));
      trace_->counter_at("queue", link_.now(), queue_.size());
    }
    link_.rehomed(d, n);
  }

  // --- termination ------------------------------------------------------

  std::uint64_t unacked() const { return ledger_.size(); }

  double pace() const {
    return std::clamp(tm_.pace_frac * link_.now(), tm_.pace_min_s,
                      tm_.pace_max_s);
  }

  void initiate_round() {
    round_active_ = true;
    ++result_.token_rounds;
    token_gen_ = std::max(token_gen_, seen_gen_) + 1;
    seen_gen_ = token_gen_;
    if (fs_) fs_->regen_at = link_.now() + fs_->regen_timeout;
    my_black_ = false;
    const std::uint32_t next = next_known_alive(me_);
    if (next == me_) {
      // Ring of one (everyone else dead, or p == 1): the end-of-round
      // check is local.
      round_active_ = false;
      if (unacked() == 0 && link_.pending() == 0)
        declare();
      else
        pace_at_ = link_.now() + pace();
      return;
    }
    send_token(next, Token{0, false, token_gen_});
  }

  /// Forward a token, skipping peers already known unreachable (a send
  /// into a dead process fails fast). When resilient the hop is reliable:
  /// it is retransmitted until the receiver acks it — a lossy ring of p
  /// hops would otherwise complete a round with probability (1-q)^p, and
  /// end-to-end regeneration alone could never terminate.
  void send_token(std::uint32_t to, Token tok) {
    for (std::uint32_t tries = 0; tries < p_; ++tries) {
      if (trace_) trace_->instant_at("token", link_.now(), to);
      Frame f;
      f.type = FrameType::kToken;
      f.a = tok.count;
      f.b = tok.black ? 1 : 0;
      f.c = tok.gen;
      if (send(to, f)) {
        if (fs_) {
          fs_->tok_out = tok;
          fs_->tok_to = to;
          fs_->tok_retry_at = link_.now() + tm_.token_retry_s;
        }
        return;
      }
      // The hop is unreachable but not yet declared dead: its state is
      // unknown (it may be restarting with work still queued), so this
      // round must not certify quiescence. Blacken before skipping.
      tok.black = true;
      const std::uint32_t next = next_known_alive(to);
      if (next == to || next == me_) break;  // nowhere left to forward
      to = next;
    }
    if (fs_) fs_->tok_retry_at = kInf;
  }

  void retry_token() {
    fs_->tok_retry_at = kInf;
    if (fs_->tok_out.gen < seen_gen_) return;  // a newer round superseded it
    if (fs_->death_known[fs_->tok_to]) {
      fs_->tok_out.black = true;  // the ring changed under this round
      const std::uint32_t next = next_known_alive(me_);
      if (next == me_) return;
      fs_->tok_to = next;
    }
    send_token(fs_->tok_to, fs_->tok_out);
  }

  void on_token(const Frame& f) {
    if (fs_) {  // ack every copy; the first ack may have been lost
      Frame ack;
      ack.type = FrameType::kGrantAck;
      ack.a = kTokenAck;
      ack.c = f.c;
      send(f.from, ack);
    }
    // Stale round, or a retransmitted copy of one already passed on.
    if (f.c < seen_gen_ || f.c <= fwd_gen_) return;
    if (!has_held_token_ || f.c >= held_token_.gen) {
      held_token_ = Token{f.a, f.b != 0, f.c};
      has_held_token_ = true;
    }
  }

  void maybe_process_token() {
    // Wait for everything already readable: a grant queued behind this
    // token must blacken us before the token moves on (the no-in-flight
    // property the unacked-count scheme relies on).
    if (!has_held_token_ || !idle() || link_.pending() > 0) return;
    has_held_token_ = false;
    process_token(held_token_);
  }

  void process_token(const Token& tok) {
    if (tok.gen < seen_gen_) return;  // stale round
    seen_gen_ = tok.gen;
    if (leader() == me_) {
      if (!round_active_ || tok.gen != token_gen_) return;  // stale
      round_active_ = false;
      if (fs_) fs_->regen_timeout = tm_.token_regen_initial_s;  // passable
      const bool black = tok.black || my_black_;
      if (!black && tok.count + unacked() == 0 && link_.pending() == 0) {
        declare();
        return;
      }
      pace_at_ = link_.now() + pace();
      return;
    }
    Token t = tok;
    t.count += unacked();
    t.black = t.black || my_black_;
    my_black_ = false;
    fwd_gen_ = tok.gen;
    send_token(next_known_alive(me_), t);
  }

  /// Global termination detected here. Telling the others is the
  /// driver's job (the wall-clock driver runs an acked kTerminate
  /// broadcast; the DES stops the clock).
  void declare() {
    terminated_ = true;
    declared_ = true;
    result_.terminated = true;
    if (trace_) trace_->instant_at("terminate", link_.now());
  }

  // --- frame dispatch ---------------------------------------------------

  void handle(const Frame& f) {
    if (f.from >= p_ || f.from == me_) return;
    if (f.type == FrameType::kEpochFence) {
      // A peer's transport refused this incarnation's handshake because a
      // newer one exists: stand down without touching the directory.
      if (f.a > cfg_.generation) {
        superseded_ = true;
        result_.superseded = true;
        if (trace_) trace_->instant_at("superseded", link_.now(), f.a);
      }
      return;
    }
    if (fs_) {
      if (f.gen < fs_->peer_gen[f.from]) {
        // Zombie fence: an older incarnation of the peer is still talking
        // (in-flight bytes from a connection its replacement displaced).
        ++result_.stale_frames_rejected;
        return;
      }
      fs_->peer_gen[f.from] = f.gen;
      last_activity_ = link_.now();
    }
    switch (f.type) {
      case FrameType::kHello:
      case FrameType::kEpochFence:  // handled above
        return;
      case FrameType::kStealRequest:
        // Head of the thief's steal-flow arrow: the request reached its
        // victim (whether it is then served, parked or denied).
        if (trace_)
          trace_->flow_end_at("steal", link_.now(),
                              runtime::trace_corr(f.from, f.gen, f.a),
                              f.from);
        if (rejoining()) {
          // The queue is under reconciliation; granting from it could
          // migrate a region a peer is about to claim.
          Frame d;
          d.type = FrameType::kDeny;
          d.a = f.a;
          send(f.from, d);
        } else if (busy_) {
          parked_.emplace_back(f.from, f.a);
        } else {
          serve(f.from, f.a);
        }
        return;
      case FrameType::kDeny:
        if (settle_request(f.a)) resolve_deny();
        return;
      case FrameType::kGrant:
        on_grant(f);
        return;
      case FrameType::kGrantAck:
        if (f.a == kTokenAck) {
          if (fs_ && f.c == fs_->tok_out.gen && f.from == fs_->tok_to)
            fs_->tok_retry_at = kInf;
        } else if (f.a != kTerminateAck && ledger_.erase(f.a) > 0) {
          // The thief holds the work now; it may have been visited by the
          // current round before the grant landed, so this round must not
          // certify quiescence (the ack-counting analogue of Safra's
          // receive-blackening).
          my_black_ = true;
        }
        return;
      case FrameType::kHbProbe: {
        Frame ack;
        ack.type = FrameType::kHbAck;
        ack.a = f.a;
        send(f.from, ack);
        return;
      }
      case FrameType::kHbAck:
        if (fs_ && f.from == fs_->hb_target && f.a > fs_->hb_acked)
          fs_->hb_acked = f.a;
        return;
      case FrameType::kToken:
        on_token(f);
        return;
      case FrameType::kDeathNotice: {
        if (!fs_) return;
        const auto suspect = static_cast<std::uint32_t>(f.a);
        if (suspect >= p_) return;
        const auto suspect_gen = static_cast<std::uint32_t>(f.b);
        if (suspect == me_) {
          // A notice naming a strictly older incarnation is about the
          // predecessor this process replaced, not about it.
          if (suspect_gen >= cfg_.generation)
            handle_death(me_);
          else
            ++result_.stale_frames_rejected;
          return;
        }
        if (suspect_gen < fs_->peer_gen[suspect]) {
          ++result_.stale_frames_rejected;  // corpse already superseded
          return;
        }
        handle_death(suspect);
        return;
      }
      case FrameType::kOwnerUpdate:
        if (!fs_) return;
        for (const std::uint32_t item : f.items)
          if (item < fs_->owner.size() && !fs_->done[item])
            fs_->owner[item] = static_cast<std::uint32_t>(f.b);
        return;
      case FrameType::kRegionDone:
        if (fs_ && f.a < fs_->done.size())
          fs_->done[static_cast<std::size_t>(f.a)] = true;
        return;
      case FrameType::kTerminate: {
        Frame ack;
        ack.type = FrameType::kGrantAck;
        ack.a = kTerminateAck;
        send(f.from, ack);
        terminated_ = true;
        result_.terminated = true;
        if (trace_) trace_->instant_at("terminate", link_.now());
        return;
      }
      case FrameType::kRejoin:
        if (fs_) on_rejoin(f);
        return;
      case FrameType::kDirSync:
        if (fs_) on_dir_sync(f);
        return;
    }
  }

  /// A replacement incarnation of f.from is announcing itself: resurrect
  /// it, merge the done set it restored, and answer with this rank's
  /// directory view.
  void on_rejoin(const Frame& f) {
    if (fs_->death_known[f.from]) {
      fs_->death_known[f.from] = false;
      if (trace_) trace_->instant_at("resurrect", link_.now(), f.from);
    }
    for (const std::uint32_t item : f.items)
      if (item < fs_->done.size()) fs_->done[item] = true;
    my_black_ = true;  // membership changed: the current round is void
    Frame r;
    r.type = FrameType::kDirSync;
    r.a = f.a;
    r.b = fs_->rejoining ? 1 : 0;
    for (std::size_t i = 0; i < fs_->done.size(); ++i) {
      const auto item = static_cast<std::uint32_t>(i);
      if (fs_->done[i])
        r.items.push_back(item);
      else if (fs_->owner[i] == me_ && !in_ledger(item))
        r.items.push_back(item | runtime::kDirSyncClaimBit);
      else if (fs_->owner[i] == f.from)
        r.items.push_back(item | runtime::kDirSyncYoursBit);
    }
    send(f.from, r);
  }

  void on_dir_sync(const Frame& f) {
    if (!fs_->rejoining || f.a != cfg_.generation) return;
    ++result_.rejoin_syncs;
    fs_->rejoin_replied[f.from] = true;
    const bool live_responder = f.b == 0;
    for (const std::uint32_t e : f.items) {
      const std::uint32_t item =
          e & ~(runtime::kDirSyncClaimBit | runtime::kDirSyncYoursBit);
      if (item >= fs_->done.size()) continue;
      if ((e & runtime::kDirSyncClaimBit) != 0) {
        // A rejoining responder claims from a restored (possibly stale)
        // directory; break symmetric claims by rank so exactly one
        // incarnation keeps a disputed region. A live responder's claim
        // is authoritative.
        if (!fs_->done[item] && (live_responder || f.from < me_)) {
          fs_->owner[item] = f.from;
          fs_->rejoin_claimed.insert(item);
        }
      } else if ((e & runtime::kDirSyncYoursBit) != 0) {
        fs_->rejoin_yours.insert(item);
      } else {
        fs_->done[item] = true;
      }
    }
    rejoin_timer(link_.now());  // reconcile as soon as everyone answered
  }

  // --- plumbing ---------------------------------------------------------

  /// Stamp `f` as this rank's frame to `to` and hand it to the link.
  bool send(std::uint32_t to, Frame& f) {
    f.from = me_;
    f.to = to;
    f.gen = cfg_.generation;
    return link_.send(f);
  }

  void broadcast(Frame f) {
    for (std::uint32_t r = 0; r < p_; ++r)
      if (r != me_ && !dead(r)) send(r, f);
  }

  // Hot per-frame state first, so a steal request or deny touches few
  // cache lines of a rank (the DES keeps thousands of ranks).
  WsLink& link_;
  const WsRankConfig& cfg_;
  const WsTimers& tm_;
  const std::uint32_t p_;
  const std::uint32_t me_;
  bool busy_ = false;
  bool terminated_ = false;
  bool declared_ = false;
  bool fenced_ = false;
  bool superseded_ = false;
  bool halted_ = false;
  bool idle_entered_ = false;
  bool my_black_ = false;
  bool round_active_ = false;
  bool has_held_token_ = false;
  std::uint32_t cur_ = 0;            ///< running queue entry (while busy_)
  std::uint32_t outstanding_ = 0;    ///< replies still expected
  std::uint32_t stage_ = 0;
  std::uint32_t failed_rounds_ = 0;  ///< consecutive fully-denied rounds
  RegionQueue queue_;
  std::unique_ptr<FaultState> fs_;  ///< null unless resilient
  double backoff_ = 0.0;
  double retry_at_ = kInf;
  double pace_at_ = 0.0;
  std::uint64_t next_req_id_ = 1;  ///< 0 is the lifeline-push sentinel
  std::uint64_t next_grant_id_ = 1;
  StealPolicy policy_;
  Xoshiro256ss rng_;
  runtime::TraceBuffer* trace_ = nullptr;
  std::uint64_t token_gen_ = 0;  ///< last round this leader initiated
  std::uint64_t seen_gen_ = 0;   ///< freshest generation seen anywhere
  std::uint64_t fwd_gen_ = 0;    ///< newest generation passed on
  Token held_token_;

  std::vector<std::pair<std::uint32_t, std::uint64_t>> parked_;
  std::vector<std::uint32_t> lifeline_waiters_;
  std::map<std::uint64_t, InFlight> ledger_;  ///< unacked grants out
  double last_activity_ = 0.0;

  WsRankResult result_;
};

WsRank::WsRank(WsLink& link, std::uint32_t rank, std::uint32_t p,
               const WsRankConfig& cfg, const WsTimers& timers,
               bool resilient, std::vector<std::uint32_t> queue)
    : core_(std::make_unique<Core>(link, rank, p, cfg, timers, resilient,
                                   std::move(queue))) {}
WsRank::~WsRank() = default;
WsRank::WsRank(WsRank&&) noexcept = default;
WsRank& WsRank::operator=(WsRank&&) noexcept = default;

void WsRank::start() { core_->start(); }
void WsRank::on_frame(const Frame& f) { core_->on_frame(f); }
void WsRank::on_timer(double now) { core_->on_timer(now); }
double WsRank::next_wakeup() const { return core_->next_wakeup(); }
std::optional<std::uint32_t> WsRank::start_region() {
  return core_->start_region();
}
bool WsRank::finish_region(double busy_s) {
  return core_->finish_region(busy_s);
}
bool WsRank::region_cancelled() const { return core_->region_cancelled(); }
void WsRank::halt() { core_->halt(); }
bool WsRank::busy() const { return core_->busy(); }
bool WsRank::stopped() const { return core_->stopped(); }
bool WsRank::declared() const { return core_->declared(); }
bool WsRank::known_dead(std::uint32_t r) const { return core_->known_dead(r); }
double WsRank::last_activity() const { return core_->last_activity(); }
runtime::TraceBuffer* WsRank::trace() const { return core_->trace(); }
const WsRankResult& WsRank::result() const { return core_->result(); }
WsRankResult WsRank::finish() { return core_->finish(); }

namespace {

/// The wall-clock driver: one core over a real Transport. Executes a
/// region in slices, polling between them, so heartbeats are answered
/// and steal requests parked while the rank is "busy".
class WallDriver final : public WsLink {
 public:
  WallDriver(runtime::Transport& net, const WsRankConfig& cfg)
      : net_(net), cfg_(cfg), timers_(WsTimers::wall_clock()),
        core_(*this, net.rank(), net.size(), cfg, timers_, true,
              initial_queue(cfg, net.rank())) {}
  WallDriver(const WallDriver&) = delete;  // the core holds `this`
  WallDriver& operator=(const WallDriver&) = delete;

  WsRankResult run() {
    last_poll_ = net_.now();
    core_.start();
    while (!core_.stopped()) {
      if (cfg_.run_timeout_s > 0.0 &&
          net_.now() - core_.last_activity() > cfg_.run_timeout_s)
        break;  // liveness backstop: report non-termination, don't hang
      if (const auto item = core_.start_region()) {
        execute(*item);
        continue;
      }
      drain(std::clamp(core_.next_wakeup() - net_.now(), 0.0, kIdlePollS));
      core_.on_timer(net_.now());
    }
    if (core_.declared()) broadcast_terminate();
    WsRankResult result = core_.finish();
    result.transport = net_.metrics();
    return result;
  }

  double now() const override { return net_.now(); }
  bool send(const Frame& f) override { return net_.send(f.to, f); }
  std::size_t pending() const override { return net_.pending(); }
  void fence() override {
    if (net_.now() - last_poll_ <= timers_.heartbeat_period_s) return;
    drain(0.0);
    core_.on_timer(net_.now());
  }

 private:
  /// Longest execution chunk between polls, and the longest idle wait.
  static constexpr double kSliceS = 2e-3;
  static constexpr double kIdlePollS = 0.01;

  static std::vector<std::uint32_t> initial_queue(const WsRankConfig& cfg,
                                                  std::uint32_t rank) {
    std::vector<std::uint32_t> q;
    for (std::size_t i = 0; i < cfg.initial.size(); ++i)
      if (cfg.initial[i] == rank) q.push_back(static_cast<std::uint32_t>(i));
    return q;
  }

  void execute(std::uint32_t item) {
    const double dur = cfg_.items[item].service_s * cfg_.time_scale;
    double elapsed = 0.0;
    while (elapsed < dur && !core_.stopped() && !core_.region_cancelled()) {
      const double chunk = std::min(kSliceS, dur - elapsed);
      sleep_s(chunk);
      elapsed += chunk;
      // Poll between slices: answer heartbeats, run timers, park steals.
      drain(0.0);
      core_.on_timer(net_.now());
    }
    // One last poll before the completion becomes ledger. A SIGSTOP that
    // lands between the final slice and the commit otherwise commits the
    // region on resume without ever observing what arrived during the
    // freeze — a death notice naming this rank (it must fence, not
    // complete), or a kRegionDone for this very region from the successor
    // that re-homed it off our stale checkpoint (completing too would put
    // the region in two final ledgers).
    drain(0.0);
    core_.finish_region(dur);
  }

  /// Receive and handle frames for up to `wait` seconds (0 = one
  /// non-blocking pass).
  void drain(double wait) {
    Frame f;
    const bool got = net_.recv(f, wait);
    last_poll_ = net_.now();
    if (!got) return;
    core_.on_frame(f);
    while (net_.recv(f, 0.0)) core_.on_frame(f);
  }

  /// Acked completion broadcast: retransmit to silent peers so a lossy
  /// link cannot strand a rank in its idle loop until the backstop.
  void broadcast_terminate() {
    const std::uint32_t p = net_.size(), me = net_.rank();
    std::vector<bool> settled(p, false);
    for (std::uint32_t r = 0; r < p; ++r)
      settled[r] = r == me || core_.known_dead(r);
    Frame f;
    f.type = FrameType::kTerminate;
    f.from = me;
    f.gen = cfg_.generation;
    const double deadline = net_.now() + 2.0;
    double next_send = 0.0;
    while (net_.now() < deadline &&
           !std::all_of(settled.begin(), settled.end(),
                        [](bool b) { return b; })) {
      if (net_.now() >= next_send) {
        for (std::uint32_t r = 0; r < p; ++r)
          if (!settled[r]) {
            f.to = r;
            net_.send(r, f);
          }
        next_send = net_.now() + 0.02;
      }
      Frame in;
      if (!net_.recv(in, 0.005) || in.from >= p) continue;
      // Everything else is moot: the work is done.
      if (in.type == FrameType::kGrantAck && in.a == kTerminateAck)
        settled[in.from] = true;
      else if (in.type == FrameType::kDeathNotice && in.a < p && in.a != me)
        settled[in.a] = true;
    }
  }

  runtime::Transport& net_;
  const WsRankConfig& cfg_;
  const WsTimers timers_;
  WsRank core_;
  double last_poll_ = 0.0;  ///< when the socket was last looked at
};

}  // namespace

std::string rank_checkpoint_path(const std::string& dir, std::uint32_t rank,
                                 std::uint32_t gen) {
  return dir + "/ckpt_" + std::to_string(rank) + ".g" + std::to_string(gen);
}

std::string flight_recorder_path(const std::string& dir, std::uint32_t rank,
                                 std::uint32_t gen) {
  return dir + "/trace_" + std::to_string(rank) + ".g" + std::to_string(gen);
}

bool save_rank_checkpoint(const RankCheckpoint& c, const std::string& path) {
  StateBlob blob;
  blob.kind = kStateKindWsRank;
  blob.fingerprint = c.fingerprint;
  blob.seed = 0;
  blob.meta0 = c.rank;
  blob.meta1 = c.generation;
  auto& out = blob.payload;
  for (std::uint64_t w : c.rng_state) put_u64(out, w);
  const auto n = static_cast<std::uint32_t>(c.owner.size());
  const auto p = static_cast<std::uint32_t>(c.death_known.size());
  put_u32(out, n);
  for (std::uint32_t o : c.owner) put_u32(out, o);
  put_bitmap(out, c.done);
  put_bitmap(out, c.stolen);
  put_u32(out, p);
  put_bitmap(out, c.death_known);
  for (std::uint32_t g : c.peer_gen) put_u32(out, g);
  put_u32(out, static_cast<std::uint32_t>(c.queue.size()));
  for (std::uint32_t q : c.queue) put_u32(out, q);
  put_u32(out, static_cast<std::uint32_t>(c.executed.size()));
  for (std::uint32_t e : c.executed) put_u32(out, e);
  put_u32(out, static_cast<std::uint32_t>(c.ledger.size()));
  for (const RankGrantRecord& g : c.ledger) {
    put_u32(out, g.thief);
    put_u64(out, g.grant_id);
    put_u64(out, g.req_id);
    put_u32(out, static_cast<std::uint32_t>(g.items.size()));
    for (std::uint32_t item : g.items) put_u32(out, item);
  }
  put_u32(out, static_cast<std::uint32_t>(c.seen_grants.size()));
  for (std::uint64_t s : c.seen_grants) put_u64(out, s);
  put_u64(out, c.next_req_id);
  put_u64(out, c.next_grant_id);
  put_f64(out, c.busy_s);
  for (std::uint64_t v : c.counters) put_u64(out, v);
  return save_state_file(blob, path);
}

std::optional<RankCheckpoint> load_rank_checkpoint(const std::string& path,
                                                   IoStatus* status) {
  const auto fail = [&](IoStatus code) {
    if (status) *status = code;
    return std::nullopt;
  };
  IoStatus st = IoStatus::kOk;
  std::optional<StateBlob> blob = load_state_file(path, &st);
  if (status) *status = st;
  if (!blob) return std::nullopt;
  if (blob->kind != kStateKindWsRank) return fail(IoStatus::kMalformed);

  RankCheckpoint c;
  c.rank = blob->meta0;
  c.generation = blob->meta1;
  c.fingerprint = blob->fingerprint;
  StateReader r{blob->payload.data(), blob->payload.size()};
  for (auto& w : c.rng_state) w = r.u64();
  const std::uint32_t n = r.u32();
  if (!r.ok || n > r.left) return fail(IoStatus::kMalformed);
  c.owner.resize(n);
  for (auto& o : c.owner) o = r.u32();
  if (!take_bitmap(r, n, c.done)) return fail(IoStatus::kMalformed);
  if (!take_bitmap(r, n, c.stolen)) return fail(IoStatus::kMalformed);
  const std::uint32_t p = r.u32();
  if (!r.ok || p > r.left || c.rank >= p) return fail(IoStatus::kMalformed);
  if (!take_bitmap(r, p, c.death_known)) return fail(IoStatus::kMalformed);
  c.peer_gen.resize(p);
  for (auto& g : c.peer_gen) g = r.u32();
  const auto take_ids = [&](std::vector<std::uint32_t>& ids) {
    const std::uint32_t count = r.u32();
    if (!r.ok || count > r.left) {
      r.ok = false;
      return false;
    }
    ids.resize(count);
    for (auto& id : ids) {
      id = r.u32();
      if (r.ok && id >= n) r.ok = false;
    }
    return r.ok;
  };
  if (!take_ids(c.queue)) return fail(IoStatus::kMalformed);
  if (!take_ids(c.executed)) return fail(IoStatus::kMalformed);
  const std::uint32_t grants = r.u32();
  if (!r.ok || grants > r.left) return fail(IoStatus::kMalformed);
  c.ledger.resize(grants);
  for (RankGrantRecord& g : c.ledger) {
    g.thief = r.u32();
    if (r.ok && g.thief >= p) return fail(IoStatus::kOutOfRange);
    g.grant_id = r.u64();
    g.req_id = r.u64();
    if (!take_ids(g.items)) return fail(IoStatus::kMalformed);
  }
  const std::uint32_t seen = r.u32();
  if (!r.ok || seen > r.left) return fail(IoStatus::kMalformed);
  c.seen_grants.resize(seen);
  for (auto& s : c.seen_grants) s = r.u64();
  c.next_req_id = r.u64();
  c.next_grant_id = r.u64();
  c.busy_s = r.f64();
  for (auto& v : c.counters) v = r.u64();
  if (!r.ok) return fail(IoStatus::kMalformed);
  if (r.left != 0) return fail(IoStatus::kCountMismatch);
  return c;
}

bool save_rank_result(const WsRankResult& r, const std::string& path) {
  StateBlob blob;
  blob.kind = kStateKindWsResult;
  blob.meta0 = r.rank;
  blob.meta1 = r.generation;
  auto& out = blob.payload;
  put_u32(out, (r.terminated ? 1u : 0u) | (r.fenced ? 2u : 0u) |
                   (r.superseded ? 4u : 0u) | (r.restored ? 8u : 0u));
  put_f64(out, r.busy_s);
  put_f64(out, r.finish_s);
  for (const std::uint64_t* v : result_counters(r)) put_u64(out, *v);
  put_u32(out, static_cast<std::uint32_t>(r.executed.size()));
  for (std::uint32_t e : r.executed) put_u32(out, e);
  put_u32(out, static_cast<std::uint32_t>(r.done.size()));
  put_bitmap(out, r.done);
  return save_state_file(blob, path);
}

std::optional<WsRankResult> load_rank_result(const std::string& path,
                                             std::uint32_t rank,
                                             std::uint32_t generation,
                                             IoStatus* status) {
  const auto fail = [&](IoStatus code) {
    if (status) *status = code;
    return std::nullopt;
  };
  IoStatus st = IoStatus::kOk;
  std::optional<StateBlob> blob = load_state_file(path, &st);
  if (status) *status = st;
  if (!blob) return std::nullopt;
  // A sound file of another kind, rank or incarnation is not this report.
  if (blob->kind != kStateKindWsResult || blob->meta0 != rank ||
      blob->meta1 != generation)
    return fail(IoStatus::kMalformed);

  WsRankResult res;
  res.rank = rank;
  res.generation = generation;
  StateReader r{blob->payload.data(), blob->payload.size()};
  const std::uint32_t flags = r.u32();
  res.terminated = (flags & 1u) != 0;
  res.fenced = (flags & 2u) != 0;
  res.superseded = (flags & 4u) != 0;
  res.restored = (flags & 8u) != 0;
  res.busy_s = r.f64();
  res.finish_s = r.f64();
  for (std::uint64_t* v : result_counters(res)) *v = r.u64();
  const std::uint32_t executed = r.u32();
  if (!r.ok || executed > r.left) return fail(IoStatus::kMalformed);
  res.executed.resize(executed);
  for (auto& e : res.executed) e = r.u32();
  const std::uint32_t n = r.u32();
  if (!r.ok || !take_bitmap(r, n, res.done)) return fail(IoStatus::kMalformed);
  if (r.left != 0) return fail(IoStatus::kCountMismatch);
  return res;
}

WsRankResult run_ws_rank(runtime::Transport& net,
                         const WsRankConfig& config) {
  return WallDriver(net, config).run();
}

void publish(runtime::MetricsRegistry& reg, const WsRankResult& r,
             const std::string& prefix) {
  reg.add(prefix + "steal_requests", r.steal_requests);
  reg.add(prefix + "steal_grants", r.steal_grants);
  reg.add(prefix + "steal_denies", r.steal_denies);
  reg.add(prefix + "regions_migrated", r.regions_migrated);
  reg.add(prefix + "token_rounds", r.token_rounds);
  reg.add(prefix + "steal_retries", r.steal_retries);
  reg.add(prefix + "grant_retransmits", r.grant_retransmits);
  reg.add(prefix + "regions_recovered", r.regions_recovered);
  reg.add(prefix + "heartbeat_probes", r.heartbeat_probes);
  reg.add(prefix + "heartbeat_misses", r.heartbeat_misses);
  reg.add(prefix + "deaths_detected", r.deaths_detected);
  reg.add(prefix + "tokens_regenerated", r.tokens_regenerated);
  reg.add(prefix + "stale_frames_rejected", r.stale_frames_rejected);
  reg.add(prefix + "checkpoints_written", r.checkpoints_written);
  reg.add(prefix + "rejoin_syncs", r.rejoin_syncs);
  reg.set(prefix + "busy_s", r.busy_s);
  publish(reg, r.transport, prefix + "transport_");
}

}  // namespace pmpl::loadbal
