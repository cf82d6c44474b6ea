#include "loadbal/ws_engine.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

#include "loadbal/ws_rank.hpp"
#include "runtime/des.hpp"
#include "runtime/metrics_registry.hpp"
#include "runtime/transport_des.hpp"

namespace pmpl::loadbal {

namespace {

using runtime::Frame;
using runtime::FrameType;

constexpr double kInf = std::numeric_limits<double>::infinity();

/// What a calendar event does; its argument is a rank, except for a
/// delivery, whose argument is the slot its frame is parked in.
enum class Ev : std::uint32_t { kCrash, kDelivery, kWake, kRegionEnd };

/// The virtual-time driver: p WsRank cores over the DES transport, plus
/// what only a god view can tally — crashes and straggler stretch from
/// the FaultPlan, completion times, final owners and re-executions.
class DesDriver final : public WsLink {
 public:
  DesDriver(std::span<const WsItem> items,
            std::span<const std::uint32_t> initial, std::uint32_t p,
            const WsConfig& config)
      : items_(items), p_(p), config_(config), inject_(config.faults),
        timers_(WsTimers::virtual_time(config.cluster, config.faults, p)),
        sim_({config.cluster.local_latency_s,
              config.cluster.remote_latency_s}) {
    rank_cfg_.items = items;
    rank_cfg_.initial = initial;
    rank_cfg_.policy = config.policy;
    rank_cfg_.rand_k = config.rand_k;
    rank_cfg_.seed = config.seed;
    rank_cfg_.steal_max_items = config.steal_max_items;
    rank_cfg_.give_up_after = config.give_up_after;
    rank_cfg_.tracer = config.tracer;
    rank_cfg_.trace_prefix = config.trace_prefix;
    rank_cfg_.trace_capacity = config.trace_capacity;
    std::vector<std::vector<std::uint32_t>> queues(p);
    for (std::size_t i = 0; i < items.size(); ++i)
      queues[initial[i]].push_back(static_cast<std::uint32_t>(i));
    // Reserved, not touched: never copied on growth in a typical replay.
    wires_.reserve(16 * std::size_t{p});
    cores_.reserve(p);
    for (std::uint32_t r = 0; r < p; ++r)
      cores_.emplace_back(*this, r, p, rank_cfg_, timers_, inject_.active(),
                          std::move(queues[r]));
    alive_.assign(p, true);
    wake_at_.assign(p, kInf);
    current_.assign(p, 0);
    service_.assign(p, 0.0);
    down_at_.assign(p, 0.0);
    result_.busy_s.assign(p, 0.0);
    result_.final_owner.assign(items.size(), 0);
    result_.completion_s.assign(items.size(), -1.0);
    reexec_pending_.assign(items.size(), false);
  }
  // The cores hold `this`.
  DesDriver(const DesDriver&) = delete;
  DesDriver& operator=(const DesDriver&) = delete;

  WsResult run() {
    for (std::uint32_t r = 0; r < p_; ++r) {
      cores_[r].start();
      after(r);
    }
    for (const auto& c : inject_.plan().crashes)
      if (c.rank < p_) sim_.schedule_at(c.at_s, Ev::kCrash, c.rank);
    sim_.run([this](Ev kind, std::uint32_t arg) {
      switch (kind) {
        case Ev::kCrash: return on_crash(arg);
        case Ev::kDelivery: return on_delivery(arg);
        case Ev::kWake: return on_wake(arg);
        case Ev::kRegionEnd: return end_region(arg);
      }
    });
    result_.hit_event_limit = sim_.hit_event_limit();
    result_.terminated = terminated_;
    // The calendar drained without detection (every rank crashed): fall
    // back to the last event time.
    if (!terminated_) result_.makespan_s = sim_.now();
    result_.events = sim_.events_processed();
    result_.local_tasks.resize(p_);
    result_.stolen_tasks.resize(p_);
    runtime::FaultMetrics& fm = result_.faults;
    for (std::uint32_t r = 0; r < p_; ++r) {
      const WsRankResult& c = cores_[r].result();
      result_.local_tasks[r] = c.local_tasks;
      result_.stolen_tasks[r] = c.stolen_tasks;
      result_.steal_requests += c.steal_requests;
      result_.steal_grants += c.steal_grants;
      result_.steal_denies += c.steal_denies;
      result_.regions_migrated += c.regions_migrated;
      result_.token_rounds += c.token_rounds;
      fm.steal_retries += c.steal_retries;
      fm.grant_retransmits += c.grant_retransmits;
      fm.regions_recovered += c.regions_recovered;
      fm.heartbeat_probes += c.heartbeat_probes;
      fm.tokens_regenerated += c.tokens_regenerated;
    }
    return std::move(result_);
  }

  // --- WsLink: every core shares this clock and transport -------------

  double now() const override { return sim_.now(); }

  /// A send to a rank already down fails fast, as a socket to a dead
  /// process does; a frame the injector drops looks delivered, as a
  /// receiver-side drop on a real transport does.
  bool send(const Frame& f) override {
    if (!alive_[f.to]) return false;
    std::optional<double> delay;
    if (f.type == FrameType::kToken) {
      delay = net_.token(f.from, f.to, sim_.now());
    } else if (f.type == FrameType::kGrant) {
      std::uint64_t bytes = 0;
      for (const std::uint32_t item : f.items) bytes += items_[item].bytes;
      delay = net_.bulk(f.from, f.to, bytes, sim_.now());
    } else {
      delay = net_.control(f.from, f.to, sim_.now());
    }
    if (!delay) {
      if (runtime::TraceBuffer* t = trace(f.from))
        t->instant_at("drop", sim_.now(), f.to);
      return true;
    }
    sim_.schedule_in(*delay, Ev::kDelivery, park(f));
    return true;
  }

  void rehomed(std::uint32_t dead, std::size_t) override {
    if (!alive_[dead])
      result_.faults.recovery_latency_max_s =
          std::max(result_.faults.recovery_latency_max_s,
                   sim_.now() - down_at_[dead]);
  }

 private:
  runtime::TraceBuffer* trace(std::uint32_t rank) const {
    return cores_[rank].trace();
  }

  /// A frame in flight, compacted (tens of thousands are in flight at
  /// p = 3072): the DES never restarts a rank, so `gen` is always 0, and
  /// the few frames that carry items keep them in `parcels_`.
  struct Wire {
    std::uint64_t a = 0, b = 0, c = 0;
    std::uint32_t from = 0, to = 0;
    std::uint32_t parcel = kNoParcel;
    FrameType type = FrameType::kHello;
  };
  static constexpr std::uint32_t kNoParcel = ~0u;

  /// Store `f` until delivery; the delivery event carries only the slot.
  std::uint32_t park(const Frame& f) {
    Wire w{f.a, f.b, f.c, f.from, f.to, kNoParcel, f.type};
    if (!f.items.empty()) {
      w.parcel = take(free_parcels_, parcels_.size());
      if (w.parcel == parcels_.size()) parcels_.emplace_back();
      parcels_[w.parcel] = f.items;
    }
    const std::uint32_t slot = take(free_wires_, wires_.size());
    if (slot == wires_.size())
      wires_.push_back(w);
    else
      wires_[slot] = w;
    return slot;
  }

  /// Refill `inbox_` with the frame parked in `slot`, releasing the slot.
  /// Swapping item lists keeps both vectors' capacity in use.
  void unpark(std::uint32_t slot) {
    const Wire& w = wires_[slot];
    inbox_.type = w.type;
    inbox_.from = w.from;
    inbox_.to = w.to;
    inbox_.a = w.a;
    inbox_.b = w.b;
    inbox_.c = w.c;
    if (w.parcel != kNoParcel) {
      inbox_.items.swap(parcels_[w.parcel]);
      free_parcels_.push_back(w.parcel);
    } else {
      inbox_.items.clear();
    }
    free_wires_.push_back(slot);
  }

  static std::uint32_t take(std::vector<std::uint32_t>& free,
                            std::size_t next) {
    if (free.empty()) return static_cast<std::uint32_t>(next);
    const std::uint32_t slot = free.back();
    free.pop_back();
    return slot;
  }

  void on_crash(std::uint32_t r) {
    if (terminated_ || !alive_[r]) return;
    ++result_.faults.crashes;
    take_down(r);
  }

  void on_delivery(std::uint32_t slot) {
    unpark(slot);
    if (terminated_) return;
    const Frame& f = inbox_;  // on_frame only parks: inbox_ stays put
    if (!alive_[f.to]) {
      // Sent into a crash window: gone with the rank.
      if (f.type == FrameType::kToken) ++result_.faults.tokens_lost;
      return;
    }
    cores_[f.to].on_frame(f);
    after(f.to);
  }

  /// After any input to core r: notice termination or a fence, start its
  /// next region, and re-arm its wakeup.
  void after(std::uint32_t r) {
    if (terminated_) return;
    WsRank& core = cores_[r];
    if (core.stopped()) {
      if (core.declared()) {
        terminated_ = true;
        // Completion broadcast down a binomial tree: log2(p) remote hops.
        result_.makespan_s =
            sim_.now() + config_.cluster.remote_latency_s *
                             std::ceil(std::log2(std::max(2.0, double(p_))));
      } else {  // fenced: a false positive the ring killed
        ++result_.faults.fenced;
        take_down(r);
      }
      return;
    }
    if (const auto item = core.start_region()) begin_region(r, *item);
    const double w = std::max(core.next_wakeup(), sim_.now());
    if (w < wake_at_[r]) {
      wake_at_[r] = w;
      sim_.schedule_at(w, Ev::kWake, r);
    }
  }

  void on_wake(std::uint32_t r) {
    // A superseded (later) wakeup: the earlier one re-armed already.
    if (terminated_ || !alive_[r] || sim_.now() != wake_at_[r]) return;
    wake_at_[r] = kInf;
    cores_[r].on_timer(sim_.now());
    after(r);
  }

  void begin_region(std::uint32_t r, std::uint32_t item) {
    const double nominal = items_[item].service_s;
    const double service =
        inject_.active() ? inject_.stretched_service(r, sim_.now(), nominal)
                         : nominal;
    current_[r] = item;
    service_[r] = service;
    if (service > nominal)
      if (runtime::TraceBuffer* t = trace(r))
        t->instant_at("straggle", sim_.now(),
                      static_cast<std::uint64_t>((service - nominal) * 1e6));
    sim_.schedule_in(service, Ev::kRegionEnd, r);
  }

  void end_region(std::uint32_t r) {
    if (terminated_ || !alive_[r]) return;  // crashed mid-region: lost
    WsRank& core = cores_[r];
    const std::uint32_t item = current_[r];
    const double service = service_[r];
    if (core.finish_region(service)) {
      const double nominal = items_[item].service_s;
      result_.busy_s[r] += service;
      if (service > nominal)
        result_.faults.straggler_delay_s += service - nominal;
      if (result_.completion_s[item] >= 0.0 || reexec_pending_[item]) {
        reexec_pending_[item] = false;
        ++result_.faults.regions_reexecuted;
        result_.faults.reexecuted_service_s += nominal;
      }
      result_.completion_s[item] = sim_.now();
      result_.final_owner[item] = r;
    }
    after(r);
  }

  /// Crash or fence: the rank stops; its in-progress work is lost and
  /// will run again wherever recovery re-homes it.
  void take_down(std::uint32_t r) {
    WsRank& core = cores_[r];
    if (core.busy()) reexec_pending_[current_[r]] = true;
    core.halt();
    alive_[r] = false;
    down_at_[r] = sim_.now();
  }

  std::span<const WsItem> items_;
  std::uint32_t p_;
  const WsConfig& config_;
  runtime::FaultInjector inject_;
  const WsTimers timers_;
  WsRankConfig rank_cfg_;
  runtime::EventCalendar<Ev> sim_;  ///< lanes: the two hop latencies
  WsResult result_;
  runtime::DesTransport net_{config_.cluster, inject_, result_.faults};
  std::vector<WsRank> cores_;
  std::vector<bool> alive_;
  std::vector<double> wake_at_;  ///< earliest scheduled wakeup per rank
  std::vector<std::uint32_t> current_;  ///< running region per rank
  std::vector<double> service_;  ///< running region's stretched service
  std::vector<double> down_at_;  ///< crash/fence time per rank
  std::vector<bool> reexec_pending_;  ///< lost mid-execution at a crash
  std::vector<Wire> wires_;  ///< frames in flight
  std::vector<std::uint32_t> free_wires_;
  std::vector<std::vector<std::uint32_t>> parcels_;  ///< their item lists
  std::vector<std::uint32_t> free_parcels_;
  Frame inbox_;  ///< the frame being delivered
  bool terminated_ = false;
};

}  // namespace

WsResult simulate_work_stealing(std::span<const WsItem> items,
                                std::span<const std::uint32_t> initial,
                                std::uint32_t p, const WsConfig& config) {
  // Checked in every build: a bad `initial` would index past the queues.
  if (p == 0)
    throw std::invalid_argument("simulate_work_stealing: p must be > 0");
  if (items.size() != initial.size())
    throw std::invalid_argument(
        "simulate_work_stealing: items and initial differ in size");
  // The latencies become the calendar's lane delays: check them first.
  config.cluster.validate("simulate_work_stealing");
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (initial[i] >= p)
      throw std::invalid_argument("simulate_work_stealing: initial[" +
                                  std::to_string(i) + "] is not a rank < p");
    if (!std::isfinite(items[i].service_s) || items[i].service_s < 0.0)
      throw std::invalid_argument("simulate_work_stealing: items[" +
                                  std::to_string(i) +
                                  "].service_s is not finite and >= 0");
  }
  return DesDriver(items, initial, p, config).run();
}

void publish(runtime::MetricsRegistry& reg, const WsResult& result,
             const std::string& prefix) {
  reg.add(prefix + "steal_requests", result.steal_requests);
  reg.add(prefix + "steal_grants", result.steal_grants);
  reg.add(prefix + "steal_denies", result.steal_denies);
  reg.add(prefix + "regions_migrated", result.regions_migrated);
  reg.add(prefix + "token_rounds", result.token_rounds);
  reg.add(prefix + "events", result.events);
  reg.set(prefix + "makespan_s", result.makespan_s);
  reg.set(prefix + "stolen_fraction", result.stolen_fraction());
  double busy = 0.0;
  runtime::Histogram& busy_hist = reg.histogram(prefix + "rank_busy_us");
  for (const double b : result.busy_s) {
    busy += b;
    busy_hist.observe(b * 1e6);
  }
  reg.set(prefix + "busy_total_s", busy);
  publish(reg, result.faults, prefix + "fault_");
}

}  // namespace pmpl::loadbal
