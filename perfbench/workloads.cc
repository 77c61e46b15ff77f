#include "workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <barrier>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <exception>
#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>
#include <thread>
#include <unordered_set>

#include "core/cfz.h"
#include "core/liang_shen.h"
#include "core/route_engine.h"
#include "inputs.h"
#include "obs/registry.h"
#include "rwa/session_manager.h"
#include "svc/service.h"

namespace perfbench {

using lumen::NodeId;
using lumen::RouteEngine;
using lumen::RouteResult;
using lumen::WdmNetwork;

double PassResult::value(const std::string& name) const {
  for (const Metric& metric : metrics) {
    if (metric.name == name) return metric.value;
  }
  return 0.0;
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "svc-backbone", "svc-sparse-mt", "restore-sparse", "paper-ls"};
  return names;
}

namespace {

/// Sizes of one run.  All workloads use n = 1024, k = 10, k0 <= 4; the
/// tiny set (n = 64) only proves that the benchmark itself works.
struct Sizes {
  std::uint32_t nodes = 0;
  double backbone_erlangs = 0.0;
  double sparse_erlangs = 0.0;  ///< summed over all svc-sparse-mt clients
  double restore_erlangs = 0.0;
  std::size_t cut_spans = 0;  ///< busiest spans the cuts draw from
  double cut_down_time = 0.0;
  double cut_mean_gap = 0.0;
  std::size_t demands = 0;     ///< paper-ls demand list length
  std::size_t cfz_sample = 0;  ///< of which routed by CFZ as well
  std::size_t probes = 0;      ///< end-of-run probe demands
  std::uint64_t warmup_events = 0;  ///< untimed tape events per client
};

Sizes sizes_for(bool tiny) {
  if (tiny) {
    return Sizes{.nodes = 64,
                 .backbone_erlangs = 2.0,
                 .sparse_erlangs = 12.0,
                 .restore_erlangs = 12.0,
                 .cut_spans = 4,
                 .cut_down_time = 0.1,
                 .cut_mean_gap = 0.1,
                 .demands = 64,
                 .cfz_sample = 2,
                 .probes = 4,
                 .warmup_events = 200};
  }
  return Sizes{.nodes = 1024,
               .backbone_erlangs = 4.0,
               .sparse_erlangs = 200.0,
               .restore_erlangs = 200.0,
               .cut_spans = 16,
               .cut_down_time = 0.05,
               .cut_mean_gap = 0.05,
               .demands = 4096,
               .cfz_sample = 8,
               .probes = 8,
               .warmup_events = 2000};
}

/// Each workload's network is its fixed data set, drawn from this constant
/// seed; --seed draws the requests (tapes, cuts, demands, probes).  With a
/// topology per --seed, setup time and admission latency moved by a third
/// from one random topology to the next, which would hide the program's
/// own changes.
constexpr std::uint64_t kNetworkSeed = 1;

constexpr std::uint32_t kTenants = 2;
/// Times a client re-offers an admission the service aborted.
constexpr std::uint32_t kClientRetries = 8;

// Distinct seed streams for the tape pieces drawn from one --seed.
constexpr std::uint64_t kTapeStream = 0x7461'7065'0000'0000ULL;
constexpr std::uint64_t kCutStream = 0x6375'7473'0000'0000ULL;
constexpr std::uint64_t kProbeStream = 0x7072'6f62'6500'0000ULL;

std::uint64_t client_seed(std::uint64_t seed, std::uint32_t client) {
  return (seed ^ kTapeStream) * 0x9e37'79b9'7f4a'7c15ULL + client;
}

double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/// Nearest-rank percentile (0 when empty).
double percentile(std::vector<double> sample, double q) {
  if (sample.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(sample.size())));
  const std::size_t index = std::min(sample.size() - 1, rank == 0 ? 0 : rank - 1);
  std::nth_element(sample.begin(), sample.begin() + static_cast<long>(index),
                   sample.end());
  return sample[index];
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

std::string sample_note(std::size_t n) { return "n=" + std::to_string(n); }

std::string format_number(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%g", value);
  return buffer;
}

/// Mean of the middle half of `values` (the lowest and highest quarter
/// dropped); 0 when empty.
double middle_mean(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t drop = values.size() / 4;
  double sum = 0.0;
  for (std::size_t i = drop; i < values.size() - drop; ++i) sum += values[i];
  return sum / static_cast<double>(values.size() - 2 * drop);
}

constexpr std::size_t kSlices = 20;
/// A percentile is taken per slice only when every slice can hold ten
/// samples beyond a 99th percentile; otherwise over the pooled window.
constexpr std::size_t kMinSliceSamples = 1000;
const std::string kSliceNote =
    "middle-half mean of " + std::to_string(kSlices) + " slices, ";

/// The timed calls of one measured window, bucketed into kSlices equal
/// slices by completion time.  Rates and latencies are reported as the mean
/// of the middle half of the slices: a burst of interference from other
/// work on the host moves one dropped slice rather than the reported
/// figure, and a slower drift of the host's speed is averaged over the
/// window.
class Timeline {
 public:
  Timeline() = default;
  Timeline(std::int64_t start_ns, std::int64_t window_ns)
      : start_ns_(start_ns), window_ns_(window_ns) {}

  void call(std::int64_t end_ns) { ++calls_[slice(end_ns)]; }
  /// A call whose latency is sampled (an admission or a restoration).
  void admit(std::int64_t begin_ns, std::int64_t end_ns) {
    const std::size_t s = slice(end_ns);
    ++calls_[s];
    latency_ns_[s].push_back(static_cast<float>(end_ns - begin_ns));
  }
  void append(const Timeline& other) {
    for (std::size_t s = 0; s < kSlices; ++s) {
      calls_[s] += other.calls_[s];
      latency_ns_[s].insert(latency_ns_[s].end(), other.latency_ns_[s].begin(),
                            other.latency_ns_[s].end());
    }
  }

  [[nodiscard]] std::uint64_t calls() const {
    std::uint64_t total = 0;
    for (const std::uint64_t count : calls_) total += count;
    return total;
  }

  /// Calls completed per second (middle-half mean over the slices).
  [[nodiscard]] double rate() const {
    const double slice_s = 1e-9 * static_cast<double>(window_ns_) / kSlices;
    std::vector<double> rates;
    for (const std::uint64_t count : calls_)
      rates.push_back(static_cast<double>(count) / slice_s);
    return middle_mean(std::move(rates));
  }

  /// The q-th latency percentile, in microseconds (see kMinSliceSamples).
  [[nodiscard]] Metric latency(const char* name, double q) const {
    std::vector<double> pooled;
    std::vector<double> per_slice;
    for (const std::vector<float>& slice : latency_ns_) {
      const std::vector<double> sample(slice.begin(), slice.end());
      if (!sample.empty()) per_slice.push_back(percentile(sample, q));
      pooled.insert(pooled.end(), sample.begin(), sample.end());
    }
    const std::string count = sample_note(pooled.size());
    if (pooled.size() < kSlices * kMinSliceSamples)
      return {name, 1e-3 * percentile(std::move(pooled), q), "us",
              "pooled, " + count};
    return {name, 1e-3 * middle_mean(std::move(per_slice)), "us",
            kSliceNote + count};
  }

 private:
  [[nodiscard]] std::size_t slice(std::int64_t end_ns) const {
    const std::int64_t s = (end_ns - start_ns_) * std::int64_t{kSlices} /
                           std::max<std::int64_t>(window_ns_, 1);
    return static_cast<std::size_t>(
        std::clamp<std::int64_t>(s, 0, std::int64_t{kSlices} - 1));
  }

  std::int64_t start_ns_ = 0;
  std::int64_t window_ns_ = 1;
  std::array<std::uint64_t, kSlices> calls_{};
  std::array<std::vector<float>, kSlices> latency_ns_;
};

/// lumen.core.* registry counters, read around the measured window.
struct CoreCounters {
  double pops = 0.0;
  double customize_ns = 0.0;
  double recustomized_arcs = 0.0;
  double hierarchy_queries = 0.0;
  double hierarchy_fallbacks = 0.0;

  static CoreCounters read() {
    lumen::obs::Registry& r = lumen::obs::Registry::global();
    return CoreCounters{
        static_cast<double>(r.counter("lumen.core.search.pops").value()),
        static_cast<double>(
            r.histogram("lumen.core.hierarchy.customize_ns").sum()),
        static_cast<double>(
            r.counter("lumen.core.hierarchy.recustomized_arcs").value()),
        static_cast<double>(
            r.counter("lumen.core.hierarchy.queries").value()),
        static_cast<double>(
            r.counter("lumen.core.hierarchy.fallbacks").value())};
  }

  /// Adds what the counters gained from `from` to `to`.
  void add_delta(const CoreCounters& from, const CoreCounters& to) {
    pops += to.pops - from.pops;
    customize_ns += to.customize_ns - from.customize_ns;
    recustomized_arcs += to.recustomized_arcs - from.recustomized_arcs;
    hierarchy_queries += to.hierarchy_queries - from.hierarchy_queries;
    hierarchy_fallbacks += to.hierarchy_fallbacks - from.hierarchy_fallbacks;
  }

  /// Per-admit core metrics for the window [before, *this).
  void report(const CoreCounters& before, double opens,
              std::vector<Metric>& out) const {
    const double fallbacks = hierarchy_fallbacks - before.hierarchy_fallbacks;
    const double hier = hierarchy_queries - before.hierarchy_queries;
    out.push_back({"core.search_pops_per_admit",
                   ratio(pops - before.pops, opens), "count", ""});
    out.push_back({"core.customize_ns_per_admit",
                   ratio(customize_ns - before.customize_ns, opens), "ns", ""});
    out.push_back({"core.recustomized_arcs_per_admit",
                   ratio(recustomized_arcs - before.recustomized_arcs, opens),
                   "count", ""});
    out.push_back({"core.hierarchy_fallback_pct",
                   100.0 * ratio(fallbacks, fallbacks + hier), "%", ""});
  }
};

bool same_cost(double a, double b) {
  return std::abs(a - b) <= 1e-9 * std::max(1.0, std::abs(b));
}

/// Collects failed correctness checks.  With `corrupt`, the first cost
/// comparison is made against a deliberately wrong expectation.
class Checks {
 public:
  explicit Checks(bool corrupt) : corrupt_pending_(corrupt) {}

  void expect(bool ok, const std::string& what) {
    if (!ok) failures_.push_back(what);
  }

  /// The program found (found, cost); the oracle found (want_found,
  /// want_cost).  Both must agree: same reachability, same optimum.
  void expect_cost(const std::string& what, bool found, double cost,
                   bool want_found, double want_cost) {
    if (corrupt_pending_) {
      corrupt_pending_ = false;
      if (want_found) {
        want_cost += 1.0;
      } else {
        want_found = true;
        want_cost = 0.0;
      }
    }
    const bool ok = found == want_found && (!found || same_cost(cost, want_cost));
    if (!ok) {
      failures_.push_back(what + ": program " +
                          (found ? std::to_string(cost) : "blocked") +
                          ", oracle " +
                          (want_found ? std::to_string(want_cost) : "blocked"));
    }
  }

  [[nodiscard]] std::vector<std::string> take() { return std::move(failures_); }

 private:
  bool corrupt_pending_;
  std::vector<std::string> failures_;
};

/// A flat-Dijkstra engine (no landmarks, no hierarchy) over the base
/// network: the oracle every end-of-run probe is compared against.
RouteEngine flat_oracle(const WdmNetwork& net) {
  RouteEngine::Options options;
  options.num_landmarks = 0;
  return RouteEngine(net, options);
}

/// What one client thread saw inside the measured window.
struct ClientLog {
  std::uint64_t opens = 0;
  std::uint64_t closes = 0;
  std::uint64_t errors = 0;  ///< calls that failed where they must not
  std::uint64_t retries = 0;  ///< aborted opens the client retried
  Timeline timeline;
  std::int64_t end_ns = 0;  ///< completion of the last timed call
  std::optional<std::string> exception;
};

/// Runs `body(client)` on `clients` threads, turning an escaped exception
/// into a recorded failure, and `host()` on the calling thread meanwhile.
template <class Body, class Host>
void run_clients(std::uint32_t clients, std::vector<ClientLog>& logs,
                 Body body, Host host) {
  const auto guarded = [&](std::uint32_t c) {
    try {
      body(c);
    } catch (const std::exception& error) {
      logs[c].exception = error.what();
    }
  };
  std::vector<std::jthread> threads;
  threads.reserve(clients);
  for (std::uint32_t c = 0; c < clients; ++c) threads.emplace_back(guarded, c);
  host();
}

/// peak_rss_mib: the process's peak resident set once the program is built
/// and warmed up, read just before the measured window.  Read at the end
/// of the window instead, it grew with the number of calls made (the
/// SessionManager keeps every closed session's record), so restore-sparse
/// read 40 or 55 MiB depending on the host's speed during the run.
Metric peak_rss() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return {"peak_rss_mib", static_cast<double>(usage.ru_maxrss) / 1024.0,
          "MiB", ""};  // ru_maxrss is in KiB on Linux
}

/// setup_s: the median of kSlices timed constructions of a spare instance
/// of the program, each destroyed untimed.  One is taken at the middle of
/// each slice of the window (see due()), while the clients pause and the
/// window's clock stops: constructions timed back to back at one moment
/// see the host's speed at that moment only, and spread about three times
/// wider from run to run than the calls of a whole window.  The CPU time
/// and the lumen.core counters a spare takes are kept out of the
/// per-window figures.
class SetupSampler {
 public:
  using Build = std::function<std::shared_ptr<void>()>;

  SetupSampler(std::int64_t window_ns, Build build)
      : window_ns_(window_ns), build_(std::move(build)) {}

  /// Whether a sample is due at `elapsed_ns` of window time.
  [[nodiscard]] bool due(std::int64_t elapsed_ns) const {
    const auto point = static_cast<std::int64_t>(2 * taken_ + 1);
    return taken_ < kSlices &&
           elapsed_ns >= window_ns_ * point /
                             static_cast<std::int64_t>(2 * kSlices);
  }

  /// Takes one sample; returns the nanoseconds it took.  A failed
  /// construction is recorded (see error()) rather than thrown, so that
  /// the pass still finishes its window and reports it as a failed check.
  std::int64_t sample() noexcept {
    ++taken_;
    const CoreCounters core0 = CoreCounters::read();
    const double cpu0 = cpu_seconds();
    const std::int64_t t0 = now_ns();
    try {
      std::shared_ptr<void> spare = build_();
      const std::int64_t t1 = now_ns();
      spare.reset();
      seconds_.push_back(1e-9 * static_cast<double>(t1 - t0));
    } catch (const std::exception& failure) {
      error_ = std::string("setup sample threw: ") + failure.what();
    }
    cpu_s_ += cpu_seconds() - cpu0;
    core_.add_delta(core0, CoreCounters::read());
    return now_ns() - t0;
  }

  /// The last failed construction, if any.
  [[nodiscard]] const std::optional<std::string>& error() const {
    return error_;
  }

  /// `how` says how the samples were taken.
  [[nodiscard]] Metric metric(const std::string& how) const {
    return {"setup_s", percentile(seconds_, 0.5), "s",
            "median of " + std::to_string(seconds_.size()) + ", " + how};
  }
  /// Process CPU seconds the pauses took.
  [[nodiscard]] double cpu_s() const { return cpu_s_; }
  /// `before` advanced by what the pauses added to the lumen.core counters.
  [[nodiscard]] CoreCounters exclude(CoreCounters before) const {
    before.add_delta(CoreCounters{}, core_);
    return before;
  }

 private:
  std::int64_t window_ns_;
  Build build_;
  std::size_t taken_ = 0;
  std::vector<double> seconds_;
  std::optional<std::string> error_;
  double cpu_s_ = 0.0;
  CoreCounters core_;
};

// ---------------------------------------------------------------------------
// svc-backbone, svc-sparse-mt: RoutingService churn.

void run_service(const RunOptions& options, const Sizes& sizes,
                 const WdmNetwork& net, double erlangs, std::uint32_t clients,
                 bool traced, PassResult& out) {
  namespace svc = lumen::svc;
  svc::ServiceOptions service_options;  // the program's defaults...
  service_options.num_tenants = kTenants;  // ...apart from the tenant count

  const auto service =
      std::make_unique<svc::RoutingService>(net, service_options);

  std::vector<ChurnTape> tapes;
  for (std::uint32_t c = 0; c < clients; ++c) {
    tapes.emplace_back(client_seed(options.seed, c), net.num_nodes(),
                       erlangs / clients, kTenants);
  }
  std::vector<ClientLog> logs(clients);
  if (traced) out.spans.resize(clients);
  const auto window_ns = static_cast<std::int64_t>(options.seconds * 1e9);
  SetupSampler setup(window_ns, [&]() -> std::shared_ptr<void> {
    return std::make_shared<svc::RoutingService>(net, service_options);
  });

  // The clients and this thread meet at a barrier.  Its first completion
  // step, once every client has warmed up, reads the counters and starts
  // the window.  For each setup sample every client then waits at two more
  // phases while this thread builds the spare between them.
  svc::ServiceStats before;
  CoreCounters core_before;
  Metric rss;
  double cpu_before = 0.0;
  std::int64_t start = 0, paused_ns = 0;
  bool started = false;
  std::barrier sync(static_cast<std::ptrdiff_t>(clients) + 1, [&]() noexcept {
    if (started) return;
    started = true;
    rss = peak_rss();
    before = service->stats();
    core_before = CoreCounters::read();
    cpu_before = cpu_seconds();
    start = now_ns();
  });

  run_clients(clients, logs, [&](std::uint32_t c) {
    ChurnTape& tape = tapes[c];
    ClientLog& log = logs[c];
    SpanBuffer* spans = traced ? &out.spans[c] : nullptr;
    std::uint64_t arrivals = 0;
    const auto step = [&](bool timed) {
      const ChurnTape::Event event = tape.next();
      if (event.open) {
        ++arrivals;
        // An aborted admission lost every commit race; like any client of
        // the service, retry it.  Each attempt is one call.
        for (std::uint32_t attempt = 0;; ++attempt) {
          const std::int64_t t0 = now_ns();
          const svc::AdmitTicket ticket = service->open(
              svc::TenantId{event.tenant}, event.source, event.target);
          const std::int64_t t1 = now_ns();
          const bool admitted = ticket.status == svc::AdmitStatus::kAdmitted;
          const bool retry = ticket.status == svc::AdmitStatus::kAborted &&
                             attempt < kClientRetries;
          if (admitted) tape.admitted(ticket.id.bits());
          if (timed) {
            ++log.opens;
            log.timeline.admit(t0 - paused_ns, t1 - paused_ns);
            if (retry) ++log.retries;
            if (!admitted && !retry &&
                ticket.status != svc::AdmitStatus::kBlocked)
              ++log.errors;
            // Spans of one session share its id; a refused arrival gets
            // its own (top bit set).
            const std::uint64_t request =
                admitted ? ticket.id.bits()
                         : (std::uint64_t{1} << 63) |
                               (std::uint64_t{c} << 48) | arrivals;
            if (spans) spans->record(SpanName::kSvcOpen, request, t0, t1);
          }
          if (!retry) return t1;
        }
      }
      const std::int64_t t0 = now_ns();
      const bool closed =
          service->close(svc::SvcSessionId::from_bits(event.session));
      const std::int64_t t1 = now_ns();
      if (!closed) ++log.errors;
      if (timed) {
        ++log.closes;
        log.timeline.call(t1 - paused_ns);
        if (spans) spans->record(SpanName::kSvcClose, event.session, t0, t1);
      }
      return t1;
    };

    std::optional<std::string> warmup_error;
    try {
      for (std::uint64_t i = 0; i < sizes.warmup_events; ++i) (void)step(false);
    } catch (const std::exception& error) {
      warmup_error = error.what();
    }
    sync.arrive_and_wait();
    log.timeline = Timeline(start, window_ns);
    std::int64_t t = start;
    try {
      if (warmup_error) throw std::runtime_error(*warmup_error);
      // Every client passes every setup sample before the window ends.
      for (;;) {
        if (setup.due(t - start - paused_ns)) {
          sync.arrive_and_wait();  // the host thread takes the sample...
          sync.arrive_and_wait();  // ...and releases the clients
          t = now_ns();
        } else if (t - start - paused_ns >= window_ns) {
          break;
        } else {
          t = step(true);
        }
      }
    } catch (...) {
      sync.arrive_and_drop();  // the other clients go on without this one
      throw;
    }
    log.end_ns = t - paused_ns;
  }, [&] {
    sync.arrive_and_wait();  // the window starts
    for (std::size_t s = 0; s < kSlices; ++s) {
      sync.arrive_and_wait();
      paused_ns += setup.sample();
      sync.arrive_and_wait();
    }
  });

  const svc::ServiceStats after = service->stats();
  const CoreCounters core_after = CoreCounters::read();
  const double cpu = cpu_seconds() - cpu_before - setup.cpu_s();

  Checks checks(options.corrupt);
  std::uint64_t opens = 0, closes = 0, errors = 0, retries = 0;
  Timeline timeline(start, window_ns);
  std::int64_t end = start;
  for (const ClientLog& log : logs) {
    opens += log.opens;
    closes += log.closes;
    errors += log.errors;
    retries += log.retries;
    timeline.append(log.timeline);
    end = std::max(end, log.end_ns);
    out.window_thread_ns += static_cast<double>(log.end_ns - start);
    if (log.exception) checks.expect(false, "client threw: " + *log.exception);
  }
  out.window_start_ns = start;
  const double wall_s = 1e-9 * static_cast<double>(end - start);
  if (setup.error()) checks.expect(false, *setup.error());

  // Accounting identities over the service's whole life.
  checks.expect(after.offered == after.admitted + after.blocked +
                                     after.quota_denied + after.aborted,
                "svc: offered != admitted + blocked + quota_denied + aborted");
  checks.expect(after.active == after.admitted - after.released,
                "svc: active != admitted - released");

  // Double-booking audit: every slot a live session holds is owned by it in
  // the table, no slot is held twice, and nothing else is occupied.
  service->drain_all();
  const svc::SlotTable& table = service->slot_table();
  {
    std::vector<std::uint64_t> holder(table.num_slots(), 0);
    std::uint64_t held = 0;
    bool ok = true;
    const auto reservations = service->active_reservations();
    for (const auto& [owner, slots] : reservations) {
      for (const std::uint32_t slot : slots) {
        ++held;
        if (slot >= table.num_slots() || holder[slot] != 0 ||
            table.owner(slot) != owner) {
          ok = false;
          continue;
        }
        holder[slot] = owner;
      }
    }
    checks.expect(ok && held == table.occupied() &&
                      reservations.size() == after.active,
                  "svc: reservation audit disagrees with the slot table");
  }

  // End-of-run probes against a flat oracle carrying the live reservations.
  RouteEngine oracle = flat_oracle(net);
  for (std::uint32_t slot = 0; slot < table.num_slots(); ++slot) {
    if (table.owner(slot) != 0)
      (void)oracle.reserve(table.link_of(slot), table.lambda_of(slot));
  }
  for (const Demand& probe : scattered_demands(
           net.num_nodes(), sizes.probes, options.seed ^ kProbeStream)) {
    const RouteResult want =
        oracle.route_semilightpath(probe.first, probe.second);
    const svc::AdmitTicket ticket =
        service->open(svc::TenantId{0}, probe.first, probe.second);
    const bool admitted = ticket.status == svc::AdmitStatus::kAdmitted;
    checks.expect_cost("svc probe", admitted, ticket.cost, want.found,
                       want.cost);
    if (admitted) {
      checks.expect(service->close(ticket.id), "svc: probe close failed");
      service->drain_all();
    }
  }

  out.failures = checks.take();
  out.attempted = opens + closes + 2 * sizes.probes;
  out.failed = errors + out.failures.size();

  const double offered = static_cast<double>(after.offered - before.offered);
  const double admitted = static_cast<double>(after.admitted - before.admitted);
  out.describe = std::to_string(clients) + " closed-loop client(s), " +
                 format_number(erlangs) + " Erlangs offered, " +
                 std::to_string(service->num_shards()) + " shards, " +
                 std::to_string(kTenants) + " Zipf tenants";
  out.metrics = {
      setup.metric("spread over the window"),
      rss,
      {"ops_per_s", timeline.rate(), "1/s",
       kSliceNote + std::to_string(opens) + " opens + " +
           std::to_string(closes) + " closes"},
      timeline.latency("admit_p50_us", 0.50),
      timeline.latency("admit_p90_us", 0.90),
      timeline.latency("admit_p99_us", 0.99),
      {"blocked_pct",
       100.0 * ratio(static_cast<double>(after.blocked - before.blocked),
                     offered),
       "%", ""},
      {"svc.resync_patches_per_admit",
       ratio(static_cast<double>(after.cross_shard_patches -
                                 before.cross_shard_patches),
             admitted),
       "count", ""},
      {"svc.conflicts_per_admit",
       ratio(static_cast<double>(after.commit_conflicts -
                                 before.commit_conflicts),
             offered),
       "count", ""},
      {"svc.cpu_per_wall", ratio(cpu, wall_s), "ratio", ""},
      {"svc.retried_pct", 100.0 * ratio(static_cast<double>(retries), offered),
       "%", std::to_string(retries) + " aborted opens retried"},
  };
  core_after.report(setup.exclude(core_before), offered, out.metrics);
}

// ---------------------------------------------------------------------------
// restore-sparse: SessionManager churn plus span cuts.

void run_restore(const RunOptions& options, const Sizes& sizes,
                 const WdmNetwork& net, bool traced, PassResult& out) {
  const auto manager = std::make_unique<lumen::SessionManager>(
      net, lumen::RoutingPolicy::kSemilightpathEngine);

  ChurnTape tape(client_seed(options.seed, 0), net.num_nodes(),
                 sizes.restore_erlangs, 1);
  CutTimeline cuts(options.seed ^ kCutStream,
                   busiest_spans(net, sizes.cut_spans), sizes.cut_down_time,
                   sizes.cut_mean_gap);
  if (traced) out.spans.resize(1);
  SpanBuffer* spans = traced ? &out.spans[0] : nullptr;

  Checks checks(options.corrupt);
  std::unordered_set<std::uint32_t> live;  // sessions the tape still holds
  std::uint64_t opens = 0, closes = 0, cut_count = 0, repairs = 0, errors = 0;
  std::uint64_t affected = 0, rerouted = 0, dropped = 0, arrivals = 0;
  // Calls are stamped on the window's clock, which stops while checks run
  // and setup samples are taken.
  Timeline timeline, restores;
  std::int64_t excluded_ns = 0;
  const auto window_ns = static_cast<std::int64_t>(options.seconds * 1e9);
  SetupSampler setup(window_ns, [&]() -> std::shared_ptr<void> {
    return std::make_shared<lumen::SessionManager>(
        net, lumen::RoutingPolicy::kSemilightpathEngine);
  });

  // After every cut: no active session may cross a failed link.
  const auto check_cut = [&] {
    const std::int64_t c0 = now_ns();
    bool ok = true;
    for (auto it = live.begin(); it != live.end();) {
      const lumen::SessionRecord* record =
          manager->find(lumen::SessionId{*it});
      if (record == nullptr || !record->active) {  // dropped by the cut
        it = live.erase(it);
        continue;
      }
      for (const lumen::Hop& hop : record->path.hops())
        ok = ok && !manager->is_failed(hop.link);
      ++it;
    }
    checks.expect(ok, "rwa: an active session crosses a failed link");
    excluded_ns += now_ns() - c0;
  };

  const auto step = [&](bool timed) {
    if (cuts.peek().time <= tape.next_time()) {
      const lumen::SpanEvent event = cuts.peek();
      cuts.pop();
      const std::int64_t t0 = now_ns();
      const lumen::SessionManager::FailureReport report =
          manager->apply_span_state(event.a, event.b, event.down);
      const std::int64_t t1 = now_ns();
      if (timed && event.down) {
        ++cut_count;
        timeline.call(t1 - excluded_ns);
        restores.admit(t0 - excluded_ns, t1 - excluded_ns);
        affected += report.affected;
        rerouted += report.rerouted;
        dropped += report.dropped;
        if (spans) spans->record(SpanName::kRwaFailSpan, cut_count, t0, t1);
      } else if (timed) {
        ++repairs;
        timeline.call(t1 - excluded_ns);
        if (spans) spans->record(SpanName::kRwaRepairSpan, cut_count, t0, t1);
      }
      if (event.down) check_cut();
      return t1;
    }
    const ChurnTape::Event event = tape.next();
    if (event.open) {
      const std::int64_t t0 = now_ns();
      const std::optional<lumen::SessionId> id =
          manager->open(event.source, event.target);
      const std::int64_t t1 = now_ns();
      ++arrivals;
      if (id) {
        tape.admitted(id->value());
        live.insert(id->value());
      }
      if (timed) {
        ++opens;
        timeline.admit(t0 - excluded_ns, t1 - excluded_ns);
        const std::uint64_t request =
            id ? id->value() : (std::uint64_t{1} << 63) | arrivals;
        if (spans) spans->record(SpanName::kRwaOpen, request, t0, t1);
      }
      return t1;
    }
    const auto id = static_cast<std::uint32_t>(event.session);
    const std::int64_t t0 = now_ns();
    const bool closed = manager->close(lumen::SessionId{id});
    const std::int64_t t1 = now_ns();
    // A close may only miss a session a cut dropped.
    const lumen::SessionRecord* record = manager->find(lumen::SessionId{id});
    if (!closed && (record == nullptr || live.contains(id))) ++errors;
    live.erase(id);
    if (timed) {
      ++closes;
      timeline.call(t1 - excluded_ns);
      if (spans) spans->record(SpanName::kRwaClose, id, t0, t1);
    }
    return t1;
  };

  for (std::uint64_t i = 0; i < sizes.warmup_events; ++i) (void)step(false);
  const lumen::SessionStats before = manager->stats();
  const CoreCounters core_before = CoreCounters::read();
  const Metric rss = peak_rss();
  const double cpu_before = cpu_seconds();
  excluded_ns = 0;
  const std::int64_t start = now_ns();
  out.window_start_ns = start;
  timeline = Timeline(start, window_ns);
  restores = Timeline(start, window_ns);
  std::int64_t t = start;
  for (;;) {
    if (setup.due(t - start - excluded_ns)) {
      excluded_ns += setup.sample();
      t = now_ns();
    } else if (t - start - excluded_ns >= window_ns) {
      break;
    } else {
      t = step(true);
    }
  }
  const double window_s = 1e-9 * static_cast<double>(t - start - excluded_ns);
  out.window_thread_ns = 1e9 * window_s;
  const double cpu = cpu_seconds() - cpu_before - setup.cpu_s();
  const lumen::SessionStats after = manager->stats();
  const CoreCounters core_after = CoreCounters::read();

  if (setup.error()) checks.expect(false, *setup.error());
  checks.expect(after.offered == after.carried + after.blocked,
                "rwa: offered != carried + blocked");
  checks.expect(manager->active_sessions() ==
                    after.carried - after.released - after.dropped,
                "rwa: active != carried - released - dropped");

  // End-of-run probes against a flat oracle carrying the live
  // reservations and the failed spans.
  RouteEngine oracle = flat_oracle(net);
  for (const lumen::SessionId id : manager->active_session_ids()) {
    for (const lumen::Hop& hop : manager->find(id)->path.hops())
      (void)oracle.reserve(hop.link, hop.wavelength);
  }
  for (std::uint32_t e = 0; e < net.num_links(); ++e) {
    if (!manager->is_failed(lumen::LinkId{e})) continue;
    for (const lumen::LinkWavelength& lw : net.available(lumen::LinkId{e}))
      oracle.set_weight(lumen::LinkId{e}, lw.lambda, lumen::kInfiniteCost);
  }
  for (const Demand& probe : scattered_demands(
           net.num_nodes(), sizes.probes, options.seed ^ kProbeStream)) {
    const RouteResult want =
        oracle.route_semilightpath(probe.first, probe.second);
    const std::optional<lumen::SessionId> id =
        manager->open(probe.first, probe.second);
    checks.expect_cost("rwa probe", id.has_value(),
                       id ? manager->find(*id)->cost : 0.0, want.found,
                       want.cost);
    if (id) checks.expect(manager->close(*id), "rwa: probe close failed");
  }

  out.failures = checks.take();
  out.attempted = opens + closes + cut_count + repairs + 2 * sizes.probes;
  out.failed = errors + out.failures.size();

  const double offered = static_cast<double>(after.offered - before.offered);
  const double cuts_d = static_cast<double>(cut_count);
  out.describe = "1 closed-loop client, " +
                 format_number(sizes.restore_erlangs) +
                 " Erlangs offered, cuts on the " +
                 std::to_string(sizes.cut_spans) + " busiest spans";
  out.metrics = {
      setup.metric("spread over the window"),
      rss,
      {"ops_per_s", timeline.rate(), "1/s",
       kSliceNote + std::to_string(opens) + " opens + " +
           std::to_string(closes) + " closes + " + std::to_string(cut_count) +
           " cuts + " + std::to_string(repairs) + " repairs"},
      timeline.latency("admit_p50_us", 0.50),
      timeline.latency("admit_p90_us", 0.90),
      timeline.latency("admit_p99_us", 0.99),
      {"blocked_pct",
       100.0 * ratio(static_cast<double>(after.blocked - before.blocked),
                     offered),
       "%", ""},
      restores.latency("restore_p50_us", 0.50),
      restores.latency("restore_p99_us", 0.99),
      {"dropped_pct",
       100.0 * ratio(static_cast<double>(dropped), static_cast<double>(affected)),
       "%", std::to_string(dropped) + " of " + std::to_string(affected)},
      {"rwa.rerouted_per_cut", ratio(static_cast<double>(rerouted), cuts_d),
       "count", ""},
      {"rwa.affected_per_cut", ratio(static_cast<double>(affected), cuts_d),
       "count", ""},
      {"svc.cpu_per_wall", ratio(cpu, window_s), "ratio", ""},
  };
  core_after.report(setup.exclude(core_before), offered, out.metrics);
}

// ---------------------------------------------------------------------------
// paper-ls: the paper's per-request router, and CFZ on a shared sample.

void run_paper(const RunOptions& options, const Sizes& sizes,
               const WdmNetwork& net, bool traced, PassResult& out) {
  // The build-once engine is the program's state here; it also serves as
  // the oracle every LS route is checked against.
  RouteEngine engine(net);

  const std::vector<Demand> demands =
      scattered_demands(net.num_nodes(), sizes.demands, options.seed);
  if (traced) out.spans.resize(1);
  SpanBuffer* spans = traced ? &out.spans[0] : nullptr;
  (void)lumen::route_semilightpath(net, demands[0].first, demands[0].second);

  struct Routed {
    bool found = false;
    double cost = 0.0;
  };
  std::vector<Routed> routed;
  double build_s = 0.0, search_s = 0.0, pops = 0.0;
  const auto window_ns = static_cast<std::int64_t>(options.seconds * 1e9);
  SetupSampler setup(window_ns, [&]() -> std::shared_ptr<void> {
    return std::make_shared<RouteEngine>(net);
  });
  const Metric rss = peak_rss();
  const double cpu_before = cpu_seconds();
  const std::int64_t start = now_ns();
  out.window_start_ns = start;
  Timeline timeline(start, window_ns);
  std::int64_t t = start, paused_ns = 0;
  for (std::size_t i = 0;;) {
    if (setup.due(t - start - paused_ns)) {
      paused_ns += setup.sample();
      t = now_ns();
      continue;
    }
    if (t - start - paused_ns >= window_ns) break;
    const Demand& demand = demands[i % demands.size()];
    const std::int64_t t0 = now_ns();
    const RouteResult result =
        lumen::route_semilightpath(net, demand.first, demand.second);
    t = now_ns();
    timeline.admit(t0 - paused_ns, t - paused_ns);
    build_s += result.stats.build_seconds;
    search_s += result.stats.search_seconds;
    pops += static_cast<double>(result.stats.search_pops);
    if (routed.size() < demands.size())
      routed.push_back({result.found, result.cost});
    if (spans) spans->record(SpanName::kCoreRoute, i, t0, t);
    ++i;
  }
  const double window_s = 1e-9 * static_cast<double>(t - start - paused_ns);
  out.window_thread_ns = 1e9 * window_s;
  const double cpu = cpu_seconds() - cpu_before - setup.cpu_s();

  Checks checks(options.corrupt);
  if (setup.error()) checks.expect(false, *setup.error());
  for (std::size_t i = 0; i < routed.size(); ++i) {
    const RouteResult want =
        engine.route_semilightpath(demands[i].first, demands[i].second);
    checks.expect_cost("LS vs engine", routed[i].found, routed[i].cost,
                       want.found, want.cost);
  }

  // The shared sample: LS and CFZ back to back on the same demands.
  double ls_ns = 0.0, cfz_ns = 0.0;
  const std::size_t sample = std::min(sizes.cfz_sample, demands.size());
  for (std::size_t i = 0; i < sample; ++i) {
    const Demand& demand = demands[i];
    const std::int64_t t0 = now_ns();
    const RouteResult ls =
        lumen::route_semilightpath(net, demand.first, demand.second);
    const std::int64_t t1 = now_ns();
    const RouteResult cfz = lumen::cfz_route(net, demand.first, demand.second);
    const std::int64_t t2 = now_ns();
    ls_ns += static_cast<double>(t1 - t0);
    cfz_ns += static_cast<double>(t2 - t1);
    checks.expect_cost("CFZ vs LS", cfz.found, cfz.cost, ls.found, ls.cost);
  }

  out.failures = checks.take();
  out.attempted = timeline.calls() + 2 * sample;
  out.failed = out.failures.size();

  const double routes = static_cast<double>(timeline.calls());
  out.describe = std::to_string(demands.size()) +
                 " scattered demands routed in turn, CFZ on the first " +
                 std::to_string(sample);
  out.metrics = {
      setup.metric("RouteEngine, spread over the window"),
      rss,
      {"ops_per_s", timeline.rate(), "1/s",
       kSliceNote + std::to_string(timeline.calls()) + " routes"},
      timeline.latency("admit_p50_us", 0.50),
      timeline.latency("admit_p90_us", 0.90),
      timeline.latency("admit_p99_us", 0.99),
      {"ls_vs_cfz_x", ratio(cfz_ns, ls_ns), "x",
       "on " + std::to_string(sample) + " shared demands"},
      {"core.ls_build_us", 1e6 * ratio(build_s, routes), "us", ""},
      {"core.ls_search_us", 1e6 * ratio(search_s, routes), "us", ""},
      {"core.ls_pops", ratio(pops, routes), "count", ""},
      {"core.cfz_route_us",
       1e-3 * ratio(cfz_ns, static_cast<double>(sample)), "us", ""},
      {"svc.cpu_per_wall", ratio(cpu, window_s), "ratio", ""},
  };
}

}  // namespace

PassResult run_workload(const RunOptions& options, bool traced) {
  const Sizes sizes = sizes_for(options.tiny);
  PassResult out;
  // Why each workload exists:
  if (options.workload == "svc-backbone") {
    // Long paths on the metro/backbone WAN put most of an admission's work
    // into cross-shard re-sync and, with a hierarchy on, customization:
    // the workload where CH can pay off.  One client, so deterministic.
    // Not gated by BENCHMARK.json: its speed follows the host's too
    // closely (see README.md).
    run_service(options, sizes, backbone_wan(sizes.nodes, kNetworkSeed),
                sizes.backbone_erlangs, 1, traced, out);
  } else if (options.workload == "svc-sparse-mt") {
    // The other side of any CH/ALT choice (ALT wins on expander-like
    // graphs), with one client per core: slot-table conflicts,
    // shard-mutex contention and thread scaling.
    const std::uint32_t clients =
        std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
    run_service(options, sizes, sparse_wan(sizes.nodes, kNetworkSeed),
                sizes.sparse_erlangs, clients, traced, out);
  } else if (options.workload == "restore-sparse") {
    // The write side of the engine: span cuts on the busiest spans force
    // bulk weight patches and reroute bursts beside ordinary reads.
    run_restore(options, sizes, sparse_wan(sizes.nodes, kNetworkSeed), traced,
                out);
  } else if (options.workload == "paper-ls") {
    // The paper's own algorithm: auxiliary-graph construction plus heap
    // Dijkstra per request, a layer no other workload touches, against
    // the CFZ baseline it improves on.
    run_paper(options, sizes, sparse_wan(sizes.nodes, kNetworkSeed), traced,
              out);
  } else {
    throw std::invalid_argument("unknown workload: " + options.workload);
  }

  out.metrics.push_back(
      {"failed_pct",
       100.0 * ratio(static_cast<double>(out.failed),
                     static_cast<double>(out.attempted)),
       "%",
       std::to_string(out.failed) + " of " + std::to_string(out.attempted)});

  // Mean self time per call of each layer span the traced pass recorded.
  out.trace = summarize(out.spans);
  const std::pair<const char*, SpanName> span_metrics[] = {
      {"svc.open_us", SpanName::kSvcOpen},
      {"svc.close_us", SpanName::kSvcClose},
      {"rwa.open_us", SpanName::kRwaOpen},
      {"rwa.close_us", SpanName::kRwaClose},
      {"rwa.fail_span_us", SpanName::kRwaFailSpan},
      {"rwa.repair_span_us", SpanName::kRwaRepairSpan},
  };
  for (const auto& [metric, name] : span_metrics) {
    const SpanTotals& totals = out.trace[name];
    if (totals.count == 0) continue;
    out.metrics.push_back(
        {metric, 1e-3 * totals.self_ns / static_cast<double>(totals.count),
         "us", sample_note(totals.count)});
  }
  if (traced) {
    out.metrics.push_back(
        {"bench.unattributed_pct",
         100.0 * ratio(out.window_thread_ns - out.trace.root_ns,
                       out.window_thread_ns),
         "%", ""});
  }
  return out;
}

}  // namespace perfbench
