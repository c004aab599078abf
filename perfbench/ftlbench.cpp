// ftlbench — the FT-Linda benchmark program (run through perfbench/run.py).
//
// One process runs one workload against a fresh FtLindaSystem and prints one
// JSON line with its metrics. It drives the stack only through public calls:
// FtLindaSystem (construction, crash/recover, replica introspection),
// Runtime::executeAsync, AgsFuture::then/get. Workloads (perfbench/README.md
// says why each exists):
//
//   solo-pipelined        hosts=1, 2 issuers, window 16, out+inp pair AGS
//   replicated-pipelined  hosts=3, 1 issuer on hosts 1 and 2, window 16
//   bag-of-tasks          hosts=3, one synchronous worker per host (§4.2)
//   failover              hosts=3 + WAL, open loop from host 1; crashes and
//                         recovers the sequencer (host 0) at fixed offsets
//
// Modes: --setup-only measures set-up alone (run.py repeats it in fresh
// processes); --trace 1 adds spans around the calls into each layer plus
// standalone replays of the run's commands through the layers' public
// functions, and reports per-layer numbers instead of end-to-end ones.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.hpp"
#include "ftlinda/system.hpp"
#include "ftlinda/verify.hpp"
#include "obs/metrics.hpp"
#include "rsm/wal.hpp"
#include "stats.hpp"
#include "ts/tuple_space.hpp"

using namespace ftl;
using namespace ftl::ftlinda;
using ts::kTsMain;
using tuple::fInt;
using tuple::makePattern;
using tuple::makeTuple;

namespace {

// ---------------------------------------------------------------- basics

std::int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now().time_since_epoch())
      .count();
}

double cpuSeconds() {
  struct rusage ru {};
  ::getrusage(RUSAGE_SELF, &ru);
  auto tv = [](const timeval& t) { return static_cast<double>(t.tv_sec) + t.tv_usec / 1e6; };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

void sleepUntilNs(std::int64_t t) {
  const std::int64_t d = t - nowNs();
  if (d > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(d));
}

/// Sum of every exported sample whose name starts with `prefix` (per-host
/// labels included; crashed stacks keep their frozen counters, so the sum
/// stays monotone across crash/recover).
double sumSamples(const std::string& prefix) {
  double s = 0;
  for (const obs::Sample& x : obs::collect()) {
    if (x.name.compare(0, prefix.size(), prefix) == 0 &&
        (x.name.size() == prefix.size() || x.name[prefix.size()] == '{')) {
      s += x.value;
    }
  }
  return s;
}

double histMean(const char* name) { return obs::histogram(name).snapshot().mean(); }

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool setup_only = false;
  std::string data_dir = ".bench_build/ftlbench-data";
  std::string spans_out;
};

/// Metrics keyed by name, each with its unit, in print order.
struct MetricSet {
  std::vector<std::pair<std::string, std::pair<double, std::string>>> items;
  void put(const std::string& name, double v, const std::string& unit) {
    items.push_back({name, {v, unit}});
  }
};

std::string jsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

std::string jsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

// ---------------------------------------------------------------- workloads

struct Spec {
  std::string name;
  std::uint32_t hosts = 1;
  std::vector<net::HostId> issuers;  // one load thread per entry
  std::size_t window = 16;           // pipelined workloads
  std::size_t resident = 0;          // resident tuples preloaded in set-up
  bool wal = false;
};

// Resident sets and round sizes are fixed so set-up stays in the tens of
// milliseconds, where repeated fresh-process set-ups agree (README.md).
constexpr std::size_t kResident = 50'000;
constexpr std::size_t kBagRound = 8'192;        // tasks per bag round
constexpr double kWarmupSeconds = 0.5;          // excluded from every figure
constexpr double kSliceSeconds = 0.5;           // throughput is a median of slices
// Failover: at 5000 AGS/s the replicas stay busy enough that idle-CPU wake-up
// latency does not set the figures. One crash per 10 s keeps the requests
// delayed by the outage and the rejoin (about 2%) well out of p90's reach;
// at one per 5 s (about 4%) a slow rejoin could still pull p90 into them.
constexpr double kFailoverRate = 5'000;         // open-loop AGS per second
constexpr double kCyclePeriod = 10.0;           // one crash/recover per period
constexpr double kCrashAt = 0.2;                // share of the period
constexpr double kRecoverAt = 0.4;

std::optional<Spec> specFor(const std::string& w) {
  Spec s;
  s.name = w;
  if (w == "solo-pipelined") {
    s.hosts = 1;
    s.issuers = {0, 0};
    s.resident = kResident;
  } else if (w == "replicated-pipelined") {
    s.hosts = 3;
    s.issuers = {1, 2};
    s.resident = kResident;
  } else if (w == "bag-of-tasks") {
    s.hosts = 3;
    s.issuers = {0, 1, 2};
    s.resident = kResident;
  } else if (w == "failover") {
    s.hosts = 3;
    s.issuers = {1};
    s.resident = kResident;
    s.wal = true;
  } else {
    return std::nullopt;
  }
  return s;
}

/// Everything a workload's inputs are made of, drawn from --seed alone.
struct Inputs {
  std::vector<std::int64_t> resident_vals;  // ("r", j, val)
  std::vector<std::int64_t> issuer_base;    // per issuer: key offset of its pairs
  std::vector<std::int64_t> task_ids;       // bag: distinct ids in deposit order
  std::int64_t param = 0;                   // bag: ("params", param)

  Inputs(const Spec& s, std::uint64_t seed) {
    std::mt19937_64 rng(seed);
    std::uniform_int_distribution<std::int64_t> val(1, 1'000'000'000);
    for (std::size_t j = 0; j < s.resident; ++j) resident_vals.push_back(val(rng));
    for (std::size_t i = 0; i < s.issuers.size(); ++i) {
      issuer_base.push_back(val(rng) * 1'000'000);
    }
    param = val(rng) % 1000 + 1;
    std::uniform_int_distribution<std::int64_t> id(0, (std::int64_t{1} << 40));
    for (std::size_t j = 0; j < kBagRound; ++j) {
      task_ids.push_back(id(rng) * 1024 + static_cast<std::int64_t>(j));  // distinct
    }
  }
};

// AGS shapes. The same functions feed the live run and the traced replays.

Ags pairAgs(std::int64_t issuer, std::int64_t key) {
  return AgsBuilder()
      .when(guardTrue())
      .then(opOut(kTsMain, makeTemplate("t", issuer, key)))
      .then(opInp(kTsMain, makePatternTemplate("t", issuer, key)))
      .build();
}

Ags claimAgs(TsHandle ts, std::int64_t host) {
  return AgsBuilder()
      .when(guardIn(ts, makePattern("subtask", fInt())))
      .then(opOut(ts, makeTemplate("in_progress", host, bound(0))))
      .orWhen(guardIn(ts, makePattern("shutdown")))
      .then(opOut(ts, makeTemplate("shutdown")))
      .build();
}

Ags paramsAgs() {
  return AgsBuilder().when(guardRd(kTsMain, makePattern("params", fInt()))).build();
}

/// One-op statements the benchmark itself issues (set-up, checks, shutdown).
Ags outAgs(TsHandle ts, TupleTemplate t) {
  return AgsBuilder().when(guardTrue()).then(opOut(ts, std::move(t))).build();
}
Ags rdpAgs(TsHandle ts, Pattern p) { return AgsBuilder().when(guardRdp(ts, std::move(p))).build(); }

std::int64_t taskResult(std::int64_t id, std::int64_t param) { return id % 1'000'003 * param + 1; }

Ags completeAgs(TsHandle ts, std::int64_t host, std::int64_t id, std::int64_t result) {
  return AgsBuilder()
      .when(guardIn(ts, makePattern("in_progress", host, id)))
      .then(opOut(ts, makeTemplate("result", id, result)))
      .build();
}

Ags counterAgs() {
  return AgsBuilder()
      .when(guardIn(kTsMain, makePattern("counter", fInt())))
      .then(opOut(kTsMain, makeTemplate("counter", boundExpr(0, ArithOp::Add, 1))))
      .build();
}

/// Preload AGS: up to 64 outs each, so set-up is bounded by apply, not by
/// one round trip per tuple.
std::vector<Ags> preloadAgs(const std::vector<Tuple>& tuples, TsHandle ts) {
  std::vector<Ags> out;
  for (std::size_t i = 0; i < tuples.size(); i += 64) {
    AgsBuilder b;
    b.when(guardTrue());
    for (std::size_t j = i; j < std::min(tuples.size(), i + 64); ++j) {
      TupleTemplate t;
      for (const Value& v : tuples[j].fields()) {
        TemplateField f;
        f.literal = v;
        t.fields.push_back(std::move(f));
      }
      b.then(opOut(ts, std::move(t)));
    }
    out.push_back(b.build());
  }
  return out;
}

std::vector<Tuple> residentTuples(const Inputs& in) {
  std::vector<Tuple> t;
  for (std::size_t j = 0; j < in.resident_vals.size(); ++j) {
    t.push_back(makeTuple("r", static_cast<std::int64_t>(j), in.resident_vals[j]));
  }
  return t;
}

std::vector<Tuple> taskTuples(const Inputs& in) {
  std::vector<Tuple> t;
  for (std::int64_t id : in.task_ids) t.push_back(makeTuple("subtask", id));
  return t;
}

// ---------------------------------------------------------------- tracing

/// Spans the benchmark records around its calls into the library (traced
/// runs only). Kept in memory, per thread, and written out at the end.
enum SpanKind : std::uint8_t { kBuild = 0, kSubmit, kWait, kIdle, kLoop, kSpanKinds };
// kIdle is the open-loop generator waiting for its next due time; with it
// the children of bench.issuer tile the load thread's whole loop.
const char* const kSpanNames[kSpanKinds] = {"ftlinda.build", "ftlinda.submit", "ftlinda.wait",
                                            "gen.idle", "bench.issuer"};

struct Span {
  SpanKind kind;
  std::int64_t start_ns;
  std::int64_t end_ns;
};

struct SpanLog {
  static constexpr std::size_t kKeep = 50'000;  // spans written out per thread
  bool on = false;
  std::vector<Span> kept;
  std::int64_t sum_ns[kSpanKinds] = {};
  std::uint64_t count[kSpanKinds] = {};

  void add(SpanKind k, std::int64_t a, std::int64_t b) {
    if (!on) return;
    sum_ns[k] += b - a;
    ++count[k];
    if (kept.size() < kKeep) kept.push_back({k, a, b});
  }
};

// ---------------------------------------------------------------- completions

/// Per-load-thread record of finished AGS, appended by the completing
/// thread (a future continuation) and read after the run.
struct Completions {
  std::mutex mu;
  std::vector<perfbench::Completion> log;  // submit (or due) -> reply
  std::vector<std::int64_t> late_ns;       // open loop: submit - due
  std::uint64_t failed = 0;
  std::uint64_t wrong = 0;  // replies that contradict the workload's semantics
  std::atomic<std::uint64_t> done{0};

  /// The reply arrived: stamp it. Called from a future continuation, which
  /// must not read the result — the issuer's get() may be moving it out.
  void stamp(std::int64_t from_ns) {
    const std::int64_t t = nowNs();
    {
      std::lock_guard<std::mutex> g(mu);
      log.push_back({from_ns, t});
    }
    done.fetch_add(1, std::memory_order_release);
  }
  /// The load thread judged the result it took with get().
  void verdict(bool ok, bool right) {
    std::lock_guard<std::mutex> g(mu);
    if (!ok) ++failed;
    if (ok && !right) ++wrong;
  }
};

struct LoadThread {
  Completions comp;
  SpanLog spans;
  std::uint64_t submitted = 0;
};

// ---------------------------------------------------------------- system set-up

struct Bench {
  Options opt;
  Spec spec;
  Inputs in;
  std::unique_ptr<FtLindaSystem> sys;
  TsHandle bag_ts = 0;  // current bag round space
  double setup_s = 0;
  std::vector<std::unique_ptr<LoadThread>> threads;

  Bench(Options o, Spec s) : opt(std::move(o)), spec(std::move(s)), in(spec, opt.seed) {}

  std::string walDir() const { return opt.data_dir + "/wal-" + std::to_string(::getpid()); }

  /// Submit `ags` from `rt` with at most `window` outstanding; every reply
  /// must succeed.
  static bool pump(Runtime& rt, const std::vector<Ags>& ags, std::size_t window) {
    std::deque<AgsFuture> q;
    bool ok = true;
    for (const Ags& a : ags) {
      q.push_back(rt.executeAsync(a));
      if (q.size() >= window) {
        auto r = q.front().get();
        ok = ok && r.ok() && r.value().succeeded;
        q.pop_front();
      }
    }
    for (auto& f : q) {
      auto r = f.get();
      ok = ok && r.ok() && r.value().succeeded;
    }
    return ok;
  }

  /// Deposit one bag round (a fresh stable space holding kBagRound tasks).
  bool loadBagRound() {
    bag_ts = sys->runtime(0).createTs(TsAttributes{true, true});
    return pump(sys->runtime(0), preloadAgs(taskTuples(in), bag_ts), 16);
  }

  /// set-up = construct the system, preload the workload's resident tuples,
  /// and have one AGS answered on every host.
  bool setUp() {
    SystemConfig cfg;
    cfg.hosts = spec.hosts;
    cfg.consul = simulationConsulConfig();
    if (spec.wal) {
      cfg.monitor_main = true;
      cfg.wal.dir = walDir();
      // The data dir must stay inside the checkout, which may be on a shared
      // disk: skip fdatasync so the figures measure the WAL code (framing,
      // writes, compaction, suffix catch-up), not that disk. Real fsync cost
      // is E16's subject.
      cfg.wal.sync = false;
      std::filesystem::remove_all(cfg.wal.dir);
    } else {
      // No crashes here: a load spike must never look like one. Heartbeats
      // and acks keep their simulation periods, so the sequencer's log is
      // truncated a little at a time (rare acks made every run pause for a
      // bulk truncation every few seconds).
      cfg.consul.failure_timeout = Micros{60'000'000};
    }
    const std::int64_t t0 = nowNs();
    sys = std::make_unique<FtLindaSystem>(cfg);
    Runtime& rt0 = sys->runtime(0);
    bool ok = pump(rt0, preloadAgs(residentTuples(in), kTsMain), 16);
    if (spec.name == "bag-of-tasks") {
      ok = ok && pump(rt0, preloadAgs({makeTuple("params", in.param)}, kTsMain), 1) &&
           loadBagRound();
    } else if (spec.name == "failover") {
      ok = ok && pump(rt0, preloadAgs({makeTuple("counter", std::int64_t{0})}, kTsMain), 1);
    }
    for (net::HostId h = 0; h < spec.hosts; ++h) {
      const Ags probe = rdpAgs(kTsMain, makePattern("r", fInt(), fInt()));
      ok = ok && sys->runtime(h).executeAsync(probe).get().ok();
    }
    setup_s = static_cast<double>(nowNs() - t0) / 1e9;
    return ok;
  }

  /// Wait until every live replica reports the same state digest.
  bool replicasAgree(double timeout_s = 10) {
    const std::int64_t deadline = nowNs() + static_cast<std::int64_t>(timeout_s * 1e9);
    for (;;) {
      std::vector<Bytes> d;
      for (net::HostId h = 0; h < spec.hosts; ++h) {
        if (sys->isUp(h)) d.push_back(sys->stateMachine(h).stateDigestBytes());
      }
      bool same = true;
      for (const Bytes& b : d) same = same && b == d.front();
      if (same) return true;
      if (nowNs() > deadline) return false;
      std::this_thread::sleep_for(Millis{5});
    }
  }
};

// ---------------------------------------------------------------- measurement

/// What a live run hands to reporting.
struct RunResult {
  bool correct = true;
  std::string why;  // first violated check
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  double ags_per_s = 0;
  double tasks_per_s = 0;
  double cpu_us_per_ags = 0;
  std::vector<perfbench::Completion> window;  // submitted in [from_ns, to_ns)
  std::int64_t from_ns = 0, to_ns = 0;
  std::vector<double> late_us;
  std::vector<double> outage_ms, rejoin_ms, detect_ms;
  void fail(const std::string& w) {
    if (correct) why = w;
    correct = false;
  }
};

/// Throughput and CPU per AGS sampled in fixed slices; the run reports the
/// median slice, which a transient stall on a shared machine cannot move.
struct Slicer {
  std::vector<double> rate, cpu_per;
  std::int64_t t = 0;
  double cpu = 0, done = 0;
  void start(double d) {
    t = nowNs();
    cpu = cpuSeconds();
    done = d;
  }
  void cut(double d) {
    const std::int64_t t1 = nowNs();
    const double c1 = cpuSeconds();
    const double n = d - done;
    if (n > 0) {
      rate.push_back(n / (static_cast<double>(t1 - t) / 1e9));
      cpu_per.push_back((c1 - cpu) / n * 1e6);
    }
    t = t1;
    cpu = c1;
    done = d;
  }
};

void collectLatencies(Bench& b, RunResult& r, std::int64_t from, std::int64_t to) {
  r.from_ns = from;
  r.to_ns = to;
  for (auto& lt : b.threads) {
    std::lock_guard<std::mutex> g(lt->comp.mu);
    for (const auto& c : lt->comp.log) {
      if (c.submit_ns >= from && c.submit_ns < to) r.window.push_back(c);
    }
    for (std::int64_t l : lt->comp.late_ns) r.late_us.push_back(static_cast<double>(l) / 1e3);
    r.failed += lt->comp.failed;
    if (lt->comp.wrong) r.fail("a reply contradicted the workload's semantics");
  }
}

std::uint64_t totalDone(Bench& b) {
  std::uint64_t n = 0;
  for (auto& lt : b.threads) n += lt->comp.done.load(std::memory_order_acquire);
  return n;
}

/// Closed loop, window-deep pipeline per issuer (solo / replicated).
RunResult runPipelined(Bench& b) {
  RunResult r;
  std::atomic<bool> stop{false};
  std::vector<std::thread> ths;
  for (std::size_t i = 0; i < b.spec.issuers.size(); ++i) {
    b.threads.push_back(std::make_unique<LoadThread>());
    b.threads.back()->spans.on = b.opt.trace;
  }
  for (std::size_t i = 0; i < b.spec.issuers.size(); ++i) {
    LoadThread* lt = b.threads[i].get();
    Runtime* rt = &b.sys->runtime(b.spec.issuers[i]);
    const std::int64_t base = b.in.issuer_base[i];
    const std::size_t window = b.spec.window;
    ths.emplace_back([lt, rt, base, window, i, &stop] {
      std::deque<AgsFuture> q;
      // Each pair's inp must find the tuple its own out deposited.
      auto take = [lt](AgsFuture& f) {
        const std::int64_t tw = nowNs();
        Result<Reply> res = f.get();
        lt->spans.add(kWait, tw, nowNs());
        const bool ok = res.ok() && res.value().succeeded;
        lt->comp.verdict(ok, ok && res.value().op_status.size() == 2 && res.value().op_status[1]);
      };
      const std::int64_t loop0 = nowNs();
      for (std::int64_t k = 0; !stop.load(std::memory_order_relaxed); ++k) {
        const std::int64_t tb = nowNs();
        Ags a = pairAgs(static_cast<std::int64_t>(i), base + k);
        const std::int64_t ts = nowNs();
        AgsFuture f = rt->executeAsync(a);
        const std::int64_t te = nowNs();
        lt->spans.add(kBuild, tb, ts);
        lt->spans.add(kSubmit, ts, te);
        Completions* c = &lt->comp;
        f.then([c, ts](const Result<Reply>&) { c->stamp(ts); });
        ++lt->submitted;
        q.push_back(std::move(f));
        if (q.size() >= window) {
          take(q.front());
          q.pop_front();
        }
      }
      for (auto& f : q) take(f);
      lt->spans.add(kLoop, loop0, nowNs());
    });
  }
  sleepUntilNs(nowNs() + static_cast<std::int64_t>(kWarmupSeconds * 1e9));
  Slicer sl;
  sl.start(static_cast<double>(totalDone(b)));
  const std::int64_t m0 = nowNs();
  const std::int64_t m1 = m0 + static_cast<std::int64_t>(b.opt.seconds * 1e9);
  for (std::int64_t t = m0 + static_cast<std::int64_t>(kSliceSeconds * 1e9); t <= m1;
       t += static_cast<std::int64_t>(kSliceSeconds * 1e9)) {
    sleepUntilNs(t);
    sl.cut(static_cast<double>(totalDone(b)));
  }
  stop.store(true);
  for (auto& t : ths) t.join();
  // Continuations run after get() can return; wait for every one.
  std::uint64_t submitted = 0;
  for (auto& lt : b.threads) submitted += lt->submitted;
  while (totalDone(b) < submitted) std::this_thread::yield();

  r.attempted = submitted;
  r.ags_per_s = perfbench::median(sl.rate);
  r.cpu_us_per_ags = perfbench::median(sl.cpu_per);
  collectLatencies(b, r, m0, m1);
  // Every out was matched by its inp: only the resident set remains.
  if (!b.replicasAgree()) r.fail("replica digests differ");
  for (net::HostId h = 0; h < b.spec.hosts; ++h) {
    if (b.sys->stateMachine(h).tupleCount(kTsMain) != b.spec.resident) {
      r.fail("pair tuples left behind on host " + std::to_string(h));
    }
  }
  return r;
}

/// Bag-of-tasks in rounds: each round is a fresh stable space of kBagRound
/// tasks that the workers drain; only draining is timed. Between rounds the
/// benchmark checks the round and destroys its space.
RunResult runBag(Bench& b) {
  RunResult r;
  const std::size_t nw = b.spec.issuers.size();
  for (std::size_t i = 0; i < nw; ++i) {
    b.threads.push_back(std::make_unique<LoadThread>());
    b.threads.back()->spans.on = b.opt.trace;
  }
  std::mutex mu;
  std::condition_variable cv;
  std::uint64_t round = 0;  // bumped to release the workers into a round
  bool quit = false;
  std::size_t parked = 0;
  std::atomic<std::uint64_t> tasks_done{0};
  std::atomic<std::uint64_t> round_target{0};
  std::atomic<std::int64_t> round_end_ns{0};  // set by whoever completes the last task
  std::atomic<bool> broken{false};            // a worker stopped on a failed AGS
  const std::int64_t param = b.in.param;

  auto worker = [&](std::size_t i) {
    LoadThread* lt = b.threads[i].get();
    Runtime& rt = b.sys->runtime(b.spec.issuers[i]);
    const std::int64_t host = static_cast<std::int64_t>(b.spec.issuers[i]);
    std::uint64_t seen = 0;
    // One synchronous AGS: spans around build/submit/get, latency from submit.
    auto exec = [&](auto&& build) -> Result<Reply> {
      const std::int64_t tb = nowNs();
      Ags a = build();
      const std::int64_t ts = nowNs();
      AgsFuture f = rt.executeAsync(a);
      const std::int64_t tw = nowNs();
      Result<Reply> res = f.get();
      const std::int64_t te = nowNs();
      lt->spans.add(kBuild, tb, ts);
      lt->spans.add(kSubmit, ts, tw);
      lt->spans.add(kWait, tw, te);
      ++lt->submitted;
      return res;
    };
    auto note = [&](const Result<Reply>& res, std::int64_t from, bool right) {
      const bool ok = res.ok() && res.value().succeeded;
      lt->comp.stamp(from);
      lt->comp.verdict(ok, right);
      return ok && right;
    };
    for (;;) {
      {
        std::unique_lock<std::mutex> g(mu);
        ++parked;  // before the wait below; the round's AGS are all answered
        cv.notify_all();
        cv.wait(g, [&] { return quit || round != seen; });
        if (quit) return;
        seen = round;
        --parked;
      }
      const TsHandle ts = b.bag_ts;
      const std::int64_t loop0 = nowNs();
      for (;;) {
        std::int64_t t0 = nowNs();
        Result<Reply> c = exec([&] { return claimAgs(ts, host); });
        if (c.ok() && c.value().branch == 1) break;  // round over
        bool ok = note(c, t0, c.ok() && c.value().branch == 0);
        const std::int64_t id = ok ? c.value().boundInt(0) : 0;
        if (ok) {
          t0 = nowNs();
          Result<Reply> p = exec([] { return paramsAgs(); });
          ok = note(p, t0,
                    p.ok() && p.value().bindings.size() == 1 && p.value().boundInt(0) == param);
        }
        if (ok) {
          t0 = nowNs();
          Result<Reply> d = exec([&] { return completeAgs(ts, host, id, taskResult(id, param)); });
          ok = note(d, t0, true);
        }
        if (!ok) {
          broken.store(true);
          break;
        }
        if (tasks_done.fetch_add(1) + 1 == round_target.load()) round_end_ns.store(nowNs());
      }
      lt->spans.add(kLoop, loop0, nowNs());
    }
  };

  std::vector<std::thread> ths;
  for (std::size_t i = 0; i < nw; ++i) ths.emplace_back(worker, i);
  auto waitParked = [&] {
    std::unique_lock<std::mutex> g(mu);
    cv.wait(g, [&] { return parked == nw; });
  };
  Runtime& rt0 = b.sys->runtime(0);
  std::vector<double> round_rate, round_cpu;
  std::int64_t m_first = 0, m_last = 0;
  const std::int64_t warm_end = nowNs() + static_cast<std::int64_t>(kWarmupSeconds * 1e9);
  double measured_s = 0;
  for (std::uint64_t rd = 1;; ++rd) {
    waitParked();
    if (rd > 1 && !b.loadBagRound()) r.fail("bag round preload failed");
    const std::uint64_t before = totalDone(b);
    round_target.store(tasks_done.load() + kBagRound);
    round_end_ns.store(0);
    const double cpu0 = cpuSeconds();
    const std::int64_t t0 = nowNs();
    {
      std::lock_guard<std::mutex> g(mu);
      round = rd;
    }
    cv.notify_all();
    while (round_end_ns.load() == 0 && !broken.load()) std::this_thread::sleep_for(Micros{200});
    if (broken.load()) r.fail("a worker's AGS failed");
    const std::int64_t t1 = round_end_ns.load();
    const double cpu1 = cpuSeconds();
    const std::uint64_t ags = totalDone(b) - before;
    // Release the blocked workers (disjunctive guard), then check the round.
    if (!rt0.executeAsync(outAgs(b.bag_ts, makeTemplate("shutdown"))).get().ok()) {
      r.fail("shutdown deposit failed");
    }
    waitParked();
    // Ordered after every worker's last AGS, so host 0 has applied them all.
    (void)rt0.executeAsync(rdpAgs(b.bag_ts, makePattern("shutdown"))).get();
    std::map<std::int64_t, int> results;
    std::size_t stray = 0;
    for (const Tuple& t : b.sys->stateMachine(0).spaceContents(b.bag_ts)) {
      const std::string name(t.field(0).asStr());
      if (name == "result") {
        const std::int64_t id = t.field(1).asInt();
        if (t.field(2).asInt() != taskResult(id, param)) r.fail("wrong task result");
        ++results[id];
      } else if (name != "shutdown") {
        ++stray;
      }
    }
    if (stray) r.fail("subtask/in_progress tuples left after a round");
    for (std::int64_t id : b.in.task_ids) {
      auto it = results.find(id);
      if (it == results.end() || it->second != 1) {
        r.fail("a task does not have exactly one result");
        break;
      }
    }
    if (results.size() != kBagRound) r.fail("results for unknown tasks");
    rt0.destroyTs(b.bag_ts);
    if (r.correct && t0 >= warm_end) {
      const double secs = static_cast<double>(t1 - t0) / 1e9;
      round_rate.push_back(static_cast<double>(kBagRound) / secs);
      round_cpu.push_back((cpu1 - cpu0) / static_cast<double>(ags) * 1e6);
      measured_s += secs;
      if (!m_first) m_first = t0;
      m_last = t1;
    }
    if (!r.correct || measured_s >= b.opt.seconds) break;
  }
  {
    std::lock_guard<std::mutex> g(mu);
    quit = true;
  }
  cv.notify_all();
  for (auto& t : ths) t.join();
  std::uint64_t submitted = 0;
  for (auto& lt : b.threads) submitted += lt->submitted;
  r.attempted = submitted;
  r.tasks_per_s = perfbench::median(round_rate);
  r.ags_per_s = r.tasks_per_s * 3;
  r.cpu_us_per_ags = perfbench::median(round_cpu);
  // Latency of the claim/rd/complete AGS of measured rounds; the claims that
  // end a round block on purpose and are not recorded.
  collectLatencies(b, r, m_first, m_last + 1);
  if (!b.replicasAgree()) r.fail("replica digests differ");
  return r;
}

/// Open loop at kFailoverRate from host 1 while the sequencer (host 0) is
/// crashed and recovered at fixed offsets of every cycle (kCyclePeriod long,
/// or the whole window of a shorter run).
RunResult runFailover(Bench& b) {
  RunResult r;
  b.threads.push_back(std::make_unique<LoadThread>());  // generator
  b.threads.back()->spans.on = b.opt.trace;
  LoadThread* gen = b.threads.back().get();
  Runtime& rt1 = b.sys->runtime(1);
  Runtime& rt2 = b.sys->runtime(2);

  // Monitor on host 2: takes each failure tuple and stamps when it arrived.
  std::mutex fmu;
  std::vector<std::int64_t> failure_seen;
  std::thread monitor([&] {
    for (;;) {
      auto res = rt2.executeAsync(AgsBuilder()
                                      .when(guardIn(kTsMain, makePattern("failure", fInt())))
                                      .orWhen(guardIn(kTsMain, makePattern("stop_monitor")))
                                      .build())
                     .get();
      const std::int64_t t = nowNs();
      if (!res.ok() || res.value().branch != 0) return;
      std::lock_guard<std::mutex> g(fmu);
      failure_seen.push_back(t);
    }
  });

  const std::int64_t t0 = nowNs() + 1'000'000;
  const std::int64_t m0 = t0 + static_cast<std::int64_t>(kWarmupSeconds * 1e9);
  const std::int64_t m1 = m0 + static_cast<std::int64_t>(b.opt.seconds * 1e9);
  const std::int64_t period = static_cast<std::int64_t>(1e9 / kFailoverRate);
  std::thread generator([&] {
    std::deque<AgsFuture> q;
    auto take = [gen](AgsFuture& f) {
      const std::int64_t tw = nowNs();
      Result<Reply> res = f.get();
      gen->spans.add(kWait, tw, nowNs());
      gen->comp.verdict(res.ok() && res.value().succeeded, true);
    };
    const std::int64_t loop0 = nowNs();
    for (std::int64_t i = 0;; ++i) {
      const std::int64_t due = t0 + i * period;
      if (due >= m1) break;
      const std::int64_t ti = nowNs();
      sleepUntilNs(due);
      const std::int64_t tb = nowNs();
      gen->spans.add(kIdle, ti, tb);
      Ags a = counterAgs();
      const std::int64_t ts = nowNs();
      AgsFuture f = rt1.executeAsync(a);
      gen->spans.add(kBuild, tb, ts);
      gen->spans.add(kSubmit, ts, nowNs());
      {
        std::lock_guard<std::mutex> g(gen->comp.mu);
        gen->comp.late_ns.push_back(ts - due);
      }
      Completions* c = &gen->comp;
      f.then([c, due](const Result<Reply>&) { c->stamp(due); });
      ++gen->submitted;
      q.push_back(std::move(f));
      while (!q.empty() && q.front().ready()) {
        take(q.front());
        q.pop_front();
      }
    }
    for (auto& f : q) take(f);
    gen->spans.add(kLoop, loop0, nowNs());
  });

  std::vector<std::int64_t> crash_at;
  const double cpu0 = cpuSeconds();
  const int cycles = std::max(1, static_cast<int>(std::lround(b.opt.seconds / kCyclePeriod)));
  const double cycle_s = b.opt.seconds / cycles;
  for (int c = 0; c < cycles; ++c) {
    const std::int64_t base = m0 + static_cast<std::int64_t>(c * cycle_s * 1e9);
    sleepUntilNs(base + static_cast<std::int64_t>(kCrashAt * cycle_s * 1e9));
    b.sys->crash(0);
    crash_at.push_back(nowNs());
    sleepUntilNs(base + static_cast<std::int64_t>(kRecoverAt * cycle_s * 1e9));
    const std::int64_t rs = nowNs();
    if (!b.sys->recover(0)) r.fail("host 0 did not rejoin");
    r.rejoin_ms.push_back(static_cast<double>(nowNs() - rs) / 1e6);
  }
  generator.join();
  while (totalDone(b) < gen->submitted) std::this_thread::yield();
  const double cpu1 = cpuSeconds();
  (void)rt1.executeAsync(outAgs(kTsMain, makeTemplate("stop_monitor"))).get();
  monitor.join();

  r.attempted = gen->submitted;
  {
    std::lock_guard<std::mutex> g(gen->comp.mu);
    for (std::int64_t c : crash_at) {
      auto o = perfbench::outageMs(c, gen->comp.log);
      if (!o) {
        r.fail("no reply after a crash");
        continue;
      }
      r.outage_ms.push_back(*o);
    }
  }
  {
    std::lock_guard<std::mutex> g(fmu);
    if (failure_seen.size() != crash_at.size()) r.fail("one failure tuple per crash expected");
    for (std::size_t i = 0; i < std::min(failure_seen.size(), crash_at.size()); ++i) {
      r.detect_ms.push_back(static_cast<double>(failure_seen[i] - crash_at[i]) / 1e6);
    }
  }
  collectLatencies(b, r, m0, m1);
  // Replies received inside the window: the open loop's completion rate,
  // which falls below the offered rate only if a backlog builds up.
  std::uint64_t measured = 0;
  std::int64_t first = m1, last = m0;
  {
    std::lock_guard<std::mutex> g(gen->comp.mu);
    for (const auto& c : gen->comp.log) {
      if (c.done_ns < m0 || c.done_ns >= m1) continue;
      ++measured;
      first = std::min(first, c.done_ns);
      last = std::max(last, c.done_ns);
    }
  }
  if (last > first) {
    r.ags_per_s = static_cast<double>(measured - 1) / (static_cast<double>(last - first) / 1e9);
  }
  r.cpu_us_per_ags = (cpu1 - cpu0) / std::max<double>(1, static_cast<double>(measured)) * 1e6;
  // No update lost or applied twice across every failover.
  const std::uint64_t ok_incs = gen->submitted - gen->comp.failed;
  if (!b.replicasAgree()) r.fail("replica digests differ after rejoin");
  auto cnt = rt1.executeAsync(rdpAgs(kTsMain, makePattern("counter", fInt()))).get();
  if (!cnt.ok() || !cnt.value().succeeded ||
      static_cast<std::uint64_t>(cnt.value().boundInt(0)) != ok_incs) {
    r.fail("counter does not equal the number of completed increments");
  }
  return r;
}

// ---------------------------------------------------------------- replays

/// A self-consistent command stream of the workload's AGS shapes, plus the
/// tuples it runs against, for the standalone layer replays.
struct ReplayStream {
  std::vector<Tuple> preload;
  std::vector<Ags> ags;
};

ReplayStream replayStream(const Bench& b, std::size_t n) {
  ReplayStream s;
  if (b.spec.name == "bag-of-tasks") {
    s.preload = taskTuples(b.in);
    s.preload.push_back(makeTuple("params", b.in.param));
    for (std::size_t i = 0; s.ags.size() < n && i < b.in.task_ids.size(); ++i) {
      const std::int64_t id = b.in.task_ids[i];
      s.ags.push_back(claimAgs(kTsMain, 0));
      s.ags.push_back(paramsAgs());
      s.ags.push_back(completeAgs(kTsMain, 0, id, taskResult(id, b.in.param)));
    }
  } else {
    s.preload = residentTuples(b.in);
    if (b.spec.name == "failover") {
      s.preload.push_back(makeTuple("counter", std::int64_t{0}));
      for (std::size_t i = 0; i < n; ++i) s.ags.push_back(counterAgs());
    } else {
      for (std::size_t i = 0; i < n; ++i) {
        const std::size_t issuer = i % b.in.issuer_base.size();
        s.ags.push_back(pairAgs(static_cast<std::int64_t>(issuer),
                                b.in.issuer_base[issuer] + static_cast<std::int64_t>(i)));
      }
    }
  }
  return s;
}

struct Replays {
  double encode_ns = 0, verify_ns = 0, apply_ns = 0;
  double take_ns = 0, read_ns = 0;
  double wal_append_ns = 0, wal_commit_ns = 0;
};

Replays runReplays(const Bench& b, std::size_t apply_batch) {
  Replays out;
  const ReplayStream s = replayStream(b, 24'000);
  const double n = static_cast<double>(s.ags.size());

  // encode + verify, over the stream's AGS.
  std::vector<Bytes> enc;
  enc.reserve(s.ags.size());
  std::int64_t t = nowNs();
  for (std::size_t i = 0; i < s.ags.size(); ++i) {
    enc.push_back(makeExecute(i + 1, s.ags[i]).encode());
  }
  out.encode_ns = static_cast<double>(nowNs() - t) / n;
  std::size_t bad = 0;
  t = nowNs();
  for (const Bytes& e : enc) {
    const BytesView ags_bytes(e.data() + kCommandHeaderBytes, e.size() - kCommandHeaderBytes);
    bad += !verifyEncoded(ags_bytes).ok();
  }
  out.verify_ns = static_cast<double>(nowNs() - t) / n;
  FTL_CHECK(bad == 0, "replay stream failed verification");

  // apply, in the run's batch size, on a standalone state machine.
  {
    TsStateMachine sm([](net::HostId, std::uint64_t, const Reply&) {});
    std::uint64_t gseq = 0;
    auto batchOf = [&](const std::vector<Bytes>& cmds, std::size_t from, std::size_t to) {
      std::vector<rsm::BatchItem> items;
      for (std::size_t i = from; i < to; ++i) {
        ++gseq;
        items.push_back({rsm::ApplyContext{gseq, 0, gseq, 0}, BytesView(cmds[i])});
      }
      return items;
    };
    std::vector<Bytes> pre;
    for (const Ags& a : preloadAgs(s.preload, kTsMain)) pre.push_back(makeExecute(0, a).encode());
    sm.applyBatch(batchOf(pre, 0, pre.size()));
    const std::size_t bs = std::max<std::size_t>(1, apply_batch);
    std::int64_t spent = 0;
    for (std::size_t i = 0; i < enc.size(); i += bs) {
      const auto items = batchOf(enc, i, std::min(enc.size(), i + bs));
      const std::int64_t a = nowNs();
      sm.applyBatch(items);
      spent += nowNs() - a;
    }
    out.apply_ns = static_cast<double>(spent) / n;
    FTL_CHECK(sm.blockedCount() == 0, "replay stream blocked on the standalone replica");
  }

  // TupleSpace take / readRef with the probes the workload's guards and body
  // ops make, a window of 16 at a time: the pairs' bucket then holds what a
  // 16-deep pipeline keeps in flight, as in the live run.
  {
    ts::TupleSpace space;
    for (const Tuple& x : s.preload) space.put(x);
    std::vector<Tuple> puts;  // deposited just before their window is probed
    std::vector<Pattern> takes;
    std::vector<Pattern> reads;
    const std::size_t m = 8'192;
    for (std::size_t i = 0; i < m; ++i) {
      if (b.spec.name == "bag-of-tasks") {
        takes.push_back(makePattern("subtask", fInt()));
        reads.push_back(makePattern("params", fInt()));
      } else if (b.spec.name == "failover") {
        if (i > 0) puts.push_back(makeTuple("counter", static_cast<std::int64_t>(i)));
        takes.push_back(makePattern("counter", fInt()));
        reads.push_back(makePattern("counter", fInt()));
      } else {
        const std::int64_t key = b.in.issuer_base[0] + static_cast<std::int64_t>(i);
        puts.push_back(makeTuple("t", std::int64_t{0}, key));
        takes.push_back(makePattern("t", std::int64_t{0}, key));
        reads.push_back(takes.back());
      }
    }
    std::size_t hits = 0;
    std::int64_t read_ns = 0, take_ns = 0;
    for (std::size_t w = 0; w < m; w += 16) {
      const std::size_t end = std::min(m, w + 16);
      for (std::size_t i = w; i < std::min(end, puts.size()); ++i) space.put(puts[i]);
      t = nowNs();
      for (std::size_t i = w; i < end; ++i) hits += space.readRef(reads[i]) != nullptr;
      const std::int64_t t1 = nowNs();
      for (std::size_t i = w; i < end; ++i) hits += space.take(takes[i]).has_value();
      take_ns += nowNs() - t1;
      read_ns += t1 - t;
    }
    out.read_ns = static_cast<double>(read_ns) / static_cast<double>(m);
    out.take_ns = static_cast<double>(take_ns) / static_cast<double>(m);
    FTL_CHECK(hits == 2 * m, "replay take/read missed");
  }

  // WAL append + commit of the stream as log entries, in the run's batches.
  {
    const std::string dir = b.walDir() + "-replay";
    std::filesystem::remove_all(dir);
    {
      rsm::WalConfig wc;
      wc.dir = dir;
      wc.sync = false;  // as in the failover workload
      rsm::Wal wal(wc);
      (void)wal.recover();
      const std::size_t bs = std::max<std::size_t>(1, apply_batch);
      std::int64_t append = 0, commit = 0;
      std::size_t commits = 0;
      consul::LogEntry e;
      e.origin = 1;
      for (std::size_t i = 0; i < enc.size(); ++i) {
        e.gseq = i + 1;
        e.origin_seq = i + 1;
        e.payload = enc[i];
        const std::int64_t a = nowNs();
        wal.append(e);
        append += nowNs() - a;
        if ((i + 1) % bs == 0 || i + 1 == enc.size()) {
          const std::int64_t c = nowNs();
          wal.commit();
          commit += nowNs() - c;
          ++commits;
        }
      }
      out.wal_append_ns = static_cast<double>(append) / n;
      out.wal_commit_ns = static_cast<double>(commit) / static_cast<double>(commits);
    }
    std::filesystem::remove_all(dir);
  }
  return out;
}

// ---------------------------------------------------------------- stamp / output

std::string cpuModel() {
  std::ifstream f("/proc/cpuinfo");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto p = line.find(':');
      return p == std::string::npos ? line : line.substr(p + 2);
    }
  }
  return "unknown";
}

std::string stampJson(const Options& o) {
  const char* sha = std::getenv("FTLBENCH_GIT_SHA");
  std::ostringstream s;
  s << "{\"nproc\": " << std::thread::hardware_concurrency() << ", \"cpu_model\": "
    << jsonString(cpuModel()) << ", \"build_type\": " << jsonString(FTLBENCH_BUILD_TYPE)
    << ", \"git_sha\": " << jsonString(sha && *sha ? sha : "unknown")
    << ", \"workload\": " << jsonString(o.workload) << ", \"seed\": " << o.seed
    << ", \"injected_delay_us\": 0}";
  return s.str();
}

void printResult(const Options& o, const RunResult& r, const MetricSet& m, double setup_s,
                 const std::string& extra) {
  std::ostringstream s;
  s << "{\"correct\": " << (r.correct ? "true" : "false") << ", \"attempted\": " << r.attempted
    << ", \"failed\": " << r.failed << ", \"why\": " << jsonString(r.why)
    << ", \"setup_s\": " << jsonNumber(setup_s) << ", \"stamp\": " << stampJson(o)
    << ", \"metrics\": {";
  for (std::size_t i = 0; i < m.items.size(); ++i) {
    s << (i ? ", " : "") << jsonString(m.items[i].first) << ": {\"value\": "
      << jsonNumber(m.items[i].second.first) << ", \"unit\": "
      << jsonString(m.items[i].second.second) << "}";
  }
  s << "}" << extra << "}";
  std::printf("%s\n", s.str().c_str());
  std::fflush(stdout);
}

void writeSpans(const Bench& b, const std::string& path) {
  if (path.empty()) return;
  std::ofstream f(path);
  for (std::size_t i = 0; i < b.threads.size(); ++i) {
    for (const Span& sp : b.threads[i]->spans.kept) {
      f << "{\"thread\": " << i << ", \"name\": \"" << kSpanNames[sp.kind]
        << "\", \"start_ns\": " << sp.start_ns << ", \"end_ns\": " << sp.end_ns
        << ", \"parent\": " << (sp.kind == kLoop ? "null" : "\"bench.issuer\"") << "}\n";
    }
  }
}

int usage() {
  std::fprintf(stderr,
               "usage: ftlbench --workload <solo-pipelined|replicated-pipelined|bag-of-tasks|"
               "failover> [--seed N] [--seconds S] [--trace 0|1] [--setup-only]\n"
               "                [--data-dir DIR] [--spans-out FILE]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> std::string { return i + 1 < argc ? argv[++i] : ""; };
    if (a == "--workload") o.workload = next();
    else if (a == "--seed") o.seed = std::strtoull(next().c_str(), nullptr, 10);
    else if (a == "--seconds") o.seconds = std::atof(next().c_str());
    else if (a == "--trace") o.trace = next() == "1";
    else if (a == "--setup-only") o.setup_only = true;
    else if (a == "--data-dir") o.data_dir = next();
    else if (a == "--spans-out") o.spans_out = next();
    else return usage();
  }
  const std::optional<Spec> spec = specFor(o.workload);
  if (!spec || !(o.seconds > 0)) return usage();
  ftl::log::setLevel(LogLevel::Error);

  Bench b(o, *spec);
  RunResult r;
  if (!b.setUp()) r.fail("set-up AGS failed");
  if (o.setup_only || !r.correct) {
    MetricSet m;
    m.put("setup_s", b.setup_s, "s");
    printResult(o, r, m, b.setup_s, "");
    b.sys.reset();
    std::filesystem::remove_all(b.walDir());
    return r.correct ? 0 : 1;
  }

  const std::vector<obs::Sample> base = obs::snapshotAll();
  const net::TrafficStats net0 = b.sys->network().totalStats();
  const double views0 = sumSamples("ftl_consul_views_installed");
  const double probes0 = sumSamples("ftl_sm_wake_probes");
  const double self0 = sumSamples("ftl_consul_self_deliveries");
  const double deliv0 = sumSamples("ftl_consul_deliveries");
  obs::resetAll();

  RunResult run = b.spec.name == "bag-of-tasks" ? runBag(b)
                  : b.spec.name == "failover"   ? runFailover(b)
                                                : runPipelined(b);
  // Everything the run completed, warm-up included (the counters cover it).
  double all_done = 0;
  for (auto& lt : b.threads) all_done += static_cast<double>(lt->comp.done.load());

  MetricSet m;
  // Latency percentiles per 0.5 s slice, then the median slice, like the
  // throughput: a stall the machine imposes on one slice does not move them.
  const auto slice_ns = static_cast<std::int64_t>(kSliceSeconds * 1e9);
  const auto p50 = perfbench::slicedPercentileUs(run.window, run.from_ns, run.to_ns, slice_ns, 50);
  const auto p90 = perfbench::slicedPercentileUs(run.window, run.from_ns, run.to_ns, slice_ns, 90);
  if (!p50 || !p90) run.fail("too few latency samples for p90");

  if (!o.trace) {
    m.put("setup_s", b.setup_s, "s");
    m.put("ags_per_s", run.ags_per_s, "1/s");
    m.put("ags_p50_us", p50.value_or(0), "us");
    m.put("ags_p90_us", p90.value_or(0), "us");
    m.put("cpu_us_per_ags", run.cpu_us_per_ags, "us");
  } else {
    const net::TrafficStats net1 = b.sys->network().totalStats();
    const double per = std::max(1.0, all_done);
    auto delta = [&](const char* n) { return obs::sampleValue(obs::deltaSince(base), n); };
    double sums[kSpanKinds] = {};
    double counts[kSpanKinds] = {};
    for (auto& lt : b.threads) {
      for (int k = 0; k < kSpanKinds; ++k) {
        sums[k] += static_cast<double>(lt->spans.sum_ns[k]);
        counts[k] += static_cast<double>(lt->spans.count[k]);
      }
    }
    auto meanSpan = [&](SpanKind k) { return counts[k] ? sums[k] / counts[k] : 0.0; };
    const double apply_batch = histMean("ftl_consul_apply_batch_size");
    const Replays rp =
        runReplays(b, static_cast<std::size_t>(std::lround(std::max(1.0, apply_batch))));
    const double loop = sums[kLoop];
    const double blocking = sums[kBuild] + sums[kSubmit] + sums[kWait] + sums[kIdle];

    m.put("ftlinda.build_ns", meanSpan(kBuild), "ns");
    m.put("ftlinda.encode_ns", rp.encode_ns, "ns");
    m.put("ftlinda.verify_ns", rp.verify_ns, "ns");
    m.put("ftlinda.submit_ns", meanSpan(kSubmit), "ns");
    m.put("ftlinda.wait_ns", counts[kWait] ? sums[kWait] / per : 0.0, "ns");
    m.put("ftlinda.apply_ns", rp.apply_ns, "ns");
    m.put("ts.take_ns", rp.take_ns, "ns");
    m.put("ts.read_ns", rp.read_ns, "ns");
    const double probes = sumSamples("ftl_sm_wake_probes") - probes0;
    m.put("ftlinda.wake_probes_per_ags", probes / per / b.spec.hosts, "count");
    m.put("net.msgs_per_ags", static_cast<double>(net1.messages_sent - net0.messages_sent) / per,
          "count");
    m.put("net.bytes_per_ags", static_cast<double>(net1.bytes_sent - net0.bytes_sent) / per, "B");
    m.put("consul.send_batch", histMean("ftl_consul_send_batch_size"), "count");
    m.put("consul.apply_batch", apply_batch, "count");
    const double deliv = sumSamples("ftl_consul_deliveries") - deliv0;
    const double self = sumSamples("ftl_consul_self_deliveries") - self0;
    m.put("consul.self_delivery_share", deliv > 0 ? self / deliv : 0.0, "ratio");
    m.put("consul.detect_ms", perfbench::median(run.detect_ms), "ms");
    m.put("consul.views_installed", sumSamples("ftl_consul_views_installed") - views0, "count");
    m.put("rsm.state_bytes", static_cast<double>(b.sys->stateMachine(0).snapshot().size()), "B");
    m.put("wal.catchup_suffix_entries", delta("ftl_wal_catchup_suffix_entries"), "count");
    m.put("wal.catchup_snapshots", delta("ftl_wal_catchup_snapshots"), "count");
    m.put("wal.append_ns", rp.wal_append_ns, "ns");
    m.put("wal.commit_ns", rp.wal_commit_ns, "ns");
    m.put("wal.fsyncs_per_ags", delta("ftl_wal_fsyncs") / per, "count");
    std::sort(run.late_us.begin(), run.late_us.end());
    m.put("gen.late_us", perfbench::percentile(run.late_us, 90).value_or(0), "us");
    m.put("outage_ms", perfbench::median(run.outage_ms), "ms");
    m.put("rejoin_ms", perfbench::median(run.rejoin_ms), "ms");
    m.put("tasks_per_s", run.tasks_per_s, "1/s");
    // Spans on the load threads' blocking path against the threads' wall time.
    m.put("trace.blocking_sum_ms", blocking / 1e6, "ms");
    m.put("trace.e2e_ms", loop / 1e6, "ms");
    m.put("trace.blocking_share", loop > 0 ? blocking / loop : 0.0, "ratio");
    m.put("trace.ags_per_s", run.ags_per_s, "1/s");
    writeSpans(b, o.spans_out);
  }
  // Report lines (stderr) for people; run.py keeps stdout's last line.
  std::fprintf(stderr,
               "%s: %.0f AGS/s, p50 %.1f us, p90 %.1f us, %zu latency samples, attempted %llu, "
               "failed %llu, outage %s ms, rejoin %s ms\n",
               o.workload.c_str(), run.ags_per_s, p50.value_or(0), p90.value_or(0),
               run.window.size(), static_cast<unsigned long long>(run.attempted),
               static_cast<unsigned long long>(run.failed),
               jsonNumber(perfbench::median(run.outage_ms)).c_str(),
               jsonNumber(perfbench::median(run.rejoin_ms)).c_str());
  std::ostringstream extra;
  extra << ", \"tasks_per_s\": " << jsonNumber(run.tasks_per_s)
        << ", \"outage_ms\": " << jsonNumber(perfbench::median(run.outage_ms))
        << ", \"rejoin_ms\": " << jsonNumber(perfbench::median(run.rejoin_ms))
        << ", \"failed_share\": "
        << jsonNumber(run.attempted ? static_cast<double>(run.failed) / run.attempted : 0);
  printResult(o, run, m, b.setup_s, extra.str());
  b.sys.reset();
  std::filesystem::remove_all(b.walDir());
  return run.correct ? 0 : 1;
}
