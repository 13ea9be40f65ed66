#include "cli/serve.h"

#include <csignal>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <condition_variable>
#include <latch>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>

#include "adapt/controller.h"
#include "cli/export.h"
#include "common/http.h"
#include "common/json.h"
#include "common/log.h"
#include "common/metrics.h"
#include "common/profiler.h"
#include "common/prom.h"
#include "common/string_util.h"
#include "common/version.h"
#include "common/watchdog.h"
#include "core/robustness.h"
#include "core/witness.h"
#include "mvcc/driver.h"
#include "mvcc/txn_trace.h"

namespace mvrob {
namespace {

// Steps per engine epoch in serve mode. Each epoch runs on a fresh engine,
// bounding session-table growth; the seed advances per epoch so the
// interleavings keep varying.
constexpr uint64_t kServeStepsPerEpoch = 262'144;

// Latest periodic robustness verdict, shared between the witness thread
// and the HTTP handler.
struct WitnessState {
  std::mutex mu;
  std::string json;  // Full /witness payload; empty until the first check.
  uint64_t checks = 0;
};

// The server to shut down on SIGINT/SIGTERM. HttpServer::Shutdown is
// async-signal-safe, so the handler may call it directly.
std::atomic<HttpServer*> g_signal_server{nullptr};

void HandleStopSignal(int /*signum*/) {
  HttpServer* server = g_signal_server.load(std::memory_order_relaxed);
  if (server != nullptr) server->Shutdown();
}

uint64_t WallClockMicros() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

// Runs one robustness check on the given (workload, allocation) pair — the
// *active* pair, which the adaptive controller may have swapped — and
// renders the /witness payload: the verdict wrapper plus the full
// provenance report from core/witness. `stop` cancels the scan mid-check so
// shutdown never waits for a full pass; a cancelled check returns the empty
// string and the caller keeps the previous payload.
std::string CheckAndRenderWitness(const ServeParams& params,
                                  const TransactionSet& txns,
                                  const Allocation& alloc,
                                  MetricsRegistry& registry, uint64_t check,
                                  const std::atomic<bool>* stop,
                                  Watchdog* watchdog) {
  CheckOptions options;
  options.num_threads = params.threads;
  options.metrics = &registry;
  options.cancel = stop;
  options.watchdog = watchdog;
  RobustnessResult result = CheckRobustness(txns, alloc, options);
  if (result.cancelled) return std::string();
  JsonWriter json;
  json.BeginObject();
  json.Key("robust");
  json.Bool(result.robust);
  json.Key("checks");
  json.Uint(check);
  json.Key("checked_at_us");
  json.Uint(WallClockMicros());
  json.Key("witness");
  json.RawValue(RobustnessWitnessJson(txns, alloc, result));
  json.EndObject();
  return json.str();
}

constexpr const char* kIndexBody =
    "mvrob serve\n"
    "  /healthz       liveness probe with build info (JSON)\n"
    "  /metrics       Prometheus text exposition\n"
    "  /snapshot      JSON metrics snapshot\n"
    "  /witness       latest robustness verdict with provenance\n"
    "  /allocation    active allocation + adaptive-controller decisions\n"
    "  /trace         sampled txn traces with abort attribution "
    "(--trace-sample)\n"
    "  /debug/pprof   folded-stack CPU profile; ?seconds=N for an "
    "on-demand window\n"
    "  /debug/stacks  current stacks of all registered threads, "
    "symbolized\n";

// "seconds=N" from a raw query string; `fallback` when absent/garbled.
// Clamped to [1, 30] so one profile window cannot hold the single-threaded
// serve loop (and a pending SIGTERM) hostage for minutes.
int ProfileWindowSeconds(const std::string& query, int fallback) {
  int seconds = fallback;
  const size_t key = query.find("seconds=");
  if (key != std::string::npos) {
    seconds = atoi(query.c_str() + key + strlen("seconds="));
  }
  return std::clamp(seconds, 1, 30);
}

// Sleeps out a profile window in short slices, heartbeating the handler's
// watchdog scope and bailing early on server shutdown.
void SleepProfileWindow(int seconds, WatchdogScope& watch,
                        const HttpServer& server) {
  const auto until =
      std::chrono::steady_clock::now() + std::chrono::seconds(seconds);
  while (std::chrono::steady_clock::now() < until &&
         !server.shutting_down()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    watch.Heartbeat();
  }
}

std::string HealthzJson() {
  JsonWriter json;
  json.BeginObject();
  json.Key("status");
  json.String("ok");
  json.Key("build");
  json.RawValue(BuildInfoJson());
  json.EndObject();
  return json.str();
}

}  // namespace

int RunServe(ServeParams params, std::ostream& out, std::ostream& err) {
  // The CLI validates --port at flag-parse time; re-validate here so a
  // programmatic caller cannot silently truncate (e.g. 70000 -> 4464) on
  // the uint16_t narrowing below.
  if (params.port < 0 || params.port > 65535) {
    err << "error: invalid port " << params.port
        << ": must be in [0, 65535]\n";
    return 1;
  }

  MetricsRegistry registry;
  const LiveTelemetry live = MakeLiveTelemetry(registry, params.window_s);
  WitnessState witness;

  // Stall watchdog: always on in serve mode. Long phases (engine workers,
  // GC sweeps, robustness scans, HTTP handlers) register heartbeat scopes
  // below; stalls land in the structured log with a symbolized stack and
  // on mvrob_watchdog_stalls_total{site=...}.
  Watchdog::Options watchdog_options;
  watchdog_options.metrics = &registry;
  Watchdog watchdog(watchdog_options);

  // Transaction tracer (--trace-sample): shared across engine epochs so
  // the completed-trace ring and the conflict table span the whole serve.
  std::optional<TxnTracer> tracer;
  if (params.trace_sample > 0) {
    TxnTracerOptions tracer_options;
    tracer_options.sample_every_n = params.trace_sample;
    tracer_options.metrics = &registry;
    tracer.emplace(tracer_options);
  }
  TxnTracer* tracer_ptr = tracer.has_value() ? &*tracer : nullptr;

  std::atomic<bool> stop{false};
  std::mutex stop_mu;
  std::condition_variable stop_cv;

  // The generation-counted slot holding the (workload, allocation) pair
  // the driver executes and the witness thread certifies. Static serves
  // never write it after construction; with --adapt the controller
  // installs freshly certified pairs and the driver picks them up at the
  // next engine-epoch boundary.
  ActiveAllocation active(params.txns, params.alloc);

  std::optional<AdaptController> controller;
  if (params.adapt) {
    AdaptControllerOptions adapt_options;
    adapt_options.interval_s = params.adapt_interval_s;
    adapt_options.promotion_budget = params.adapt_budget;
    adapt_options.check.num_threads = params.threads;
    adapt_options.check.metrics = &registry;
    adapt_options.check.cancel = &stop;
    adapt_options.check.watchdog = &watchdog;
    adapt_options.metrics = &registry;
    adapt_options.tracer = tracer_ptr;
    controller.emplace(params.txns, &live, &active, adapt_options);
  }

  HttpServer::Options http_options;
  http_options.host = params.host;
  http_options.port = static_cast<uint16_t>(params.port);
  // The server pointer is only needed by the handler for shutdown checks
  // during profile windows; filled right after construction.
  HttpServer* server_ptr = nullptr;
  HttpServer server(
      [&](const HttpRequest& request) {
        WatchdogScope watch(&watchdog, "http.handler",
                            std::chrono::seconds(10));
        HttpResponse response;
        if (request.path == "/healthz") {
          response.content_type = "application/json";
          response.body = HealthzJson();
          response.body += "\n";
        } else if (request.path == "/debug/pprof") {
          response.content_type = "text/plain; charset=utf-8";
          if (Profiler::active()) {
            if (request.query.find("seconds=") != std::string::npos) {
              // Windowed view of the already-running profiler.
              const int seconds = ProfileWindowSeconds(request.query, 2);
              const Profiler::Counts before = Profiler::CountsSnapshot();
              SleepProfileWindow(seconds, watch, *server_ptr);
              response.body = Profiler::RenderFolded(
                  Profiler::DiffCounts(Profiler::CountsSnapshot(), before));
            } else {
              response.body =
                  Profiler::RenderFolded(Profiler::CountsSnapshot());
            }
          } else {
            // Profiler detached (--profile-hz 0): run one on-demand window
            // at the default rate for this request only.
            const int seconds = ProfileWindowSeconds(request.query, 2);
            ProfilerOptions profile_options;
            profile_options.metrics = &registry;
            Status started = Profiler::Start(profile_options);
            if (!started.ok()) {
              response.status = 503;
              response.body = started.ToString() + "\n";
            } else {
              SleepProfileWindow(seconds, watch, *server_ptr);
              Profiler::Stop();
              response.body =
                  Profiler::RenderFolded(Profiler::CountsSnapshot());
            }
          }
        } else if (request.path == "/debug/stacks") {
          response.content_type = "text/plain; charset=utf-8";
          response.body = RenderThreadStacksText(CaptureAllThreadStacks());
        } else if (request.path == "/metrics") {
          response.content_type = "text/plain; version=0.0.4; charset=utf-8";
          response.body = RenderPrometheusText(registry);
        } else if (request.path == "/snapshot") {
          response.content_type = "application/json";
          response.body = registry.SnapshotJson();
          response.body += "\n";
        } else if (request.path == "/witness") {
          std::lock_guard<std::mutex> lock(witness.mu);
          if (witness.json.empty()) {
            response.status = 503;
            response.body = "first robustness check still running\n";
          } else {
            response.content_type = "application/json";
            response.body = witness.json;
            response.body += "\n";
          }
        } else if (request.path == "/trace") {
          if (tracer.has_value()) {
            response.content_type = "application/json";
            response.body = tracer->StatusJson();
            response.body += "\n";
          } else {
            response.status = 404;
            response.body = "tracing disabled; restart with --trace-sample\n";
          }
        } else if (request.path == "/allocation") {
          response.content_type = "application/json";
          response.body = controller.has_value()
                              ? controller->StatusJson()
                              : StaticAllocationJson(active);
          response.body += "\n";
        } else if (request.path == "/") {
          response.body = kIndexBody;
        } else {
          response.status = 404;
          response.body = "not found\n";
        }
        return response;
      },
      http_options);
  server_ptr = &server;

  // SIGINT/SIGTERM → clean shutdown. Installed before the port is
  // published so a watcher that reads the port file can signal us
  // immediately; previous dispositions are restored before returning.
  g_signal_server.store(&server, std::memory_order_relaxed);
  struct sigaction action {};
  struct sigaction old_int {};
  struct sigaction old_term {};
  action.sa_handler = HandleStopSignal;
  sigemptyset(&action.sa_mask);
  sigaction(SIGINT, &action, &old_int);
  sigaction(SIGTERM, &action, &old_term);
  auto restore_signals = [&] {
    sigaction(SIGINT, &old_int, nullptr);
    sigaction(SIGTERM, &old_term, nullptr);
    g_signal_server.store(nullptr, std::memory_order_relaxed);
  };

  Status started = server.Start();
  if (!started.ok()) {
    restore_signals();
    err << "error: " << started.ToString() << "\n";
    return 1;
  }

  // Continuous profiling (--profile-hz): sample for the whole serve,
  // exposed live at /debug/pprof and written to --profile-out on clean
  // shutdown.
  if (params.profile_hz > 0) {
    ProfilerOptions profile_options;
    profile_options.hz = params.profile_hz;
    profile_options.metrics = &registry;
    Status profiling = Profiler::Start(profile_options);
    if (!profiling.ok()) {
      restore_signals();
      err << "error: " << profiling.ToString() << "\n";
      return 1;
    }
  }

  // The port is published only once every worker thread has registered
  // its ProfiledThreadScope, so a client that reads --port-file finds
  // them all in /debug/stacks.
  std::latch registered(controller.has_value() ? 3 : 2);

  // Driver thread: runs the workload continuously in bounded engine
  // epochs. Each epoch snapshots the active (workload, allocation) pair —
  // the epoch boundary is where an adaptive swap takes effect. Commits/
  // aborts land on the live windowed series as they happen; lifetime
  // engine counters accumulate across epochs.
  uint64_t epochs = 0;
  uint64_t committed = 0;
  std::thread driver([&] {
    ProfiledThreadScope profile_scope("serve.driver");
    registered.count_down();
    while (!stop.load(std::memory_order_relaxed)) {
      TransactionSet txns;
      Allocation alloc;
      active.Snapshot(&txns, &alloc);
      RandomRunOptions options;
      options.concurrency = params.concurrency;
      options.seed = params.seed + epochs;
      options.max_steps = kServeStepsPerEpoch;
      options.metrics = &registry;
      options.stop = &stop;
      options.continuous = true;
      options.live = &live;
      options.tracer = tracer_ptr;
      options.watchdog = &watchdog;
      options.engine_threads = params.engine_threads;
      options.engine_shards = params.engine_shards;
      committed += RunWorkload(txns, alloc, options).report().committed;
      ++epochs;
    }
  });

  // Witness thread: checks robustness immediately, then on a cadence,
  // always against the *active* pair (so /witness certifies what the
  // engine is actually running, including adaptive swaps). The stop flag
  // doubles as the check's cancellation hook, so SIGTERM does not stall
  // behind an in-flight scan of a large workload.
  std::thread witness_thread([&] {
    ProfiledThreadScope profile_scope("serve.witness");
    registered.count_down();
    std::unique_lock<std::mutex> lock(stop_mu);
    while (!stop.load(std::memory_order_relaxed)) {
      lock.unlock();
      uint64_t check;
      {
        std::lock_guard<std::mutex> state_lock(witness.mu);
        check = witness.checks + 1;
      }
      TransactionSet txns;
      Allocation alloc;
      active.Snapshot(&txns, &alloc);
      std::string rendered =
          CheckAndRenderWitness(params, txns, alloc, registry, check, &stop,
                                &watchdog);
      if (!rendered.empty()) {
        std::lock_guard<std::mutex> state_lock(witness.mu);
        witness.checks = check;
        witness.json = std::move(rendered);
      }
      lock.lock();
      stop_cv.wait_for(lock, std::chrono::seconds(params.witness_interval_s),
                       [&] { return stop.load(std::memory_order_relaxed); });
    }
  });

  // Controller thread (--adapt): observe → weigh → allocate → certify →
  // install, immediately and then on its own cadence.
  std::thread adapt_thread;
  if (controller.has_value()) {
    adapt_thread = std::thread([&] {
      ProfiledThreadScope profile_scope("adapt.controller");
      registered.count_down();
      controller->Run(stop, stop_mu, stop_cv);
    });
  }

  // Duration backstop: shuts the server down after --duration seconds.
  std::thread timer;
  if (params.duration_s > 0) {
    timer = std::thread([&] {
      std::unique_lock<std::mutex> lock(stop_mu);
      stop_cv.wait_for(lock, std::chrono::seconds(params.duration_s),
                       [&] { return stop.load(std::memory_order_relaxed); });
      server.Shutdown();
    });
  }

  auto stop_workers = [&] {
    {
      std::lock_guard<std::mutex> lock(stop_mu);
      stop.store(true, std::memory_order_relaxed);
    }
    stop_cv.notify_all();
    driver.join();
    witness_thread.join();
    if (adapt_thread.joinable()) adapt_thread.join();
    if (timer.joinable()) timer.join();
  };

  registered.wait();
  if (!params.port_file.empty()) {
    Status written =
        WriteTextFile(params.port_file, StrCat(server.port()));
    if (!written.ok()) {
      stop_workers();
      restore_signals();
      err << "error: " << written.ToString() << "\n";
      return 1;
    }
  }
  out << "serving on http://" << params.host << ":" << server.port() << "\n"
      << std::flush;
  GlobalLogger().Log(LogLevel::kInfo, "serve.listen", "telemetry server up",
                     {LogField("host", params.host),
                      LogField("port", static_cast<int64_t>(server.port())),
                      LogField("window_s",
                               static_cast<uint64_t>(params.window_s))});

  Status served = [&] {
    ProfiledThreadScope http_scope("http");
    return server.Serve();
  }();

  restore_signals();
  stop_workers();

  if (Profiler::active()) {
    Profiler::Stop();
    if (!params.profile_out.empty()) {
      Status written = WriteTextFile(
          params.profile_out,
          Profiler::RenderFolded(Profiler::CountsSnapshot()));
      if (!written.ok()) {
        err << "error: " << written.ToString() << "\n";
        return 1;
      }
    }
  }

  if (!served.ok()) {
    err << "error: " << served.ToString() << "\n";
    return 1;
  }
  GlobalLogger().Log(LogLevel::kInfo, "serve.shutdown", "clean shutdown",
                     {LogField("epochs", epochs),
                      LogField("committed", committed)});
  if (!params.stats_json.empty() || !params.trace_out.empty()) {
    Status written = ExportMetricsFiles(registry, params.stats_json,
                                        params.trace_out, tracer_ptr);
    if (!written.ok()) {
      err << "error: " << written.ToString() << "\n";
      return 1;
    }
  }
  out << "shutdown after " << epochs << " engine epoch(s), " << committed
      << " commit(s)\n";
  return 0;
}

}  // namespace mvrob
