// xplaind: the explanation-serving daemon. Loads (or generates) a
// database, builds the explanation engine once, and serves
// newline-delimited JSON requests over TCP on 127.0.0.1 (see DESIGN.md §8
// for the protocol grammar).
//
//   xplaind --db /tmp/dblp --port 7411
//   xplaind --gen dblp --scale 0.5 --port 0        # ephemeral port
//
// Prints "xplaind listening on 127.0.0.1:<port>" once ready (scripts parse
// this line to discover an ephemeral port). Runs until a DRAIN request (or
// SIGINT/SIGTERM) and then exits 0 after in-flight work finishes.

#include <atomic>
#include <chrono>
#include <csignal>
#include <iostream>
#include <string>
#include <thread>

#include "datagen/dblp.h"
#include "relational/storage.h"
#include "server/service.h"
#include "server/tcp_server.h"
#include "util/result.h"
#include "util/trace.h"

namespace {

std::atomic<bool> g_interrupted{false};

void HandleSignal(int) { g_interrupted.store(true); }

int Usage(std::ostream& os) {
  os << "usage: xplaind (--db DIR | --gen dblp) [--scale S] [--port P]\n"
     << "               [--workers N] [--queue N] [--reactors N] [--no-cache]\n"
     << "               [--trace-sample N] [--trace-out F]\n"
     << "               [--flight N] [--slow_query_us N]\n"
     << "  --db DIR      serve a directory-stored database (schema.ddl+CSV)\n"
     << "  --gen dblp    serve the synthetic DBLP instance instead\n"
     << "  --scale S     generator scale factor (default 1.0)\n"
     << "  --port P      TCP port on 127.0.0.1; 0 = ephemeral (default)\n"
     << "  --workers N   engine worker threads (default: hardware)\n"
     << "  --queue N     admission queue depth beyond workers (default 64)\n"
     << "  --reactors N  epoll event-loop threads (default: hardware)\n"
     << "  --no-cache    disable the explanation cache\n"
     << "  --trace-sample N  trace one of every N requests without a wire\n"
     << "                    trace context (0 = off, 1 = all; DESIGN.md §12)\n"
     << "  --trace-out F     write the Chrome trace JSON to F at drain time\n"
     << "                    (default xplaind_trace.json when sampling is on)\n"
     << "  --flight N        flight-recorder ring capacity (default 256)\n"
     << "  --slow_query_us N log and pin requests whose queue+execute+flush\n"
     << "                    time reaches N microseconds (default: disabled)\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string db_dir;
  std::string gen;
  double scale = 1.0;
  std::string trace_out;
  xplain::server::TcpServerOptions tcp;
  xplain::server::ServiceOptions service_options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--db" && i + 1 < argc) {
      db_dir = argv[++i];
    } else if (arg == "--gen" && i + 1 < argc) {
      gen = argv[++i];
    } else if (arg == "--scale" && i + 1 < argc) {
      scale = std::stod(argv[++i]);
    } else if (arg == "--port" && i + 1 < argc) {
      tcp.port = std::stoi(argv[++i]);
    } else if (arg == "--workers" && i + 1 < argc) {
      service_options.num_workers = std::stoi(argv[++i]);
    } else if (arg == "--queue" && i + 1 < argc) {
      service_options.max_queue_depth =
          static_cast<size_t>(std::stoul(argv[++i]));
    } else if (arg == "--reactors" && i + 1 < argc) {
      tcp.num_reactors = std::stoi(argv[++i]);
    } else if (arg == "--no-cache") {
      service_options.enable_cache = false;
    } else if (arg == "--trace-sample" && i + 1 < argc) {
      service_options.trace_sample_period =
          static_cast<uint64_t>(std::stoull(argv[++i]));
    } else if (arg == "--trace-out" && i + 1 < argc) {
      trace_out = argv[++i];
    } else if (arg == "--flight" && i + 1 < argc) {
      service_options.flight_capacity =
          static_cast<size_t>(std::stoul(argv[++i]));
    } else if (arg == "--slow_query_us" && i + 1 < argc) {
      service_options.slow_query_us = std::stoll(argv[++i]);
    } else if (arg == "--help" || arg == "-h") {
      Usage(std::cout);
      return 0;
    } else {
      std::cerr << "xplaind: unknown argument '" << arg << "'\n";
      return Usage(std::cerr);
    }
  }
  if (db_dir.empty() == gen.empty()) {
    std::cerr << "xplaind: pass exactly one of --db DIR or --gen dblp\n";
    return Usage(std::cerr);
  }

  xplain::Result<xplain::Database> db =
      [&]() -> xplain::Result<xplain::Database> {
    if (!db_dir.empty()) return xplain::LoadDatabase(db_dir);
    if (gen != "dblp") {
      return xplain::Status::InvalidArgument("unknown generator '" + gen +
                                             "' (only dblp is served)");
    }
    xplain::datagen::DblpOptions options;
    options.scale = scale;
    return xplain::datagen::GenerateDblp(options);
  }();
  if (!db.ok()) {
    std::cerr << "xplaind: " << db.status().ToString() << "\n";
    return 1;
  }

  auto service = xplain::server::XplaindService::Create(*std::move(db),
                                                        service_options);
  if (!service.ok()) {
    std::cerr << "xplaind: " << service.status().ToString() << "\n";
    return 1;
  }
  auto server = xplain::server::TcpServer::Start(service->get(), tcp);
  if (!server.ok()) {
    std::cerr << "xplaind: " << server.status().ToString() << "\n";
    return 1;
  }

  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);
  std::cout << "xplaind listening on 127.0.0.1:" << (*server)->port()
            << std::endl;

  // Serve until a client sends DRAIN or the process is signalled; either
  // way finish in-flight work before exiting (the graceful-drain
  // contract).
  while (!(*service)->draining() && !g_interrupted.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  (*server)->Stop();
  (*service)->Drain();
  // With sampling on, export the collected span trees at drain time so a
  // serving run leaves an openable Perfetto/chrome://tracing file behind.
  if (service_options.trace_sample_period > 0) {
    if (trace_out.empty()) trace_out = "xplaind_trace.json";
    const xplain::Status written = xplain::Trace::WriteChromeJson(trace_out);
    if (written.ok()) {
      std::cout << "xplaind trace written to " << trace_out << std::endl;
    } else {
      std::cerr << "xplaind: trace export failed: " << written.ToString()
                << "\n";
    }
  }
  std::cout << "xplaind drained, exiting" << std::endl;
  return 0;
}
