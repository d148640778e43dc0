// The Rel front door: an interactive session on stdin, or a line-protocol
// server ("meeting users where they are", Section 7).
//
// Interactive (default): type expressions to evaluate them, `def`/`ic`
// lines to install rules, and transactions with insert/delete to mutate
// the database.
//
//   $ ./build/examples/repl
//   rel> def E {(1,2) ; (2,3)}
//   rel> TC[E]
//   {(1, 2); (1, 3); (2, 3)}
//   rel> exec def insert(:Visited, x) : TC[E](1, x)
//   +2 / -0
//   rel> count[Visited]
//   {(2)}
//   rel> :quit
//
// Server: `repl --serve [port] [workers]` starts the TCP line-protocol
// server (src/server/) on 127.0.0.1 and serves until EOF on stdin or
// SIGINT-style termination. Each connection gets its own snapshot-isolated
// session; try it with e.g.
//
//   $ ./build/examples/repl --serve 8080 &
//   $ printf 'eval 1 + 2\nquit\n' | nc 127.0.0.1 8080
//   ok {(3)}
//   ok bye

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>

#include "base/error.h"
#include "core/engine.h"
#include "server/server.h"

namespace {

int RunServer(rel::Engine* engine, int port, int workers) {
  rel::server::ServerOptions options;
  options.port = port;
  options.num_workers = workers;
  rel::server::LineServer server(engine, options);
  rel::Status status = server.Start();
  if (!status.ok()) {
    std::fprintf(stderr, "cannot start server: %s\n",
                 status.ToString().c_str());
    return 1;
  }
  std::printf("rel-cpp serving on 127.0.0.1:%d (%d workers)\n"
              "line protocol: eval/query/exec/def/base/refresh/snap/ping/"
              "quit — close stdin to stop.\n",
              server.port(), workers);
  std::fflush(stdout);
  // Block until the terminal side is done with us.
  std::string line;
  while (std::getline(std::cin, line)) {
    if (line == ":quit" || line == ":q") break;
  }
  server.Stop();
  return 0;
}

int RunInteractive(rel::Engine* engine) {
  // One session for the whole interaction: its own writes re-pin it, so
  // every line reads the state the previous lines committed.
  std::unique_ptr<rel::Session> session = engine->OpenSession();
  std::string line;
  std::printf("rel-cpp — type an expression, a def/ic, 'exec <rules>',\n"
              "or :quit. The standard library is loaded.\n");
  for (;;) {
    std::printf("rel> ");
    std::fflush(stdout);
    if (!std::getline(std::cin, line)) break;
    if (line.empty()) continue;
    if (line == ":quit" || line == ":q") break;
    try {
      if (line.rfind("def ", 0) == 0 || line.rfind("ic ", 0) == 0 ||
          line.rfind("@inline", 0) == 0) {
        session->Define(line);
        std::printf("ok (%zu rules installed)\n", engine->installed_rules());
      } else if (line.rfind("exec ", 0) == 0) {
        rel::TxnResult txn = session->Exec(line.substr(5));
        std::printf("+%zu / -%zu\n", txn.inserted, txn.deleted);
        if (!txn.output.empty()) {
          std::printf("%s\n", txn.output.ToString().c_str());
        }
      } else {
        std::printf("%s\n", session->Eval(line).ToString().c_str());
      }
    } catch (const rel::RelError& e) {
      std::printf("error: %s\n", e.what());
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  rel::Engine engine;
  if (argc > 1 && std::string(argv[1]) == "--serve") {
    int port = argc > 2 ? std::atoi(argv[2]) : 0;
    int workers = argc > 3 ? std::atoi(argv[3]) : 4;
    return RunServer(&engine, port, workers);
  }
  return RunInteractive(&engine);
}
