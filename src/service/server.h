// Unix-domain socket front end for the SessionManager.
//
// Framing is the protocol's LDJSON: clients write one request per line and
// read one response line per request, in order, per connection. The accept
// loop runs on the caller's thread (serve() blocks); each accepted
// connection is handled by a task on a dedicated connection pool —
// separate from the manager's session-op pool, so a connection handler
// blocking on a session reply can never starve the workers that produce
// it. serve() returns after a client issues the protocol's "shutdown" op
// (or stop() is called): the listener closes and every open connection is
// shut down so its handler unblocks and drains.
#pragma once

#include <string>
#include <vector>

#include "service/session_manager.h"
#include "util/annotations.h"
#include "util/thread_pool.h"

namespace autodml::service {

struct ServerOptions {
  std::string socket_path;
  /// Connection-handler threads = max concurrently served clients.
  std::size_t connection_threads = 8;
};

class SocketServer {
 public:
  /// Binds and listens immediately; throws std::runtime_error on any
  /// socket-layer failure (path too long, bind refused, ...).
  SocketServer(SessionManager& manager, ServerOptions options);
  ~SocketServer();

  SocketServer(const SocketServer&) = delete;
  SocketServer& operator=(const SocketServer&) = delete;

  /// Accept loop; blocks until shutdown is requested. Call from one thread.
  void serve();

  /// Asynchronously requests serve() to return (idempotent, thread-safe).
  void stop();

 private:
  void handle_connection(int fd);
  bool stopping() const ADML_EXCLUDES(mu_);

  SessionManager* manager_;
  ServerOptions options_;
  int listen_fd_ = -1;
  mutable util::Mutex mu_;
  bool stop_ ADML_GUARDED_BY(mu_) = false;
  std::vector<int> connections_ ADML_GUARDED_BY(mu_);
  /// Declared last: destroyed first, joining every connection handler
  /// before the fd bookkeeping above disappears.
  std::unique_ptr<util::ThreadPool> conn_pool_;
};

}  // namespace autodml::service
