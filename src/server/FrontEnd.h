//===- FrontEnd.h - Shared front end of terrad and terrafleet ---*- C++ -*-===//
//
// terrad (server/Server.h) and the fleet router (fleet/Router.h) look the
// same on the wire, and this is the one place that makes them so
// (DESIGN.md §7). A FrontEnd owns everything between the listening socket
// and a service's own request handling:
//
//   listenUnix ─▶ accept loop (100 ms poll, reaps finished readers,
//                 drains on requestShutdown() or SIGTERM/SIGINT)
//                   │
//                   ▼  one reader thread per connection
//   readMessage ─▶ "bad request: …" (then close) │ non-object refusal
//               ─▶ trace id (client's, or minted "<pid>-N", stamped into
//                  the request) and client "id"
//               ─▶ protocol version gate ("protocol_mismatch")
//               ─▶ control ops answered inline: stats, metrics,
//                  metrics_text, trace_dump, profile (Service::controlOp);
//                  shutdown (the core itself)
//               ─▶ everything else: Session::handle (the service's data
//                  plane — terrad's job queue, the router's relay)
//
// Every reply goes through Connection::reply(), which stamps "v",
// "trace_id" and the client's "id" and writes under the connection's write
// mutex. A Connection's fd closes when the last shared_ptr to it drops, so
// a late response (a terrad worker, a shard relay) can never write to a
// recycled fd.
//
// Drain, on the accept thread: stop listening (close + unlink the socket),
// Service::drainWork(), half-close every connection so readers see EOF
// while already-produced responses still go out, a bounded wait for the
// readers, then cut the connections, Service::afterConnections(), done.
//
//===----------------------------------------------------------------------===//

#ifndef TERRACPP_SERVER_FRONTEND_H
#define TERRACPP_SERVER_FRONTEND_H

#include "support/Json.h"
#include "support/Telemetry.h"

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace terracpp {
namespace server {

class FrontEnd {
public:
  /// One client connection. Shared by its reader thread and everything
  /// that may still answer on it; the fd closes with the last owner.
  class Connection {
  public:
    explicit Connection(int Fd) : Fd(Fd) {}
    ~Connection();
    Connection(const Connection &) = delete;
    Connection &operator=(const Connection &) = delete;

    /// Stamps "v", "trace_id" (when non-empty) and the client's "id" (or
    /// removes a stale one when \p Id is null), then writes \p R. False
    /// once the connection is closed or a write failed; a failed write
    /// also half-closes the socket so the reader wakes up and exits.
    bool reply(json::Value R, const std::string &TraceId,
               const json::Value &Id);

    /// True after a failed write or the drain's cut.
    bool closed() const { return Closed.load(std::memory_order_acquire); }

  private:
    friend class FrontEnd;
    void cut(); ///< Refuses further writes; shuts the socket both ways.

    const int Fd;
    std::mutex WriteM;
    std::atomic<bool> Closed{false};
  };

  /// One request past the prologue: an object with the right version and
  /// a trace_id member, not a control op.
  struct Request {
    json::Value Body;
    std::string Op;
    std::string TraceId;
    json::Value Id; ///< Client correlation id; null when absent.
  };

  /// A service's per-connection data plane, created when the connection is
  /// accepted and destroyed on the reader thread after its last read.
  class Session {
  public:
    Session() = default;
    virtual ~Session() = default;
    Session(const Session &) = delete;
    Session &operator=(const Session &) = delete;
    /// Called on the reader thread in arrival order. False closes the
    /// connection.
    virtual bool handle(Request &&R) = 0;
  };

  /// What a service plugs into the core.
  class Service {
  public:
    virtual std::unique_ptr<Session>
    openSession(std::shared_ptr<Connection> C) = 0;
    /// Answers stats, metrics, metrics_text, trace_dump or profile.
    virtual json::Value controlOp(const std::string &Op,
                                  const json::Value &Body) = 0;
    /// Drain step run after the socket stops listening and before the
    /// connections are closed: finish or bound the in-flight work.
    virtual void drainWork() = 0;
    /// Drain step run after every connection is closed.
    virtual void afterConnections() {}

  protected:
    ~Service() = default;
  };

  /// \p Name prefixes the core's metrics in \p Reg
  /// (<Name>.connections_accepted, .requests_received,
  /// .protocol_mismatches) and names this end in version refusals. Signals
  /// delivered before construction do not drain this front end.
  FrontEnd(Service &Svc, telemetry::Registry &Reg, std::string Name);
  /// The owner must have called requestShutdown() and wait() first: the
  /// drain calls back into the service.
  ~FrontEnd();
  FrontEnd(const FrontEnd &) = delete;
  FrontEnd &operator=(const FrontEnd &) = delete;

  /// Binds the socket (unlinking a stale file). False with \p Err set.
  bool listen(const std::string &SocketPath, int Backlog, std::string &Err);
  /// Starts the accept loop on the bound socket.
  void start();

  /// Initiates the drain from any thread (idempotent). Not async-signal
  /// safe: signal handlers go through installSignalHandlers().
  void requestShutdown();
  /// Blocks until the drain has completed (returns at once if never
  /// started).
  void wait();

  bool started() const { return Started; }
  bool draining() const { return Draining.load(std::memory_order_acquire); }
  bool running() const { return Started && !Complete.load(); }

  /// Installs the process's one SIGTERM/SIGINT handler. Each signal bumps
  /// a process-wide generation; every front end constructed before it
  /// drains. Call once from main.
  static void installSignalHandlers();

private:
  struct Reader {
    std::shared_ptr<Connection> C;
    std::thread Thread;
    std::atomic<bool> Finished{false};
  };

  void acceptLoop();
  void readerLoop(const std::shared_ptr<Connection> &C);
  void reap(bool Join);
  void drain();

  Service &Svc;
  const std::string Name;
  const unsigned SignalSnapshot;
  std::string SocketPath;
  int ListenFd = -1;
  bool Started = false;

  std::mutex ReadersM;
  std::vector<std::unique_ptr<Reader>> Readers;

  std::atomic<bool> Draining{false};
  std::atomic<bool> Complete{false};
  std::mutex CompleteM;
  std::condition_variable CompleteCV;

  std::atomic<uint64_t> NextTraceId{1}; ///< For requests without one.
  telemetry::Counter &MConnectionsAccepted;
  telemetry::Counter &MRequestsReceived;
  telemetry::Counter &MProtocolMismatches;
  std::thread Acceptor; ///< Last: it uses every member above.
};

} // namespace server
} // namespace terracpp

#endif // TERRACPP_SERVER_FRONTEND_H
