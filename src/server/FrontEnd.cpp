#include "server/FrontEnd.h"

#include "server/Protocol.h"
#include "support/Log.h"

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

using namespace terracpp;
using namespace terracpp::server;

//===----------------------------------------------------------------------===//
// Signal plumbing
//===----------------------------------------------------------------------===//

// A generation rather than a consume-and-clear flag: every front end running
// when the signal lands sees it change, and one started later snapshots the
// new value instead of draining on a stale signal. Lock-free atomics are
// async-signal-safe and give the accept loops real inter-thread ordering.
static std::atomic<unsigned> GSignalGeneration{0};
static_assert(std::atomic<unsigned>::is_always_lock_free);

static void frontEndSignalHandler(int) {
  GSignalGeneration.fetch_add(1, std::memory_order_relaxed);
}

void FrontEnd::installSignalHandlers() {
  struct sigaction SA;
  memset(&SA, 0, sizeof(SA));
  SA.sa_handler = frontEndSignalHandler;
  sigemptyset(&SA.sa_mask);
  sigaction(SIGTERM, &SA, nullptr);
  sigaction(SIGINT, &SA, nullptr);
}

//===----------------------------------------------------------------------===//
// Connections
//===----------------------------------------------------------------------===//

FrontEnd::Connection::~Connection() { ::close(Fd); }

bool FrontEnd::Connection::reply(json::Value R, const std::string &TraceId,
                                 const json::Value &Id) {
  R.set("v", json::Value::number(ProtocolVersion));
  if (!TraceId.empty())
    R.set("trace_id", json::Value::string(TraceId));
  // A relayed shard response carries the router's mux id: the client gets
  // its own id back, or none.
  if (Id.isNull())
    R.remove("id");
  else
    R.set("id", Id);
  std::lock_guard<std::mutex> Lock(WriteM);
  if (closed())
    return false;
  if (!writeMessage(Fd, R)) {
    Closed.store(true, std::memory_order_release);
    // Wake the reader if it is blocked on a half-dead peer.
    ::shutdown(Fd, SHUT_RD);
    return false;
  }
  return true;
}

void FrontEnd::Connection::cut() {
  Closed.store(true, std::memory_order_release);
  ::shutdown(Fd, SHUT_RDWR);
}

//===----------------------------------------------------------------------===//
// Lifecycle
//===----------------------------------------------------------------------===//

FrontEnd::FrontEnd(Service &Svc, telemetry::Registry &Reg, std::string Name)
    : Svc(Svc), Name(std::move(Name)),
      // Taken at construction, not at start(): a signal that lands while
      // the owner is still starting up (the router spawning its shards, a
      // client signalling as soon as the socket file appears) must drain
      // it once it runs.
      SignalSnapshot(GSignalGeneration.load(std::memory_order_relaxed)),
      MConnectionsAccepted(Reg.counter(this->Name + ".connections_accepted")),
      MRequestsReceived(Reg.counter(this->Name + ".requests_received")),
      MProtocolMismatches(Reg.counter(this->Name + ".protocol_mismatches")) {}

FrontEnd::~FrontEnd() {
  if (Acceptor.joinable())
    Acceptor.join();
}

bool FrontEnd::listen(const std::string &Path, int Backlog, std::string &Err) {
  if (Started || ListenFd >= 0) {
    Err = Name + " already started";
    return false;
  }
  ListenFd = listenUnix(Path, Backlog, Err);
  SocketPath = Path;
  return ListenFd >= 0;
}

void FrontEnd::start() {
  Started = true;
  Acceptor = std::thread([this] { acceptLoop(); });
}

void FrontEnd::requestShutdown() {
  if (Draining.exchange(true, std::memory_order_acq_rel))
    return;
  // The accept loop notices within one poll interval and drains on its own
  // thread; a front end that never started has nothing to drain.
  if (!Started)
    Complete = true;
}

void FrontEnd::wait() {
  if (!Started)
    return;
  std::unique_lock<std::mutex> Lock(CompleteM);
  CompleteCV.wait(Lock, [&] { return Complete.load(); });
  Lock.unlock();
  if (Acceptor.joinable())
    Acceptor.join();
}

void FrontEnd::acceptLoop() {
  while (!draining()) {
    if (GSignalGeneration.load(std::memory_order_relaxed) != SignalSnapshot) {
      requestShutdown();
      break;
    }
    struct pollfd PFd = {ListenFd, POLLIN, 0};
    int PR = ::poll(&PFd, 1, 100);
    // Reap every iteration (not just on accept) so a long-idle service does
    // not hold dead connections' fds and threads until the next client.
    reap(/*Join=*/false);
    if (PR < 0) {
      if (errno == EINTR)
        continue;
      requestShutdown();
      break;
    }
    if (PR == 0 || !(PFd.revents & POLLIN))
      continue;
    int Fd = ::accept(ListenFd, nullptr, nullptr);
    if (Fd < 0)
      continue;
    MConnectionsAccepted.inc();
    logging::emit(logging::Level::Debug, Name + ".accept",
                  {{"fd", std::to_string(Fd)}});
    auto R = std::make_unique<Reader>();
    R->C = std::make_shared<Connection>(Fd);
    Reader *RP = R.get();
    std::lock_guard<std::mutex> Lock(ReadersM);
    Readers.push_back(std::move(R));
    RP->Thread = std::thread([this, RP] {
      readerLoop(RP->C);
      RP->Finished = true;
    });
  }
  drain();
}

void FrontEnd::reap(bool Join) {
  // Join outside the lock: a finishing reader never needs ReadersM.
  std::vector<std::unique_ptr<Reader>> Dead;
  {
    std::lock_guard<std::mutex> Lock(ReadersM);
    auto Keep = Readers.begin();
    for (auto &R : Readers) {
      if (Join || R->Finished)
        Dead.push_back(std::move(R));
      else
        *Keep++ = std::move(R);
    }
    Readers.erase(Keep, Readers.end());
  }
  for (auto &R : Dead)
    if (R->Thread.joinable())
      R->Thread.join();
}

void FrontEnd::drain() {
  // 1. Stop accepting: new clients are refused instead of queueing in a
  //    backlog nobody will serve.
  ::close(ListenFd);
  ListenFd = -1;
  ::unlink(SocketPath.c_str());
  // 2. The service finishes (or bounds) its in-flight work.
  Svc.drainWork();
  // 3. Half-close every connection: readers see EOF and exit, responses
  //    already produced still go out (terrad's readers wait for their
  //    writer thread to flush). A peer that stopped reading could block a
  //    writer forever, so the wait is bounded before the connections are
  //    cut; late writes then fail benignly.
  std::vector<std::shared_ptr<Connection>> Open;
  {
    std::lock_guard<std::mutex> Lock(ReadersM);
    for (auto &R : Readers) {
      ::shutdown(R->C->Fd, SHUT_RD);
      Open.push_back(R->C);
    }
  }
  auto allFinished = [&] {
    std::lock_guard<std::mutex> Lock(ReadersM);
    for (auto &R : Readers)
      if (!R->Finished)
        return false;
    return true;
  };
  for (int WaitedMs = 0; WaitedMs < 2000 && !allFinished(); WaitedMs += 10)
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  for (auto &C : Open)
    C->cut();
  reap(/*Join=*/true);
  // 4. The service's last step (the router stops its owned shards).
  Svc.afterConnections();
  {
    std::lock_guard<std::mutex> Lock(CompleteM);
    Complete = true;
  }
  CompleteCV.notify_all();
}

//===----------------------------------------------------------------------===//
// Reader prologue
//===----------------------------------------------------------------------===//

void FrontEnd::readerLoop(const std::shared_ptr<Connection> &C) {
  std::unique_ptr<Session> S = Svc.openSession(C);
  while (true) {
    json::Value Body;
    std::string Err;
    FrameStatus St = readMessage(C->Fd, Body, Err);
    if (St != FrameStatus::OK) {
      // Malformed JSON gets a reply; a broken frame or socket does not.
      if (St == FrameStatus::Error && !Err.empty() &&
          Err != "frame read failed")
        C->reply(errorResponse("bad request: " + Err), "", json::Value());
      break;
    }
    MRequestsReceived.inc();

    // Every later reply carries the request's trace_id, client-supplied or
    // minted here. Stamping it into the request means a terrad worker, a
    // shard behind the router, and MuxClient-originated errors all echo the
    // same id without further plumbing.
    Request R;
    R.TraceId = Body.getString("trace_id");
    if (R.TraceId.empty()) {
      // One process-wide prefix; a getpid() syscall per request would be
      // measurable against the warm-call round trip.
      static const std::string PidPrefix = std::to_string(::getpid()) + "-";
      R.TraceId = PidPrefix + std::to_string(NextTraceId.fetch_add(
                                  1, std::memory_order_relaxed));
      // A no-op on a non-object, which is refused next.
      Body.set("trace_id", json::Value::string(R.TraceId));
    }
    if (!Body.isObject()) {
      if (!C->reply(errorResponse("request must be a JSON object"),
                    R.TraceId, json::Value()))
        break;
      continue;
    }
    if (const json::Value *IdV = Body.get("id"))
      R.Id = *IdV;

    // Version gate: a peer speaking another protocol revision gets a
    // structured refusal it can render, instead of a response whose shape
    // it may misread.
    const json::Value *V = Body.get("v");
    int Got = (V && V->isNumber()) ? static_cast<int>(V->asNumber()) : 0;
    if (Got != ProtocolVersion) {
      MProtocolMismatches.inc();
      json::Value Refusal = errorResponseCode(
          "protocol_mismatch",
          "protocol version mismatch: " + Name + " speaks v" +
              std::to_string(ProtocolVersion) + ", request carried " +
              (V ? "v" + std::to_string(Got) : std::string("no version")));
      Refusal.set("expected", json::Value::number(ProtocolVersion));
      Refusal.set("got", json::Value::number(Got));
      if (!C->reply(std::move(Refusal), R.TraceId, R.Id))
        break;
      continue;
    }

    // Control-plane ops skip the service's data plane: stats and metrics
    // must observe a saturated service, and shutdown must work when its
    // queue is wedged.
    R.Op = Body.getString("op");
    if (R.Op == "stats" || R.Op == "metrics" || R.Op == "metrics_text" ||
        R.Op == "trace_dump" || R.Op == "profile") {
      if (!C->reply(Svc.controlOp(R.Op, Body), R.TraceId, R.Id))
        break;
      continue;
    }
    if (R.Op == "shutdown") {
      json::Value Ack = json::Value::object();
      Ack.set("ok", json::Value::boolean(true));
      Ack.set("draining", json::Value::boolean(true));
      C->reply(std::move(Ack), R.TraceId, R.Id);
      requestShutdown();
      continue; // The reader exits when the drain half-closes the socket.
    }
    R.Body = std::move(Body);
    if (!S->handle(std::move(R)))
      break;
  }
}
