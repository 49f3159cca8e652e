// One client's view of the admission daemon's line protocol, shared by
// every transport: `kairos_cli --serve` runs one session over stdin/stdout
// and the socket listener (net::Server) runs one per connection — same
// commands, same replies, one implementation.
//
// Protocol (newline-delimited; commands with a variable number of reply
// lines terminate with "done"):
//
//   admit <file>...    load + submit each file. Per app, immediately
//                      "queued req=<id> app=<name>", then in submission
//                      order "admitted req=<id> handle=<h> app=<name>
//                      ms=<t>" or "rejected req=<id> phase=<p> app=<name>
//                      reason=<r>", then "done". The id is the admission
//                      service's request id — the same value tagged on
//                      that request's spans and log events.
//   gen <n> [seed]     submit <n> generated applications (default seed 71)
//   remove <handle>    "removed handle=<h>" or "error <reason>"
//   stats              one line: live / fragmentation / pending / counters
//   metrics            the obs registry in text exposition, then "done"
//   quit | exit        "bye"; the transport decides what closing means
//                      (stdin: daemon shutdown, socket: connection close)
//
// Threading/blocking contract: handle_line() never blocks on admission
// work. Submissions park their futures as a pending batch and the call
// returns kPending; the transport then pumps poll() — non-blocking, emits
// whatever settled, preserving submission order — until the batch drains,
// or calls finish() to block until it does (the stdin loop). A socket
// transport pumps poll() from the server's busy tick: when handle_line()
// runs on a net::Server poll thread, every submission carries that
// server's wake (net::Server::current_wake()), so the tick runs as soon as
// a request settles and its reply goes out without waiting for the poll
// timeout. While a batch is pending the session rejects no input —
// transports simply defer further lines (net::Conn keeps them buffered in
// order).
#pragma once

#include <cstdint>
#include <future>
#include <string>
#include <vector>

#include "core/resource_manager.hpp"
#include "service/admission_service.hpp"

namespace kairos::service {

/// The /stats.json document: live/fragmentation/pending plus the service
/// counters — the machine-readable twin of the "stats" protocol line.
std::string service_stats_json(const core::ResourceManager& manager,
                               const AdmissionService& service);

class CommandSession {
 public:
  enum class Status {
    kReady,    ///< all replies for the line were emitted
    kPending,  ///< futures parked; pump poll()/finish() for the rest
    kQuit      ///< client asked to end the session
  };

  CommandSession(core::ResourceManager& manager, AdmissionService& service);

  /// The banner a transport sends when a session opens.
  std::string greeting() const;

  /// Handles one command line, appending reply lines to `out`.
  Status handle_line(const std::string& line, std::vector<std::string>& out);

  /// True while a submitted batch has unsettled replies.
  bool pending() const { return !pending_.empty(); }

  /// Emits every reply whose future has settled (submission order; stops at
  /// the first still-running one). Appends the terminating "done" and
  /// returns true when the batch is complete.
  bool poll(std::vector<std::string>& out);

  /// Blocks until the pending batch settles, appending all its replies.
  void finish(std::vector<std::string>& out);

 private:
  struct PendingReply {
    std::string name;
    std::uint64_t request_id = 0;
    std::future<core::AdmissionReport> future;
  };

  void submit_all(std::vector<graph::Application> apps,
                  std::vector<std::string>& out);
  std::string settle_line(PendingReply& reply) const;

  core::ResourceManager& manager_;
  AdmissionService& service_;
  std::vector<PendingReply> pending_;
  std::size_t next_pending_ = 0;  ///< replies before this index were emitted
};

}  // namespace kairos::service
