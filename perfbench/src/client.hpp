// Closed-loop load generator: one unix-socket connection to serving::Daemon
// that keeps a fixed number of Q frames in flight.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "gate.hpp"
#include "inputs.hpp"
#include "trace.hpp"

namespace perfbench {

class Client {
 public:
  /// Connects to the daemon at `socket_path`; throws std::runtime_error.
  explicit Client(const std::string& socket_path);
  ~Client();
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  struct Result {
    std::uint64_t sent = 0;    ///< Q frames written
    std::uint64_t ok = 0;      ///< ok answers, appended to `answers`
    /// Non-ok verdicts, E frames, unmatched replies, and frames lost to a
    /// socket error.
    std::uint64_t failed = 0;
    double seconds = 0;        ///< first write to last reply
    std::vector<float> rtt_us; ///< one per ok answer
  };

  /// Sends frames drawn from `requests`, keeping `in_flight` outstanding,
  /// until `max_requests` were sent or `deadline` passed; then waits for
  /// every outstanding reply. Each ok answer gets a "client.rtt" span when
  /// `tracer` records.
  Result run(RequestStream& requests, int in_flight,
             std::uint64_t max_requests, Clock::time_point deadline,
             std::vector<Answer>& answers, Tracer& tracer);

 private:
  struct Slot {
    std::uint64_t id = ~0ull;
    VertexId u = 0;
    VertexId v = 0;
    Clock::time_point sent;
  };
  static constexpr std::size_t kSlots = 1 << 12;  ///< > any in_flight used

  bool write_all(const std::string& data);

  int fd_ = -1;
  std::uint64_t next_id_ = 0;
  std::vector<Slot> slots_;
  std::string pending_;  ///< bytes of an incomplete reply line
};

}  // namespace perfbench
