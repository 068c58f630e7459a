#include "client.hpp"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <charconv>
#include <cstring>
#include <stdexcept>
#include <string_view>

namespace perfbench {

namespace {

/// Splits off the next space-separated token of `line`.
std::string_view token(std::string_view& line) {
  const std::size_t sp = line.find(' ');
  const std::string_view tok = line.substr(0, sp);
  line = sp == std::string_view::npos ? std::string_view{} : line.substr(sp + 1);
  return tok;
}

template <typename T>
bool parse_int(std::string_view s, T& out) {
  const auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), out);
  return ec == std::errc() && end == s.data() + s.size();
}

}  // namespace

Client::Client(const std::string& socket_path) : slots_(kSlots) {
  fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd_ < 0) throw std::runtime_error("socket: " + std::string(std::strerror(errno)));
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (socket_path.size() >= sizeof(addr.sun_path)) {
    ::close(fd_);
    throw std::runtime_error("socket path too long: " + socket_path);
  }
  std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);
  if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    const std::string err = std::strerror(errno);
    ::close(fd_);
    throw std::runtime_error("connect " + socket_path + ": " + err);
  }
}

Client::~Client() {
  if (fd_ >= 0) ::close(fd_);
}

bool Client::write_all(const std::string& data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::send(fd_, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    off += static_cast<std::size_t>(n);
  }
  return true;
}

Client::Result Client::run(RequestStream& requests, int in_flight,
                           std::uint64_t max_requests, Clock::time_point deadline,
                           std::vector<Answer>& answers, Tracer& tracer) {
  if (in_flight < 1 || static_cast<std::size_t>(in_flight) > kSlots) {
    throw std::invalid_argument("in_flight out of range");
  }
  Result r;
  std::string out;
  std::uint64_t outstanding = 0;
  // Formats up to the in-flight limit and writes them in one send; every
  // frame of one send shares its send timestamp.
  auto refill = [&]() {
    const auto now = Clock::now();
    while (outstanding < static_cast<std::uint64_t>(in_flight) &&
           r.sent < max_requests && now < deadline) {
      const auto [u, v] = requests.next();
      const std::uint64_t id = next_id_++;
      slots_[id % kSlots] = {id, u, v, now};
      out += "Q ";
      out += std::to_string(id);
      out += ' ';
      out += std::to_string(u);
      out += ' ';
      out += std::to_string(v);
      out += '\n';
      ++outstanding;
      ++r.sent;
    }
    if (out.empty()) return true;
    const bool ok = write_all(out);
    out.clear();
    return ok;
  };

  const auto t_start = Clock::now();
  auto t_last = t_start;
  char chunk[1 << 16];
  bool alive = refill();
  while (alive && outstanding > 0) {
    const ssize_t n = ::read(fd_, chunk, sizeof(chunk));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      alive = false;
      break;
    }
    t_last = Clock::now();
    pending_.append(chunk, static_cast<std::size_t>(n));
    std::size_t begin = 0;
    for (std::size_t nl; (nl = pending_.find('\n', begin)) != std::string::npos;
         begin = nl + 1) {
      std::string_view line(pending_.data() + begin, nl - begin);
      if (outstanding > 0) --outstanding;
      // "A <id> ok <level> <distance> <generation>" is the only success.
      std::uint64_t id = 0;
      if (token(line) != "A" || !parse_int(token(line), id) ||
          slots_[id % kSlots].id != id || token(line) != "ok") {
        ++r.failed;
        continue;
      }
      token(line);  // serve level
      const std::string_view dist = token(line);
      Slot& slot = slots_[id % kSlots];
      Answer a{slot.u, slot.v, lowtw::graph::kInfinity};
      if (dist != "inf" && !parse_int(dist, a.distance)) {
        ++r.failed;
        continue;
      }
      slot.id = ~0ull;
      answers.push_back(a);
      r.rtt_us.push_back(static_cast<float>(micros(t_last - slot.sent)));
      tracer.record("client.rtt", slot.sent, t_last, -1, id);
      ++r.ok;
    }
    pending_.erase(0, begin);
    alive = refill();
  }
  if (!alive) r.failed += outstanding;
  r.seconds = micros(t_last - t_start) * 1e-6;
  return r;
}

}  // namespace perfbench
