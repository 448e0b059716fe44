#include "daemon_client.hpp"

#include <fcntl.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <thread>
#include <utility>

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

int try_connect(const std::string& path) {
  sockaddr_un address{};
  if (path.size() + 1 > sizeof(address.sun_path)) {
    throw std::runtime_error("socket path too long: " + path);
  }
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) throw std::runtime_error("socket(): " + std::string(strerror(errno)));
  address.sun_family = AF_UNIX;
  std::memcpy(address.sun_path, path.c_str(), path.size() + 1);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&address),
                sizeof(address)) == 0) {
    return fd;
  }
  ::close(fd);
  return -1;
}

}  // namespace

Connection::Connection(const std::string& socket_path, double timeout_s) {
  const Clock::time_point start = Clock::now();
  for (;;) {
    fd_ = try_connect(socket_path);
    if (fd_ >= 0) return;
    if (std::chrono::duration<double>(Clock::now() - start).count() >
        timeout_s) {
      throw std::runtime_error("could not connect to " + socket_path);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
}

Connection::~Connection() {
  if (fd_ >= 0) ::close(fd_);
}

void Connection::send_frame(const std::string& payload) {
  const std::string frame = std::to_string(payload.size()) + "\n" + payload;
  std::size_t done = 0;
  while (done < frame.size()) {
    const ssize_t wrote =
        ::send(fd_, frame.data() + done, frame.size() - done, MSG_NOSIGNAL);
    if (wrote < 0 && errno == EINTR) continue;
    if (wrote <= 0) throw std::runtime_error("send to agedtrd failed");
    done += static_cast<std::size_t>(wrote);
  }
}

std::string Connection::recv_frame() {
  char chunk[65536];
  const auto fill = [&] {
    for (;;) {
      const ssize_t got = ::read(fd_, chunk, sizeof chunk);
      if (got < 0 && errno == EINTR) continue;
      if (got <= 0) throw std::runtime_error("agedtrd closed the connection");
      buffer_.append(chunk, static_cast<std::size_t>(got));
      return;
    }
  };
  std::size_t newline = std::string::npos;
  while ((newline = buffer_.find('\n')) == std::string::npos) {
    if (buffer_.size() > 20) throw std::runtime_error("malformed frame header");
    fill();
  }
  std::size_t length = 0;
  for (std::size_t i = 0; i < newline; ++i) {
    const char c = buffer_[i];
    if (c < '0' || c > '9' || newline > 19) {
      throw std::runtime_error("malformed frame header");
    }
    length = length * 10 + static_cast<std::size_t>(c - '0');
  }
  while (buffer_.size() < newline + 1 + length) fill();
  std::string payload = buffer_.substr(newline + 1, length);
  buffer_.erase(0, newline + 1 + length);
  return payload;
}

std::string Connection::roundtrip(const std::string& payload) {
  send_frame(payload);
  return recv_frame();
}

DaemonProcess::DaemonProcess(const std::string& binary,
                             std::string socket_path,
                             const std::string& log_path,
                             const std::vector<std::string>& args)
    : socket_(std::move(socket_path)) {
  ::unlink(socket_.c_str());
  // Everything the child needs is prepared before fork(): after it, only
  // async-signal-safe calls (open, dup2, execv, _exit).
  std::vector<std::string> argv_store = {binary, "--socket", socket_};
  argv_store.insert(argv_store.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& a : argv_store) argv.push_back(a.data());
  argv.push_back(nullptr);

  pid_ = ::fork();
  if (pid_ < 0) throw std::runtime_error("fork() failed");
  if (pid_ == 0) {
    const int log = ::open(log_path.c_str(),
                           O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
    if (log >= 0) {
      ::dup2(log, STDOUT_FILENO);
      ::dup2(log, STDERR_FILENO);
    }
    ::execv(binary.c_str(), argv.data());
    ::_exit(127);
  }
  try {
    // Readiness: the socket accepts a connection.
    Connection probe(socket_, 30.0);
  } catch (...) {
    reap(true);
    throw;
  }
}

DaemonProcess::~DaemonProcess() { reap(true); }

void DaemonProcess::reap(bool kill_first) {
  if (pid_ <= 0) return;
  if (kill_first) ::kill(pid_, SIGKILL);
  int status = 0;
  rusage usage{};
  while (::wait4(pid_, &status, 0, &usage) < 0 && errno == EINTR) {
  }
  peak_rss_mb_ = static_cast<double>(usage.ru_maxrss) * 1024.0 / 1e6;
  exit_status_ = status;
  pid_ = -1;
  ::unlink(socket_.c_str());
}

double DaemonProcess::shutdown(double timeout_s) {
  {
    Connection connection(socket_, 5.0);
    (void)connection.roundtrip("{\"id\": \"shutdown\", \"kind\": \"shutdown\"}");
  }
  const Clock::time_point start = Clock::now();
  for (;;) {
    int status = 0;
    rusage usage{};
    const pid_t done = ::wait4(pid_, &status, WNOHANG, &usage);
    if (done == pid_) {
      peak_rss_mb_ = static_cast<double>(usage.ru_maxrss) * 1024.0 / 1e6;
      exit_status_ = status;
      pid_ = -1;
      ::unlink(socket_.c_str());
      break;
    }
    if (std::chrono::duration<double>(Clock::now() - start).count() >
        timeout_s) {
      reap(true);
      throw std::runtime_error("agedtrd did not exit after shutdown");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  if (!WIFEXITED(exit_status_) || WEXITSTATUS(exit_status_) != 0) {
    throw std::runtime_error("agedtrd exited abnormally (status " +
                             std::to_string(exit_status_) + ")");
  }
  return peak_rss_mb_;
}

}  // namespace perfbench
