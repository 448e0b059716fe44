// The real agedtrd binary as a child process, and a framed client
// connection to its UNIX socket (`<decimal length>\n<payload>` frames).
#pragma once

#include <sys/types.h>

#include <string>
#include <vector>

namespace perfbench {

class Connection {
 public:
  /// Connects to `socket_path`, retrying every 20 ms for up to
  /// `timeout_s` while the daemon boots. Throws std::runtime_error.
  Connection(const std::string& socket_path, double timeout_s);
  ~Connection();
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  /// Sends one request frame and reads one reply frame. Throws
  /// std::runtime_error on a transport error.
  std::string roundtrip(const std::string& payload);

 private:
  void send_frame(const std::string& payload);
  std::string recv_frame();

  int fd_ = -1;
  std::string buffer_;  // bytes read past the previous frame
};

class DaemonProcess {
 public:
  /// Starts `binary --socket <socket_path> <args...>` with stdout and
  /// stderr appended to `log_path`, and waits until it accepts a
  /// connection. Throws std::runtime_error.
  DaemonProcess(const std::string& binary, std::string socket_path,
                const std::string& log_path,
                const std::vector<std::string>& args);
  /// Kills the daemon if it is still running, and reaps it.
  ~DaemonProcess();
  DaemonProcess(const DaemonProcess&) = delete;
  DaemonProcess& operator=(const DaemonProcess&) = delete;

  [[nodiscard]] const std::string& socket_path() const { return socket_; }

  /// Sends a `shutdown` request, waits for the process to exit (SIGKILL
  /// after `timeout_s`) and returns its peak resident set in MB. Throws
  /// std::runtime_error when the daemon did not exit cleanly.
  double shutdown(double timeout_s);

 private:
  void reap(bool kill_first);

  pid_t pid_ = -1;
  std::string socket_;
  double peak_rss_mb_ = 0.0;
  int exit_status_ = -1;
};

}  // namespace perfbench
