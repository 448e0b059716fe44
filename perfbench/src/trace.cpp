#include "trace.hpp"

#include <cstdio>
#include <fstream>
#include <mutex>
#include <utility>

namespace perfbench {

namespace {

// Spans are appended from client threads in the agedtrd workload, so the
// store is locked; tracing runs are separate from the timed runs.
std::mutex g_mutex;
std::vector<SpanRecord> g_spans;
std::uint64_t g_next_id = 1;
std::uint32_t g_next_thread = 1;

struct ThreadState {
  std::uint32_t thread = 0;
  std::vector<std::uint64_t> open;  // innermost last
};
thread_local ThreadState t_state;

std::string escape(const std::string& text) {
  std::string out;
  for (const char c : text) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

}  // namespace

Tracer& Tracer::global() {
  static Tracer tracer;
  return tracer;
}

void Tracer::enable(std::string workload) {
  workload_ = std::move(workload);
  origin_ = Clock::now();
  enabled_ = true;
}

std::uint64_t Tracer::open(const std::string& name, Clock::time_point start) {
  const std::lock_guard<std::mutex> lock(g_mutex);
  if (t_state.thread == 0) t_state.thread = g_next_thread++;
  SpanRecord record;
  record.id = g_next_id++;
  record.parent = t_state.open.empty() ? 0 : t_state.open.back();
  record.thread = t_state.thread;
  record.name = name;
  record.start_us =
      std::chrono::duration<double, std::micro>(start - origin_).count();
  t_state.open.push_back(record.id);
  g_spans.push_back(std::move(record));
  return g_spans.back().id;
}

void Tracer::close(std::uint64_t id, Clock::time_point end) {
  const std::lock_guard<std::mutex> lock(g_mutex);
  // Ids are dense and spans are never erased, so id - 1 is the index.
  g_spans[id - 1].end_us =
      std::chrono::duration<double, std::micro>(end - origin_).count();
  if (!t_state.open.empty() && t_state.open.back() == id) {
    t_state.open.pop_back();
  }
}

std::vector<SpanRecord> Tracer::spans() const {
  const std::lock_guard<std::mutex> lock(g_mutex);
  return g_spans;
}

std::string Tracer::chrome_json() const {
  const std::vector<SpanRecord> all = spans();
  std::string out = "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
  char buffer[160];
  for (std::size_t i = 0; i < all.size(); ++i) {
    const SpanRecord& s = all[i];
    const std::string layer = s.name.substr(0, s.name.find('.'));
    out += i == 0 ? "\n" : ",\n";
    out += "{\"name\": \"" + escape(s.name) + "\", \"cat\": \"" +
           escape(layer) + "\", \"ph\": \"X\"";
    std::snprintf(buffer, sizeof buffer,
                  ", \"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": %u",
                  s.start_us, s.end_us - s.start_us, s.thread);
    out += buffer;
    out += ", \"args\": {\"id\": " + std::to_string(s.id) +
           ", \"parent\": " + std::to_string(s.parent) +
           ", \"workload\": \"" + escape(workload_) + "\"}}";
  }
  return out + "\n]}\n";
}

bool Tracer::write(const std::string& path) const {
  std::ofstream out(path);
  out << chrome_json();
  return static_cast<bool>(out);
}

Span::Span(std::string name) : name_(std::move(name)), start_(Clock::now()) {
  Tracer& tracer = Tracer::global();
  if (tracer.enabled()) id_ = tracer.open(name_, start_);
}

Span::~Span() { stop(); }

double Span::stop() {
  if (seconds_ >= 0.0) return seconds_;
  const Clock::time_point end = Clock::now();
  seconds_ = std::chrono::duration<double>(end - start_).count();
  if (id_ != 0) Tracer::global().close(id_, end);
  return seconds_;
}

}  // namespace perfbench
