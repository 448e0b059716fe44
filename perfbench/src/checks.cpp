#include "checks.hpp"

#include <cmath>
#include <exception>
#include <sstream>

#include "agedtr/service/json.hpp"

namespace perfbench {

namespace {

std::string fmt(double x) {
  std::ostringstream out;
  out.precision(10);
  out << x;
  return out.str();
}

}  // namespace

std::string check_policy_feasible(const agedtr::core::DtrPolicy& policy,
                                  const std::vector<int>& tasks) {
  if (policy.size() != tasks.size()) {
    return "policy has " + std::to_string(policy.size()) + " servers, the "
           "system " + std::to_string(tasks.size());
  }
  for (std::size_t i = 0; i < policy.size(); ++i) {
    long long sent = 0;
    for (std::size_t j = 0; j < policy.size(); ++j) {
      const int moved = policy(i, j);
      if (moved < 0) {
        return "policy entry (" + std::to_string(i) + "," +
               std::to_string(j) + ") is negative";
      }
      if (i == j && moved != 0) {
        return "policy diagonal (" + std::to_string(i) + ") is nonzero";
      }
      sent += moved;
    }
    if (sent > tasks[i]) {
      return "server " + std::to_string(i) + " sends " + std::to_string(sent) +
             " tasks but holds " + std::to_string(tasks[i]);
    }
  }
  return "";
}

std::string check_same_policy(const agedtr::core::DtrPolicy& a,
                              const agedtr::core::DtrPolicy& b) {
  if (a.size() != b.size()) return "policies differ in size";
  for (std::size_t i = 0; i < a.size(); ++i) {
    for (std::size_t j = 0; j < a.size(); ++j) {
      if (a(i, j) != b(i, j)) {
        return "policies differ at (" + std::to_string(i) + "," +
               std::to_string(j) + "): " + std::to_string(a(i, j)) + " vs " +
               std::to_string(b(i, j));
      }
    }
  }
  return "";
}

std::string check_overlap(const std::string& what, const Interval& interval,
                          double lo, double hi) {
  if (overlaps(interval, lo, hi)) return "";
  return what + ": [" + fmt(interval.lower) + ", " + fmt(interval.upper) +
         "] does not meet [" + fmt(lo) + ", " + fmt(hi) + "]";
}

std::string check_inside(const std::string& what, double value, double lo,
                         double hi, double slack) {
  if (std::isfinite(value) && value >= lo - slack && value <= hi + slack) {
    return "";
  }
  return what + ": " + fmt(value) + " outside [" + fmt(lo) + ", " + fmt(hi) +
         "] (slack " + fmt(slack) + ")";
}

std::string check_below(const std::string& what, double value, double limit) {
  if (value < limit) return "";
  return what + ": " + fmt(value) + " is not below " + fmt(limit);
}

std::string check_close(const std::string& what, double got, double expected,
                        double rtol) {
  const double scale = std::max(std::fabs(expected), 1e-300);
  if (std::isfinite(got) && std::isfinite(expected) &&
      std::fabs(got - expected) <= rtol * scale) {
    return "";
  }
  return what + ": got " + fmt(got) + ", expected " + fmt(expected) +
         " (rtol " + fmt(rtol) + ")";
}

std::string check_reply(const std::string& reply_text,
                        const std::string& expected_id, double* value) {
  using agedtr::service::Json;
  Json reply;
  try {
    reply = Json::parse(reply_text);
  } catch (const std::exception& e) {
    return "reply to " + expected_id + " is not JSON: " + e.what();
  }
  if (!reply.is_object()) return "reply to " + expected_id + " not an object";
  const Json* id = reply.find("id");
  if (id == nullptr || !id->is_string() || id->as_string() != expected_id) {
    return "reply carries id " +
           (id != nullptr && id->is_string() ? id->as_string()
                                             : std::string("(none)")) +
           ", expected " + expected_id;
  }
  const Json* status = reply.find("status");
  if (status == nullptr || !status->is_string() ||
      status->as_string() != "ok") {
    return "reply to " + expected_id + " is not ok: " + reply_text;
  }
  if (value != nullptr) {
    const Json* v = reply.find("value");
    if (v == nullptr || !v->is_number()) {
      return "reply to " + expected_id + " has no numeric value";
    }
    *value = v->as_number();
  }
  return "";
}

std::string check_search_optimum(double optimum,
                                 const std::vector<double>& grid_values,
                                 bool maximize, double rtol) {
  if (grid_values.empty()) return "search check: empty grid";
  for (std::size_t k = 0; k < grid_values.size(); ++k) {
    const double v = grid_values[k];
    const double tol = rtol * std::max(std::fabs(v), 1e-300);
    const bool worse = maximize ? optimum < v - tol : optimum > v + tol;
    if (worse || !std::isfinite(optimum)) {
      return "search optimum " + fmt(optimum) + " is worse than grid point " +
             std::to_string(k) + " (" + fmt(v) + ")";
    }
  }
  return "";
}

}  // namespace perfbench
