#ifndef NIMBLE_E2EBENCH_WORKLOAD_UTIL_H_
#define NIMBLE_E2EBENCH_WORKLOAD_UTIL_H_

// Small pieces the three workloads and the harness share: the city/region
// dimension, record digests for answer checks, CPU pinning, and
// request-span recording.

#include <sched.h>

#include <cstdint>
#include <string>
#include <vector>

#include "harness.h"
#include "trace.h"
#include "xml/node.h"

namespace nimble {
namespace e2ebench {

/// Ten cities in five regions: the small XML dimension document.
inline const std::vector<std::pair<std::string, std::string>>& CityRegions() {
  static const std::vector<std::pair<std::string, std::string>> kCities = {
      {"seattle", "north"}, {"tacoma", "north"},   {"portland", "west"},
      {"eugene", "west"},   {"boise", "east"},     {"spokane", "east"},
      {"salem", "south"},   {"bend", "south"},     {"yakima", "central"},
      {"olympia", "central"}};
  return kCities;
}

/// `<regions><region><city>c</city><name>r</name></region>...</regions>`.
inline std::string RegionsXml() {
  std::string xml = "<regions>";
  for (const auto& [city, region] : CityRegions()) {
    xml += "<region><city>" + city + "</city><name>" + region + "</name></region>";
  }
  return xml + "</regions>";
}

/// FNV-1a over the fields of one record, each terminated by '\x1f'.
inline uint64_t RecordHash(const std::vector<std::string>& fields) {
  uint64_t h = 1469598103934665603ULL;
  for (const std::string& field : fields) {
    for (char c : field) {
      h ^= static_cast<unsigned char>(c);
      h *= 1099511628211ULL;
    }
    h ^= 0x1f;
    h *= 1099511628211ULL;
  }
  return h;
}

/// Digest of a record sequence: order-sensitive when the query orders its
/// answer, a plain sum (any order) otherwise.
struct Digest {
  uint64_t count = 0;
  uint64_t value = 0;
  void Add(uint64_t record_hash, bool ordered) {
    value = ordered ? value * 1099511628211ULL + record_hash : value + record_hash;
    ++count;
  }
  bool operator==(const Digest& other) const {
    return count == other.count && value == other.value;
  }
};

/// The scalar of `record`'s child element `name` ("" when absent).
inline std::string ChildText(const Node& record, const std::string& name) {
  NodePtr child = record.FindChild(name);
  return child == nullptr ? "" : child->ScalarValue().ToString();
}

/// True when the answer root carries complete="true".
inline bool IsComplete(const Node& document) {
  Value complete = document.GetAttribute("complete");
  return complete.is_bool() && complete.AsBool();
}

/// How many CPUs the calling thread may run on.
int AllowedCpus();

/// Pins every thread of the process to one CPU of the set the calling
/// thread may run on, picked by `index` modulo the set's size; threads
/// started while pinned inherit that CPU. When the pin ends, every thread
/// gets the original set back. The harness pins each set-up and each round
/// to the next CPU:
/// - a workload's threads (clients, engine pools, shard workers) share one
///   vCPU, so a round is not stalled when the host deschedules another vCPU
///   that holds a lock or a shard subplan the round waits for (multi-vCPU
///   rounds swung 2x in throughput on a busy host);
/// - successive rounds sample every vCPU of a shared VM, whose vCPUs run at
///   persistently different speeds (17 vs 22 ms for one loop on a 4-vCPU
///   VM); left alone, the scheduler keeps a lone busy thread on one vCPU
///   for a whole run.
class PinProcessToCpu {
 public:
  explicit PinProcessToCpu(size_t index);
  ~PinProcessToCpu();
  PinProcessToCpu(const PinProcessToCpu&) = delete;
  PinProcessToCpu& operator=(const PinProcessToCpu&) = delete;

 private:
  cpu_set_t saved_{};
  bool pinned_ = false;
};

/// Records `r`'s request span when the round is traced.
inline void RecordRequestSpan(const RequestRecord& r) {
  if (!Tracer::Get().enabled()) return;
  Span s;
  s.name = span::kRequest;
  s.id = r.id;
  s.start = r.start;
  s.end = r.end;
  Tracer::Get().Record(s);
}

}  // namespace e2ebench
}  // namespace nimble

#endif  // NIMBLE_E2EBENCH_WORKLOAD_UTIL_H_
