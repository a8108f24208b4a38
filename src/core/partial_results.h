#ifndef NIMBLE_CORE_PARTIAL_RESULTS_H_
#define NIMBLE_CORE_PARTIAL_RESULTS_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "xml/node.h"

namespace nimble {
namespace core {

/// What to do when a data source is unavailable mid-query (paper §3.4:
/// "it is often not acceptable … to simply return an error or an empty
/// result"; the system should provide "partial results, and indicat[e] to
/// the user that the results were not complete").
enum class AvailabilityPolicy {
  /// Fail the whole query on the first unavailable source.
  kFailFast,
  /// Skip query branches whose sources are down; annotate the result as
  /// incomplete and list what was missing.
  kPartial,
};

/// Completeness annotation attached to every query result.
struct CompletenessInfo {
  bool complete = true;
  /// Sources that could not be reached.
  std::vector<std::string> unavailable_sources;
  /// UNION branches (by index) skipped because of unavailable sources.
  std::vector<size_t> skipped_branches;

  std::string ToString() const;

  /// Surfaces completeness on a result root so downstream consumers
  /// (lenses, devices) can display it (§3.4: "indicating to the user that
  /// the results were not complete"): `complete="true|false"`, plus
  /// `missing_sources` (comma-separated) when incomplete.
  void StampOn(Node* root) const;
  /// The inverse of StampOn for a root that carries no report (a shared
  /// cache snapshot): reads `complete` and `missing_sources`; a root
  /// without the attributes reads as complete. Skipped branches are not
  /// recorded on the root and come back empty.
  static CompletenessInfo ReadFrom(const Node& root);
};

/// The failures a partial answer may stand in for under kPartial: a source,
/// shard or engine that is down (Unavailable), too slow (Timeout) or
/// overloaded (ResourceExhausted). Every other code is a hard error.
bool DegradableCode(StatusCode code);

}  // namespace core
}  // namespace nimble

#endif  // NIMBLE_CORE_PARTIAL_RESULTS_H_
