#ifndef NIMBLE_CONNECTOR_XML_CONNECTOR_H_
#define NIMBLE_CONNECTOR_XML_CONNECTOR_H_

#include <map>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "connector/connector.h"

namespace nimble {
namespace connector {

/// Serves a set of named XML documents — the "native XML" source class the
/// paper's market (data interchange via XML, §1) centres on. Documents are
/// registered programmatically or parsed from text.
///
/// Documents are frozen at ingest and fetches share them. An edit is
/// fetch, Clone(), edit, PutDocument; queries still reading the old
/// snapshot keep it. Reads (Collections/FetchCollection) take a shared
/// lock and may run concurrently; Put* take an exclusive lock.
class XmlConnector : public Connector {
 public:
  explicit XmlConnector(std::string source_name)
      : name_(std::move(source_name)) {}

  const std::string& name() const override { return name_; }
  SourceCapabilities capabilities() const override {
    return SourceCapabilities{};  // bare document server; mediator does all work
  }
  std::vector<std::string> Collections() override;
  using Connector::FetchCollection;
  Result<NodePtr> FetchCollection(const std::string& collection,
                                  const RequestContext& ctx) override;
  uint64_t DataVersion() override {
    ReaderMutexLock lock(doc_mutex_);
    return version_;
  }

  /// Freezes `document` and registers (or replaces) it under `doc_name`.
  void PutDocument(const std::string& doc_name, NodePtr document);

  /// Parses `xml_text` and registers it.
  Status PutDocumentText(const std::string& doc_name,
                         const std::string& xml_text);

  /// Drops a document (bumps the data version). Returns true when it
  /// existed. Simulates a source-side schema change: plans compiled while
  /// the document existed become stale.
  bool RemoveDocument(const std::string& doc_name);

 private:
  const std::string name_;
  mutable SharedMutex doc_mutex_{LockRank::kConnectorData, "xml_connector.docs"};
  std::map<std::string, NodePtr> documents_ NIMBLE_GUARDED_BY(doc_mutex_);
  uint64_t version_ NIMBLE_GUARDED_BY(doc_mutex_) = 0;
};

}  // namespace connector
}  // namespace nimble

#endif  // NIMBLE_CONNECTOR_XML_CONNECTOR_H_
