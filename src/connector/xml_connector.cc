#include "connector/xml_connector.h"

#include "xml/parser.h"

namespace nimble {
namespace connector {

std::vector<std::string> XmlConnector::Collections() {
  ReaderMutexLock lock(doc_mutex_);
  std::vector<std::string> names;
  names.reserve(documents_.size());
  for (const auto& [doc_name, doc] : documents_) names.push_back(doc_name);
  return names;
}

Result<NodePtr> XmlConnector::FetchCollection(const std::string& collection,
                                              const RequestContext& ctx) {
  NIMBLE_RETURN_IF_ERROR(Admit(ctx));
  NodePtr snapshot;
  {
    ReaderMutexLock lock(doc_mutex_);
    auto it = documents_.find(collection);
    if (it == documents_.end()) {
      return Status::NotFound("source '" + name_ + "' has no document '" +
                              collection + "'");
    }
    snapshot = it->second;
  }
  FetchStats delta;
  delta.calls = 1;
  delta.rows_shipped = snapshot->children().size();
  AddStats(ctx, delta);
  return snapshot;
}

void XmlConnector::PutDocument(const std::string& doc_name, NodePtr document) {
  document->Freeze();
  WriterMutexLock lock(doc_mutex_);
  documents_[doc_name] = std::move(document);
  ++version_;
}

Status XmlConnector::PutDocumentText(const std::string& doc_name,
                                     const std::string& xml_text) {
  NIMBLE_ASSIGN_OR_RETURN(NodePtr doc, ParseXml(xml_text));
  PutDocument(doc_name, std::move(doc));
  return Status::OK();
}

bool XmlConnector::RemoveDocument(const std::string& doc_name) {
  WriterMutexLock lock(doc_mutex_);
  if (documents_.erase(doc_name) == 0) return false;
  ++version_;
  return true;
}

}  // namespace connector
}  // namespace nimble
