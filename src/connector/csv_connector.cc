#include "connector/csv_connector.h"

#include "common/strings.h"

namespace nimble {
namespace connector {

std::vector<std::string> SplitCsvLine(const std::string& line) {
  std::vector<std::string> fields;
  std::string current;
  bool in_quotes = false;
  for (size_t i = 0; i < line.size(); ++i) {
    char c = line[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < line.size() && line[i + 1] == '"') {
          current.push_back('"');
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        current.push_back(c);
      }
    } else if (c == '"') {
      in_quotes = true;
    } else if (c == ',') {
      fields.push_back(std::move(current));
      current.clear();
    } else {
      current.push_back(c);
    }
  }
  fields.push_back(std::move(current));
  return fields;
}

Status CsvConnector::PutCsv(const std::string& collection_name,
                            const std::string& csv_text) {
  std::vector<std::string> lines = Split(csv_text, '\n');
  if (lines.empty() || Trim(lines[0]).empty()) {
    return Status::InvalidArgument("CSV requires a header row");
  }
  std::vector<std::string> headers = SplitCsvLine(Trim(lines[0]));
  NodePtr root = Node::Element(collection_name);
  for (size_t i = 1; i < lines.size(); ++i) {
    std::string line = Trim(lines[i]);
    if (line.empty()) continue;
    std::vector<std::string> fields = SplitCsvLine(line);
    if (fields.size() != headers.size()) {
      return Status::ParseError("CSV row " + std::to_string(i) + " has " +
                                std::to_string(fields.size()) + " fields, " +
                                "header has " +
                                std::to_string(headers.size()));
    }
    NodePtr row = Node::Element("row");
    for (size_t f = 0; f < fields.size(); ++f) {
      row->AddScalarChild(headers[f], Value::Infer(fields[f]));
    }
    root->AddChild(std::move(row));
  }
  root->Freeze();
  WriterMutexLock lock(mutex_);
  collections_[collection_name] = std::move(root);
  ++version_;
  return Status::OK();
}

std::vector<std::string> CsvConnector::Collections() {
  ReaderMutexLock lock(mutex_);
  std::vector<std::string> names;
  names.reserve(collections_.size());
  for (const auto& [collection, doc] : collections_) {
    names.push_back(collection);
  }
  return names;
}

Result<NodePtr> CsvConnector::FetchCollection(const std::string& collection,
                                              const RequestContext& ctx) {
  NIMBLE_RETURN_IF_ERROR(Admit(ctx));
  NodePtr snapshot;
  {
    ReaderMutexLock lock(mutex_);
    auto it = collections_.find(collection);
    if (it == collections_.end()) {
      return Status::NotFound("source '" + name_ + "' has no collection '" +
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

}  // namespace connector
}  // namespace nimble
