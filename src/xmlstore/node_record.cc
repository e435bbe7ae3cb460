#include "xmlstore/node_record.h"

namespace netmark::xmlstore {

using storage::ColumnSchema;
using storage::Row;
using storage::RowId;
using storage::TableSchema;
using storage::Value;
using storage::ValueType;

TableSchema NodeRecord::Schema() {
  return TableSchema(
      "XML", {
                 ColumnSchema{"NODEID", ValueType::kInt64, false},
                 ColumnSchema{"DOC_ID", ValueType::kInt64, false},
                 ColumnSchema{"PARENTROWID", ValueType::kInt64, false},
                 ColumnSchema{"PARENTNODEID", ValueType::kInt64, false},
                 ColumnSchema{"NODETYPE", ValueType::kInt64, false},
                 ColumnSchema{"NODENAME", ValueType::kString, true},
                 ColumnSchema{"NODEDATA", ValueType::kString, true},
                 ColumnSchema{"SIBLINGID", ValueType::kInt64, false},
                 ColumnSchema{"PREVROWID", ValueType::kInt64, false},
             });
}

Row NodeRecord::ToRow() const {
  Row row;
  row.reserve(9);
  row.push_back(Value::Int(node_id));
  row.push_back(Value::Int(doc_id));
  row.push_back(Value::Int(static_cast<int64_t>(
      parent_rowid.valid() ? parent_rowid.Pack() : RowId::kInvalidPacked)));
  row.push_back(Value::Int(parent_node_id));
  row.push_back(Value::Int(static_cast<int64_t>(node_type)));
  row.push_back(node_name.empty() ? Value::Null() : Value::Str(node_name));
  row.push_back(node_data.empty() ? Value::Null() : Value::Str(node_data));
  row.push_back(Value::Int(static_cast<int64_t>(
      sibling_rowid.valid() ? sibling_rowid.Pack() : RowId::kInvalidPacked)));
  row.push_back(Value::Int(static_cast<int64_t>(
      prev_rowid.valid() ? prev_rowid.Pack() : RowId::kInvalidPacked)));
  return row;
}

namespace {

constexpr size_t kNodeColumns = 9;

// The column mapping FromRow and Decode share: `cells` are the nine stored
// cells in schema order.
netmark::Result<NodeRecord> FromCells(const storage::ValueView* cells) {
  using C = NodeRecord::Column;
  for (size_t c = 0; c < kNodeColumns; ++c) {
    ValueType t = cells[c].type;
    bool text = c == C::kNodeName || c == C::kNodeData;
    if (text ? t != ValueType::kString && t != ValueType::kNull : t != ValueType::kInt64) {
      return netmark::Status::Corruption("XML row has a mistyped column");
    }
  }
  NodeRecord r;
  r.node_id = cells[C::kNodeId].int_value;
  r.doc_id = cells[C::kDocId].int_value;
  r.parent_rowid = RowId::Unpack(static_cast<uint64_t>(cells[C::kParentRowId].int_value));
  r.parent_node_id = cells[C::kParentNodeId].int_value;
  NETMARK_ASSIGN_OR_RETURN(
      r.node_type,
      xml::NetmarkNodeTypeFromInt(static_cast<int32_t>(cells[C::kNodeType].int_value)));
  r.node_name = cells[C::kNodeName].str_value;  // NULL views are empty
  r.node_data = cells[C::kNodeData].str_value;
  r.sibling_rowid = RowId::Unpack(static_cast<uint64_t>(cells[C::kSiblingId].int_value));
  r.prev_rowid = RowId::Unpack(static_cast<uint64_t>(cells[C::kPrevRowId].int_value));
  return r;
}

}  // namespace

netmark::Result<NodeRecord> NodeRecord::FromRow(const Row& row) {
  if (row.size() != kNodeColumns) {
    return netmark::Status::Corruption("XML row has wrong arity");
  }
  storage::ValueView cells[kNodeColumns];
  for (size_t i = 0; i < kNodeColumns; ++i) {
    cells[i].type = row[i].type();
    if (cells[i].type == ValueType::kInt64) cells[i].int_value = row[i].AsInt();
    if (cells[i].type == ValueType::kString) cells[i].str_value = row[i].AsStr();
  }
  return FromCells(cells);
}

netmark::Result<NodeRecord> NodeRecord::Decode(std::string_view bytes) {
  NETMARK_ASSIGN_OR_RETURN(storage::RowReader reader, storage::RowReader::Open(bytes));
  if (reader.columns() != kNodeColumns) {
    return netmark::Status::Corruption("XML row has wrong arity");
  }
  storage::ValueView cells[kNodeColumns];
  for (storage::ValueView& cell : cells) {
    NETMARK_ASSIGN_OR_RETURN(cell, reader.Next());
  }
  NETMARK_RETURN_NOT_OK(reader.Finish());
  return FromCells(cells);
}

TableSchema DocRecord::Schema() {
  return TableSchema("DOC", {
                                ColumnSchema{"DOC_ID", ValueType::kInt64, false},
                                ColumnSchema{"FILE_NAME", ValueType::kString, false},
                                ColumnSchema{"FILE_DATE", ValueType::kInt64, false},
                                ColumnSchema{"FILE_SIZE", ValueType::kInt64, false},
                                ColumnSchema{"NODE_COUNT", ValueType::kInt64, false},
                            });
}

Row DocRecord::ToRow() const {
  Row row;
  row.reserve(5);
  row.push_back(Value::Int(doc_id));
  row.push_back(Value::Str(file_name));
  row.push_back(Value::Int(file_date));
  row.push_back(Value::Int(file_size));
  row.push_back(Value::Int(node_count));
  return row;
}

netmark::Result<DocRecord> DocRecord::FromRow(const Row& row) {
  // 4-column rows predate NODE_COUNT; 0 means "unknown" and disables the
  // reconstruction completeness check for that document.
  if (row.size() != 4 && row.size() != 5) {
    return netmark::Status::Corruption("DOC row has wrong arity");
  }
  DocRecord r;
  r.doc_id = row[kDocId].AsInt();
  r.file_name = row[kFileName].AsStr();
  r.file_date = row[kFileDate].AsInt();
  r.file_size = row[kFileSize].AsInt();
  if (row.size() > kNodeCount) r.node_count = row[kNodeCount].AsInt();
  return r;
}

}  // namespace netmark::xmlstore
