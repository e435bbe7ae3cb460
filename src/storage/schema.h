// Table schemas and row encoding.

#ifndef NETMARK_STORAGE_SCHEMA_H_
#define NETMARK_STORAGE_SCHEMA_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "storage/value.h"

namespace netmark::storage {

/// One column definition.
struct ColumnSchema {
  std::string name;
  ValueType type = ValueType::kString;
  bool nullable = true;
};

/// A row is simply a vector of cell values, positionally matching a schema.
using Row = std::vector<Value>;

/// \brief Ordered column list for a table.
class TableSchema {
 public:
  TableSchema() = default;
  TableSchema(std::string table_name, std::vector<ColumnSchema> columns)
      : name_(std::move(table_name)), columns_(std::move(columns)) {}

  const std::string& name() const { return name_; }
  const std::vector<ColumnSchema>& columns() const { return columns_; }
  size_t num_columns() const { return columns_.size(); }

  /// Index of a column by name, or NotFound.
  netmark::Result<size_t> ColumnIndex(std::string_view column) const;

  /// Checks a row against the schema (arity, types, nullability).
  netmark::Status Validate(const Row& row) const;

  /// One-line textual form for the catalog file:
  ///   name(col:TYPE[?],col:TYPE[?],...)   ('?' marks nullable)
  std::string Encode() const;
  static netmark::Result<TableSchema> Decode(std::string_view text);

 private:
  std::string name_;
  std::vector<ColumnSchema> columns_;
};

/// \brief Serializes a row to bytes (self-delimiting; independent of schema).
std::string EncodeRow(const Row& row);
/// \brief Decodes a row previously produced by EncodeRow.
netmark::Result<Row> DecodeRow(std::string_view bytes);

/// One decoded cell; string bytes still point into the encoded row.
struct ValueView {
  ValueType type = ValueType::kNull;
  int64_t int_value = 0;
  double real_value = 0;
  std::string_view str_value;
};

/// \brief Cursor over EncodeRow bytes — the one row decoder. DecodeRow
/// builds a Row with it; typed readers (e.g. the XML store's node records)
/// decode straight from page bytes with it, without an intermediate Row.
class RowReader {
 public:
  /// Reads the column-count header; Corruption when it is truncated.
  static netmark::Result<RowReader> Open(std::string_view bytes);

  uint64_t columns() const { return columns_; }

  /// Decodes the next cell; Corruption on truncation, an unknown type tag,
  /// or a read past the last column.
  netmark::Result<ValueView> Next();

  /// OK once every column was read and no bytes trail the row.
  netmark::Status Finish() const;

 private:
  RowReader(std::string_view bytes, size_t pos, uint64_t columns)
      : bytes_(bytes), pos_(pos), columns_(columns) {}

  std::string_view bytes_;
  size_t pos_;
  uint64_t columns_;
  uint64_t read_ = 0;
};

}  // namespace netmark::storage

#endif  // NETMARK_STORAGE_SCHEMA_H_
