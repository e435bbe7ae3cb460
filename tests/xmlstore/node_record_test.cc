// In-place NodeRecord decoding (NodeRecord::Decode, the read path's
// GetNode) must agree with the generic Row path it replaced:
// FromRow(DecodeRow(bytes)), for every record ToRow/EncodeRow can produce.

#include "xmlstore/node_record.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "common/rng.h"

namespace netmark::xmlstore {
namespace {

using storage::RowId;
using storage::Value;

void ExpectSameRecord(const NodeRecord& a, const NodeRecord& b) {
  EXPECT_EQ(a.node_id, b.node_id);
  EXPECT_EQ(a.doc_id, b.doc_id);
  EXPECT_EQ(a.parent_rowid, b.parent_rowid);
  EXPECT_EQ(a.parent_node_id, b.parent_node_id);
  EXPECT_EQ(a.node_type, b.node_type);
  EXPECT_EQ(a.node_name, b.node_name);
  EXPECT_EQ(a.node_data, b.node_data);
  EXPECT_EQ(a.sibling_rowid, b.sibling_rowid);
  EXPECT_EQ(a.prev_rowid, b.prev_rowid);
}

RowId RandomRowId(Rng& rng) {
  if (rng.Chance(0.3)) return storage::kInvalidRowId;
  RowId id;
  id.page = static_cast<storage::PageId>(rng.Uniform(storage::kInvalidPage));
  id.slot = static_cast<uint16_t>(rng.Uniform(0x10000));
  return id;
}

int64_t RandomId(Rng& rng) {
  switch (rng.Uniform(4)) {
    case 0:
      return -1;
    case 1:
      return -static_cast<int64_t>(rng.Uniform(1ull << 40)) - 2;
    case 2:
      return static_cast<int64_t>(rng.Next());  // any bit pattern, sign included
    default:
      return static_cast<int64_t>(rng.Uniform(100000));
  }
}

std::string RandomText(Rng& rng) {
  switch (rng.Uniform(4)) {
    case 0:
      return "";
    case 1:
      // Larger than a heap page: the record spills to overflow pages.
      return std::string(20000 + rng.Uniform(5000), static_cast<char>('a' + rng.Uniform(26)));
    default: {
      std::string s(rng.Uniform(200), '\0');
      for (char& c : s) c = static_cast<char>(rng.Uniform(256));  // NULs, high bytes
      return s;
    }
  }
}

NodeRecord RandomRecord(Rng& rng) {
  NodeRecord r;
  r.node_id = RandomId(rng);
  r.doc_id = RandomId(rng);
  r.parent_rowid = RandomRowId(rng);
  r.parent_node_id = RandomId(rng);
  r.node_type = static_cast<xml::NetmarkNodeType>(rng.UniformInt(1, 5));
  r.node_name = RandomText(rng);
  r.node_data = RandomText(rng);
  r.sibling_rowid = RandomRowId(rng);
  r.prev_rowid = RandomRowId(rng);
  return r;
}

NodeRecord ViaRow(const std::string& bytes) {
  auto row = storage::DecodeRow(bytes);
  EXPECT_TRUE(row.ok()) << row.status().ToString();
  auto rec = NodeRecord::FromRow(*row);
  EXPECT_TRUE(rec.ok()) << rec.status().ToString();
  return rec.ok() ? *rec : NodeRecord{};
}

TEST(NodeRecordDecodeTest, InPlaceDecodeMatchesRowPathOnRandomRecords) {
  for (uint64_t seed = 1; seed <= 400; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    NodeRecord original = RandomRecord(rng);
    std::string bytes = storage::EncodeRow(original.ToRow());
    auto decoded = NodeRecord::Decode(bytes);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    ExpectSameRecord(*decoded, ViaRow(bytes));
    ExpectSameRecord(*decoded, original);
  }
}

TEST(NodeRecordDecodeTest, NullAndEmptyTextColumnsBothDecodeEmpty) {
  NodeRecord base;
  base.node_id = 7;
  base.doc_id = 1;
  base.parent_node_id = 0;
  base.node_type = xml::NetmarkNodeType::kText;
  for (bool null_cells : {true, false}) {
    storage::Row row = base.ToRow();  // empty strings encode as NULL
    if (!null_cells) {
      row[NodeRecord::kNodeName] = Value::Str("");
      row[NodeRecord::kNodeData] = Value::Str("");
    }
    std::string bytes = storage::EncodeRow(row);
    auto decoded = NodeRecord::Decode(bytes);
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(decoded->node_name, "");
    EXPECT_EQ(decoded->node_data, "");
    ExpectSameRecord(*decoded, ViaRow(bytes));
  }
}

TEST(NodeRecordDecodeTest, InvalidRowIdsSurviveTheRoundTrip) {
  NodeRecord r;
  r.node_id = -5;
  r.doc_id = -9;
  r.parent_node_id = -1;
  r.parent_rowid = storage::kInvalidRowId;
  r.sibling_rowid = storage::kInvalidRowId;
  r.prev_rowid = storage::kInvalidRowId;
  auto decoded = NodeRecord::Decode(storage::EncodeRow(r.ToRow()));
  ASSERT_TRUE(decoded.ok());
  EXPECT_FALSE(decoded->parent_rowid.valid());
  EXPECT_FALSE(decoded->sibling_rowid.valid());
  EXPECT_FALSE(decoded->prev_rowid.valid());
  ExpectSameRecord(*decoded, r);
}

TEST(NodeRecordDecodeTest, TruncatedOrPaddedBytesAreCorruption) {
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    Rng rng(seed * 7919);
    NodeRecord original = RandomRecord(rng);
    // Short texts keep the every-prefix sweep small.
    original.node_name.resize(std::min<size_t>(original.node_name.size(), 300));
    original.node_data.resize(std::min<size_t>(original.node_data.size(), 300));
    std::string bytes = storage::EncodeRow(original.ToRow());
    for (size_t len = 0; len < bytes.size(); ++len) {
      auto decoded = NodeRecord::Decode(std::string_view(bytes).substr(0, len));
      ASSERT_FALSE(decoded.ok()) << "seed " << seed << " prefix " << len;
      EXPECT_TRUE(decoded.status().IsCorruption()) << decoded.status().ToString();
    }
    EXPECT_TRUE(NodeRecord::Decode(bytes + "x").status().IsCorruption());
  }
}

TEST(NodeRecordDecodeTest, WrongShapeRowsAreCorruption) {
  NodeRecord r;
  r.node_type = xml::NetmarkNodeType::kElement;
  storage::Row row = r.ToRow();
  row.pop_back();
  EXPECT_TRUE(NodeRecord::Decode(storage::EncodeRow(row)).status().IsCorruption());
  row = r.ToRow();
  row[NodeRecord::kDocId] = Value::Str("not an id");
  EXPECT_TRUE(NodeRecord::Decode(storage::EncodeRow(row)).status().IsCorruption());
  EXPECT_TRUE(NodeRecord::FromRow(row).status().IsCorruption());
  row = r.ToRow();
  row[NodeRecord::kNodeType] = Value::Int(99);
  EXPECT_TRUE(NodeRecord::Decode(storage::EncodeRow(row)).status().IsCorruption());
}

}  // namespace
}  // namespace netmark::xmlstore
