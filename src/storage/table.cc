#include "storage/table.h"

#include <algorithm>
#include <mutex>

namespace netmark::storage {

netmark::Result<std::unique_ptr<Table>> Table::Open(
    TableSchema schema, const std::string& file_path,
    const std::vector<IndexDef>& indexes, PagerOptions pager_options) {
  NETMARK_ASSIGN_OR_RETURN(std::unique_ptr<Pager> pager,
                           Pager::Open(file_path, pager_options));
  NETMARK_ASSIGN_OR_RETURN(HeapFile heap, HeapFile::Open(pager.get()));
  std::unique_ptr<Table> table(new Table(std::move(schema), std::move(pager),
                                         std::make_unique<HeapFile>(std::move(heap))));
  for (const IndexDef& def : indexes) {
    NETMARK_RETURN_NOT_OK(table->CreateIndex(def.name, def.columns));
  }
  return table;
}

IndexKey Table::ExtractKey(const Index& index, const Row& row) const {
  IndexKey key;
  key.reserve(index.column_indexes.size());
  for (size_t ci : index.column_indexes) key.push_back(row[ci]);
  return key;
}

netmark::Status Table::IndexInsert(const Row& row, RowId id) {
  std::unique_lock<std::shared_mutex> lock(index_mu_);
  for (auto& [name, index] : indexes_) {
    index.tree.Insert(ExtractKey(index, row), id);
  }
  return netmark::Status::OK();
}

netmark::Status Table::IndexRemove(const Row& row, RowId id) {
  std::unique_lock<std::shared_mutex> lock(index_mu_);
  for (auto& [name, index] : indexes_) {
    index.tree.Remove(ExtractKey(index, row), id);
  }
  return netmark::Status::OK();
}

void Table::DeferRemoval(const std::string& name, IndexKey key, RowId id) {
  PendingRemoval removal;
  removal.index = name;
  removal.key = std::move(key);
  removal.id = id;
  pending_removals_.push_back(std::move(removal));
}

netmark::Result<RowId> Table::Insert(const Row& row) {
  NETMARK_RETURN_NOT_OK(schema_.Validate(row));
  NETMARK_ASSIGN_OR_RETURN(RowId id, heap_->Insert(EncodeRow(row)));
  NETMARK_RETURN_NOT_OK(IndexInsert(row, id));
  return id;
}

netmark::Result<Row> Table::Get(RowId id, Epoch epoch) const {
  Row row;
  NETMARK_RETURN_NOT_OK(Read(id, epoch, [&](std::string_view bytes) {
    NETMARK_ASSIGN_OR_RETURN(row, DecodeRow(bytes));
    return netmark::Status::OK();
  }));
  return row;
}

netmark::Status Table::Update(RowId id, const Row& row) {
  NETMARK_RETURN_NOT_OK(schema_.Validate(row));
  NETMARK_ASSIGN_OR_RETURN(Row old_row, Get(id, kWriterEpoch));
  NETMARK_RETURN_NOT_OK(heap_->Update(id, EncodeRow(row)));
  // Only touch B-trees whose key actually changed — updates to unindexed
  // columns (e.g. the XML store's sibling-link patches) skip all index work.
  const bool mvcc = pager_->mvcc_enabled();
  std::unique_lock<std::shared_mutex> lock(index_mu_);
  for (auto& [name, index] : indexes_) {
    IndexKey old_key = ExtractKey(index, old_row);
    IndexKey new_key = ExtractKey(index, row);
    if (old_key == new_key) continue;
    if (mvcc) {
      // Snapshot readers may still resolve the row through its old key;
      // the removal applies after the commit epoch passes the GC watermark.
      DeferRemoval(name, std::move(old_key), id);
    } else {
      index.tree.Remove(old_key, id);
    }
    index.tree.Insert(std::move(new_key), id);
  }
  return netmark::Status::OK();
}

netmark::Status Table::Delete(RowId id) {
  NETMARK_ASSIGN_OR_RETURN(Row old_row, Get(id, kWriterEpoch));
  NETMARK_RETURN_NOT_OK(heap_->Delete(id));
  if (!pager_->mvcc_enabled()) return IndexRemove(old_row, id);
  std::unique_lock<std::shared_mutex> lock(index_mu_);
  for (auto& [name, index] : indexes_) {
    DeferRemoval(name, ExtractKey(index, old_row), id);
  }
  return netmark::Status::OK();
}

netmark::Status Table::Scan(
    const std::function<netmark::Status(RowId, const Row&)>& fn,
    Epoch epoch) const {
  return heap_->Scan(
      [&](RowId id, std::string_view bytes) -> netmark::Status {
        NETMARK_ASSIGN_OR_RETURN(Row row, DecodeRow(bytes));
        return fn(id, row);
      },
      epoch);
}

netmark::Status Table::CreateIndex(const std::string& name,
                                   const std::vector<std::string>& columns) {
  if (indexes_.count(name) != 0) {
    return netmark::Status::AlreadyExists("index " + name + " already exists on " +
                                          schema_.name());
  }
  Index index;
  for (const std::string& col : columns) {
    NETMARK_ASSIGN_OR_RETURN(size_t ci, schema_.ColumnIndex(col));
    index.column_indexes.push_back(ci);
  }
  std::unique_lock<std::shared_mutex> lock(index_mu_);
  auto [it, inserted] = indexes_.emplace(name, std::move(index));
  Index& ix = it->second;
  // Build from existing rows — the writer's view, so rows of an in-flight
  // transaction are indexed like committed ones.
  netmark::Status st = Scan(
      [&](RowId id, const Row& row) -> netmark::Status {
        ix.tree.Insert(ExtractKey(ix, row), id);
        return netmark::Status::OK();
      },
      kWriterEpoch);
  if (!st.ok()) {
    indexes_.erase(it);
    return st;
  }
  return netmark::Status::OK();
}

std::vector<RowId> HitIds(const std::vector<IndexHit>& hits) {
  std::vector<RowId> ids;
  ids.reserve(hits.size());
  for (const IndexHit& hit : hits) ids.push_back(hit.id);
  return ids;
}

netmark::Result<std::vector<IndexHit>> Table::Lookup(
    const std::string& index, Epoch epoch,
    const std::function<std::vector<RowId>(const BTree&)>& probe,
    const std::function<bool(const IndexKey&)>& matches) const {
  auto it = indexes_.find(index);
  if (it == indexes_.end()) {
    return netmark::Status::NotFound("no index " + index + " on " + schema_.name());
  }
  std::vector<RowId> candidates;
  {
    std::shared_lock<std::shared_mutex> lock(index_mu_);
    candidates = probe(it->second.tree);
  }
  std::vector<IndexHit> hits;
  hits.reserve(candidates.size());
  for (RowId id : candidates) {
    auto row_or = Get(id, epoch);
    if (!row_or.ok()) {
      // Row invisible at this epoch: deleted, or inserted after it. Stale
      // tree entries (deferred removals, writer-latest inserts) fall out
      // here. Real faults (DataLoss etc.) still propagate.
      if (row_or.status().IsNotFound()) continue;
      return row_or.status();
    }
    // Only MVCC trees can hold entries whose key the row has since left.
    if (pager_->mvcc_enabled() && !matches(ExtractKey(it->second, *row_or))) continue;
    hits.push_back(IndexHit{id, std::move(*row_or)});
  }
  return hits;
}

netmark::Result<std::vector<IndexHit>> Table::IndexLookup(const std::string& index,
                                                          const IndexKey& key,
                                                          Epoch epoch) const {
  return Lookup(
      index, epoch, [&](const BTree& tree) { return tree.Lookup(key); },
      [&](const IndexKey& k) { return CompareKeys(k, key) == 0; });
}

netmark::Result<std::vector<IndexHit>> Table::IndexRange(const std::string& index,
                                                         const IndexKey& lo,
                                                         const IndexKey& hi,
                                                         Epoch epoch) const {
  return Lookup(
      index, epoch, [&](const BTree& tree) { return tree.Range(lo, hi); },
      [&](const IndexKey& k) {
        return CompareKeys(lo, k) <= 0 && CompareKeys(k, hi) <= 0;
      });
}

netmark::Result<std::vector<IndexHit>> Table::IndexPrefix(const std::string& index,
                                                          const IndexKey& prefix,
                                                          Epoch epoch) const {
  return Lookup(
      index, epoch, [&](const BTree& tree) { return tree.PrefixLookup(prefix); },
      [&](const IndexKey& k) {
        if (k.size() < prefix.size()) return false;
        return std::equal(prefix.begin(), prefix.end(), k.begin());
      });
}

void Table::SealPendingRemovals(Epoch epoch) {
  std::unique_lock<std::shared_mutex> lock(index_mu_);
  for (PendingRemoval& removal : pending_removals_) {
    if (!removal.sealed) {
      removal.sealed = true;
      removal.sealed_epoch = epoch;
    }
  }
}

uint64_t Table::ApplyPendingRemovals(Epoch watermark) {
  std::unique_lock<std::shared_mutex> lock(index_mu_);
  uint64_t applied = 0;
  auto keep = pending_removals_.begin();
  for (auto it = pending_removals_.begin(); it != pending_removals_.end(); ++it) {
    if (it->sealed && it->sealed_epoch <= watermark) {
      auto ix = indexes_.find(it->index);
      if (ix != indexes_.end()) ix->second.tree.Remove(it->key, it->id);
      ++applied;
      continue;
    }
    if (keep != it) *keep = std::move(*it);
    ++keep;
  }
  pending_removals_.erase(keep, pending_removals_.end());
  return applied;
}

}  // namespace netmark::storage
