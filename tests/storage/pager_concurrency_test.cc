// Pager read path under concurrency: reader threads call FetchAt at pinned
// and latest epochs (cache misses on a reopened file first, then the
// shared-lock hit path) while the writer allocates, copies-on-write, marks
// dirty and publishes, and version GC and flushes run alongside. A pinned
// epoch must keep seeing exactly the bytes committed at or before it. Part
// of the TSan job's selection.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/temp_dir.h"
#include "storage/pager.h"

namespace netmark::storage {
namespace {

constexpr PageId kInitialPages = 6;
constexpr Epoch kLastEpoch = 300;
constexpr Epoch kAllocEvery = 25;  // a new page is born every kAllocEvery commits
constexpr int kReaders = 3;

// Slot 0 of a page written at commit `epoch`: the epoch, then a fill byte
// derived from it (a torn or mixed read cannot reproduce both).
std::string Payload(Epoch epoch) {
  std::string p(64, static_cast<char>('a' + epoch % 26));
  std::memcpy(p.data(), &epoch, sizeof(epoch));
  return p;
}

// Initial pages rewritten at commit e >= 2.
bool WrittenAt(PageId id, Epoch e) {
  return id == e % kInitialPages || id == (e + 3) % kInitialPages;
}

// What FetchAt(id, epoch) must show: the payload of the newest commit <=
// epoch that wrote the page, or "NotFound" when the page was born later.
std::string Expected(PageId id, Epoch epoch) {
  if (id >= kInitialPages) {
    Epoch birth = kAllocEvery * (id - kInitialPages + 1);
    return birth > epoch ? "NotFound" : Payload(birth);
  }
  for (Epoch e = epoch; e >= 2; --e) {
    if (WrittenAt(id, e)) return Payload(e);
  }
  return Payload(1);
}

std::string Observe(const netmark::Result<PageRef>& fetched) {
  if (!fetched.ok()) {
    return fetched.status().IsNotFound() ? "NotFound" : fetched.status().ToString();
  }
  return std::string(fetched->page().Get(0));
}

// Minimal pin table with the store's race guard: a pin taken after the GC's
// scan is at or above the scan's cap, which ReclaimVersions keeps.
class Pins {
 public:
  Epoch Pin() {
    std::lock_guard<std::mutex> lock(mu_);
    Epoch e = epoch_.load();
    pinned_.insert(e);
    return e;
  }
  void Unpin(Epoch e) {
    std::lock_guard<std::mutex> lock(mu_);
    pinned_.erase(pinned_.find(e));
  }
  std::vector<Epoch> Collect(Epoch cap) {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<Epoch> pins(pinned_.begin(), pinned_.end());
    pins.push_back(cap);
    std::sort(pins.begin(), pins.end());
    return pins;
  }
  Epoch current() const { return epoch_.load(); }
  void Advance(Epoch e) { epoch_.store(e); }

 private:
  std::mutex mu_;
  std::multiset<Epoch> pinned_;
  std::atomic<Epoch> epoch_{0};
};

TEST(PagerConcurrency, PinnedReadsStayIdenticalUnderPublishGcAndFlush) {
  auto dir = TempDir::Make("pagerconc");
  ASSERT_TRUE(dir.ok());
  const std::string path = (dir->path() / "t.heap").string();
  PagerOptions options;
  options.mvcc = true;
  {
    // Write the initial pages to disk, so the racing phase starts on an
    // empty cache: the first fetches of each page are misses.
    auto setup = Pager::Open(path, options);
    ASSERT_TRUE(setup.ok());
    for (PageId i = 0; i < kInitialPages; ++i) {
      ASSERT_TRUE((*setup)->Allocate().ok());
      auto page = (*setup)->Fetch(i);
      ASSERT_TRUE(page.ok());
      page->Insert(Payload(1));
      (*setup)->MarkDirty(i);
    }
    (*setup)->Publish(1);
    ASSERT_TRUE((*setup)->Flush().ok());
  }
  auto pager_or = Pager::Open(path, options);
  ASSERT_TRUE(pager_or.ok());
  Pager& pager = **pager_or;
  Pins pins;
  pins.Advance(1);  // the on-disk images serve every epoch until rewritten

  std::atomic<bool> done{false};
  std::atomic<uint64_t> failures{0};
  std::atomic<uint64_t> pinned_reads{0};
  auto fail = [&](const std::string& what) {
    if (failures.fetch_add(1) < 5) ADD_FAILURE() << what;
  };

  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      do {
        // Pinned: every page, three rounds, identical and exactly as committed.
        Epoch pin = pins.Pin();
        std::map<PageId, std::string> first;
        for (int round = 0; round < 3; ++round) {
          for (PageId id = 0; id < pager.page_count(); ++id) {
            std::string seen = Observe(pager.FetchAt(id, pin));
            auto [it, fresh] = first.emplace(id, seen);
            if (!fresh && it->second != seen) {
              fail("page " + std::to_string(id) + " changed at pinned epoch " +
                   std::to_string(pin));
            }
            if (seen != Expected(id, pin)) {
              fail("page " + std::to_string(id) + " at epoch " + std::to_string(pin) +
                   " is not the committed image");
            }
            pinned_reads.fetch_add(1, std::memory_order_relaxed);
          }
        }
        pins.Unpin(pin);

        // Latest: some committed image between the epochs around the read.
        for (PageId id = 0; id < kInitialPages; ++id) {
          Epoch before = pins.current();
          std::string seen = Observe(pager.FetchAt(id, kLatestEpoch));
          // Publish precedes Advance, so the read may be one epoch ahead.
          Epoch after = pins.current() + 1;
          bool matched = false;
          for (Epoch e = before; e <= after && !matched; ++e) {
            matched = seen == Expected(id, e);
          }
          if (!matched) fail("latest read of page " + std::to_string(id) + " is torn");
        }
      } while (!done.load());
    });
  }

  std::thread writer([&] {
    for (Epoch e = 2; e <= kLastEpoch; ++e) {
      for (PageId id = 0; id < kInitialPages; ++id) {
        if (!WrittenAt(id, e)) continue;
        auto page = pager.Fetch(id);
        if (!page.ok()) return fail(page.status().ToString());
        page->UpdateInPlace(0, Payload(e));
        pager.MarkDirty(id);
      }
      if (e % kAllocEvery == 0) {
        auto id = pager.Allocate();
        if (!id.ok()) return fail(id.status().ToString());
        auto page = pager.Fetch(*id);
        if (!page.ok()) return fail(page.status().ToString());
        page->Insert(Payload(e));
        pager.MarkDirty(*id);
      }
      pager.Publish(e);
      pins.Advance(e);
      if (e % 5 == 0) {
        Epoch cap = pins.current();
        pager.ReclaimVersions(pins.Collect(cap), cap);
      }
      if (e % 20 == 0) {
        netmark::Status st = pager.Flush();
        if (!st.ok()) return fail(st.ToString());
        (void)pager.TakeDirtySinceMark();
      }
      if (e % 10 == 0) std::this_thread::yield();
    }
  });

  writer.join();
  done.store(true);
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(failures.load(), 0u);
  EXPECT_GT(pinned_reads.load(), 0u);
  EXPECT_GT(pager.versions_reclaimed(), 0u);
  // After the writer stops, every page serves its final image.
  for (PageId id = 0; id < pager.page_count(); ++id) {
    EXPECT_EQ(Observe(pager.FetchAt(id, kLatestEpoch)), Expected(id, kLastEpoch));
  }
}

}  // namespace
}  // namespace netmark::storage
