// Test-side opener for a hybrid-log store of an exact geometry. Open()
// shrinks page_size until FasterStore::kMinResidentFrames pages fit, so a
// buffer of a few large frames (16 KiB x 6, say) is reachable only the way
// a deployment reaches it: a store checkpointed with that page size and
// recovered into a smaller buffer, since Recover keeps the checkpoint's
// page. OpenWithGeometry takes that route when Open alone would change the
// page, and fails the test unless the store ends up with exactly
// o.page_size pages over o.mem_size.
#pragma once

#include <gtest/gtest.h>

#include <string>

#include "kv/faster_store.h"

namespace mlkv {

inline void OpenWithGeometry(const FasterOptions& o, FasterStore* store) {
  if (o.page_size <= 4096 ||
      o.mem_size / o.page_size >= FasterStore::kMinResidentFrames) {
    ASSERT_TRUE(store->Open(o).ok());
  } else {
    const std::string prefix = o.path + ".geometry";
    {
      FasterOptions seed = o;
      seed.mem_size = o.page_size * FasterStore::kMinResidentFrames;
      FasterStore empty;
      ASSERT_TRUE(empty.Open(seed).ok());
      ASSERT_TRUE(empty.Checkpoint(prefix).ok());
    }
    ASSERT_TRUE(store->Recover(o, prefix).ok());
  }
  ASSERT_EQ(store->log().options().page_size, o.page_size);
  ASSERT_EQ(store->log().options().mem_size, o.mem_size);
}

}  // namespace mlkv
