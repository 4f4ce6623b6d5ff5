// Mlkv directory-level API tests: manifest persistence, table reopen with
// checkpoint recovery, configuration mismatch detection, export/import, and
// maintenance (CompactAll).
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "backend/kv_backend.h"
#include "io/temp_dir.h"
#include "mlkv/mlkv.h"

namespace mlkv {
namespace {

MlkvOptions SmallDb(const TempDir& dir) {
  MlkvOptions opts;
  opts.dir = dir.path() + "/db";
  opts.store.index_slots = 1024;
  opts.store.page_size = 4096;
  opts.store.mem_size = 16 * 4096;
  return opts;
}

TEST(MlkvManifestTest, RejectsBadModelIds) {
  TempDir dir;
  std::unique_ptr<Mlkv> db;
  ASSERT_TRUE(Mlkv::Open(SmallDb(dir), &db).ok());
  EmbeddingTable* t = nullptr;
  EXPECT_TRUE(db->OpenTable("", 8, 0, &t).IsInvalidArgument());
  EXPECT_TRUE(db->OpenTable("has space", 8, 0, &t).IsInvalidArgument());
  EXPECT_TRUE(db->OpenTable("slash/y", 8, 0, &t).IsInvalidArgument());
  EXPECT_TRUE(db->OpenTable("ok-id_1.x", 8, 0, &t).ok());
}

TEST(MlkvManifestTest, ManifestListsCreatedTables) {
  TempDir dir;
  std::unique_ptr<Mlkv> db;
  ASSERT_TRUE(Mlkv::Open(SmallDb(dir), &db).ok());
  EmbeddingTable* t = nullptr;
  ASSERT_TRUE(db->OpenTable("alpha", 8, 0, &t).ok());
  ASSERT_TRUE(db->OpenTable("beta", 16, 4, &t).ok());
  auto ids = db->ListTables();
  std::sort(ids.begin(), ids.end());
  ASSERT_EQ(ids.size(), 2u);
  EXPECT_EQ(ids[0], "alpha");
  EXPECT_EQ(ids[1], "beta");
}

TEST(MlkvManifestTest, ManifestSurvivesReopen) {
  TempDir dir;
  const MlkvOptions opts = SmallDb(dir);
  {
    std::unique_ptr<Mlkv> db;
    ASSERT_TRUE(Mlkv::Open(opts, &db).ok());
    EmbeddingTable* t = nullptr;
    OptimizerConfig cfg;
    cfg.kind = OptimizerKind::kAdam;
    cfg.lr = 0.02f;
    ASSERT_TRUE(db->OpenTable("emb", 32, 8, &t, cfg).ok());
  }
  std::unique_ptr<Mlkv> db;
  ASSERT_TRUE(Mlkv::Open(opts, &db).ok());
  const auto ids = db->ListTables();
  ASSERT_EQ(ids.size(), 1u);
  EXPECT_EQ(ids[0], "emb");
}

TEST(MlkvManifestTest, ReopenWithDifferentConfigFails) {
  TempDir dir;
  const MlkvOptions opts = SmallDb(dir);
  {
    std::unique_ptr<Mlkv> db;
    ASSERT_TRUE(Mlkv::Open(opts, &db).ok());
    EmbeddingTable* t = nullptr;
    ASSERT_TRUE(db->OpenTable("emb", 32, 8, &t).ok());
  }
  std::unique_ptr<Mlkv> db;
  ASSERT_TRUE(Mlkv::Open(opts, &db).ok());
  EmbeddingTable* t = nullptr;
  EXPECT_TRUE(db->OpenTable("emb", 16, 8, &t).IsInvalidArgument());
  EXPECT_TRUE(db->OpenTable("emb", 32, 4, &t).IsInvalidArgument());
  OptimizerConfig adam;
  adam.kind = OptimizerKind::kAdam;
  EXPECT_TRUE(db->OpenTable("emb", 32, 8, &t, adam).IsInvalidArgument());
  EXPECT_TRUE(db->OpenTable("emb", 32, 8, &t).ok());
}

TEST(MlkvManifestTest, CorruptManifestIsDetected) {
  TempDir dir;
  const MlkvOptions opts = SmallDb(dir);
  {
    std::unique_ptr<Mlkv> db;
    ASSERT_TRUE(Mlkv::Open(opts, &db).ok());
    EmbeddingTable* t = nullptr;
    ASSERT_TRUE(db->OpenTable("emb", 32, 8, &t).ok());
  }
  std::ofstream out(opts.dir + "/MANIFEST", std::ios::trunc);
  out << "GARBAGE\n";
  out.close();
  std::unique_ptr<Mlkv> db;
  EXPECT_TRUE(Mlkv::Open(opts, &db).IsCorruption());
}

TEST(MlkvReopenTest, DataRecoversFromCheckpoint) {
  TempDir dir;
  const MlkvOptions opts = SmallDb(dir);
  const uint32_t dim = 8;
  std::vector<float> v(dim);
  {
    std::unique_ptr<Mlkv> db;
    ASSERT_TRUE(Mlkv::Open(opts, &db).ok());
    EmbeddingTable* t = nullptr;
    ASSERT_TRUE(db->OpenTable("emb", dim, 4, &t).ok());
    for (Key k = 0; k < 100; ++k) {
      for (uint32_t d = 0; d < dim; ++d) v[d] = static_cast<float>(k + d);
      ASSERT_TRUE(t->Put({&k, 1}, v.data()).ok());
    }
    ASSERT_TRUE(db->CheckpointAll().ok());
  }
  std::unique_ptr<Mlkv> db;
  ASSERT_TRUE(Mlkv::Open(opts, &db).ok());
  EmbeddingTable* t = nullptr;
  ASSERT_TRUE(db->OpenTable("emb", dim, 4, &t).ok());
  for (Key k = 0; k < 100; ++k) {
    ASSERT_TRUE(t->Get({&k, 1}, v.data()).ok()) << "key " << k;
    for (uint32_t d = 0; d < dim; ++d) {
      EXPECT_FLOAT_EQ(v[d], static_cast<float>(k + d));
    }
  }
}

TEST(MlkvReopenTest, UncheckpointedTableReopensEmpty) {
  TempDir dir;
  const MlkvOptions opts = SmallDb(dir);
  const uint32_t dim = 8;
  std::vector<float> v(dim, 1.0f);
  {
    std::unique_ptr<Mlkv> db;
    ASSERT_TRUE(Mlkv::Open(opts, &db).ok());
    EmbeddingTable* t = nullptr;
    ASSERT_TRUE(db->OpenTable("emb", dim, 4, &t).ok());
    Key k = 7;
    ASSERT_TRUE(t->Put({&k, 1}, v.data()).ok());
    // No CheckpointAll: the durability unit is the checkpoint.
  }
  std::unique_ptr<Mlkv> db;
  ASSERT_TRUE(Mlkv::Open(opts, &db).ok());
  EmbeddingTable* t = nullptr;
  ASSERT_TRUE(db->OpenTable("emb", dim, 4, &t).ok());
  Key k = 7;
  EXPECT_TRUE(t->Get({&k, 1}, v.data()).IsNotFound());
}

TEST(MlkvReopenTest, OversizedRecordFailsAtOpen) {
  // 64 KiB over four shards is 16 KiB per shard, so 4 KiB pages: a dim-2048
  // record (8 KiB of floats) can never be allocated. Both hybrid-log
  // engines refuse the table up front instead of failing every Put.
  TempDir dir;
  MlkvOptions opts = SmallDb(dir);
  opts.store.page_size = 1ull << 20;
  opts.store.mem_size = 64ull << 10;
  std::unique_ptr<Mlkv> db;
  ASSERT_TRUE(Mlkv::Open(opts, &db).ok());
  EmbeddingTable* t = nullptr;
  const Status s = db->OpenTable("wide", 2048, 4, &t);
  ASSERT_TRUE(s.IsInvalidArgument()) << s.ToString();
  const std::string record = std::to_string(Record::SizeFor(2048 * 4));
  EXPECT_NE(s.message().find(record), std::string::npos) << s.message();
  EXPECT_NE(s.message().find("4096"), std::string::npos) << s.message();
  EXPECT_TRUE(db->ListTables().empty());
  // A record that fits the same page opens and round-trips.
  ASSERT_TRUE(db->OpenTable("narrow", 512, 4, &t).ok());
  std::vector<float> v(512, 1.5f), out(512);
  const Key k = 3;
  ASSERT_TRUE(t->Put({&k, 1}, v.data()).ok());
  ASSERT_TRUE(t->Get({&k, 1}, out.data()).ok());
  EXPECT_EQ(out, v);

  BackendConfig config;
  config.dir = dir.path() + "/faster";
  config.dim = 2048;
  config.buffer_bytes = opts.store.mem_size;
  config.index_slots = 1024;
  std::unique_ptr<KvBackend> faster;
  EXPECT_TRUE(
      MakeBackend(BackendKind::kFaster, config, &faster).IsInvalidArgument());
}

TEST(MlkvExportTest, ExportImportRoundTrip) {
  TempDir dir;
  std::unique_ptr<Mlkv> db;
  ASSERT_TRUE(Mlkv::Open(SmallDb(dir), &db).ok());
  EmbeddingTable* src = nullptr;
  OptimizerConfig cfg;
  cfg.kind = OptimizerKind::kAdagrad;
  ASSERT_TRUE(db->OpenTable("src", 8, 4, &src, cfg).ok());
  std::vector<float> v(8);
  const int n = 200;
  for (Key k = 0; k < n; ++k) {
    for (uint32_t d = 0; d < 8; ++d) {
      v[d] = static_cast<float>(k) * 0.5f + static_cast<float>(d);
    }
    ASSERT_TRUE(src->Put({&k, 1}, v.data()).ok());
  }
  const std::string path = dir.File("export.bin");
  ASSERT_TRUE(src->Export(path).ok());

  EmbeddingTable* dst = nullptr;
  ASSERT_TRUE(db->OpenTable("dst", 8, 4, &dst).ok());  // stateless table
  ASSERT_TRUE(dst->Import(path).ok());
  std::vector<float> got(8);
  for (Key k = 0; k < n; ++k) {
    ASSERT_TRUE(dst->Get({&k, 1}, got.data()).ok()) << "key " << k;
    for (uint32_t d = 0; d < 8; ++d) {
      EXPECT_FLOAT_EQ(got[d],
                      static_cast<float>(k) * 0.5f + static_cast<float>(d));
    }
  }
}

TEST(MlkvExportTest, ExportStripsOptimizerState) {
  TempDir dir;
  std::unique_ptr<Mlkv> db;
  ASSERT_TRUE(Mlkv::Open(SmallDb(dir), &db).ok());
  EmbeddingTable* t = nullptr;
  OptimizerConfig cfg;
  cfg.kind = OptimizerKind::kAdam;
  ASSERT_TRUE(db->OpenTable("t", 4, 4, &t, cfg).ok());
  Key k = 1;
  std::vector<float> v{1.0f, 2.0f, 3.0f, 4.0f};
  ASSERT_TRUE(t->Put({&k, 1}, v.data()).ok());
  const std::string path = dir.File("export.bin");
  ASSERT_TRUE(t->Export(path).ok());
  // File size: header (24) + 1 * (key 8 + 4 floats 16) = 48 bytes.
  EXPECT_EQ(std::filesystem::file_size(path), 48u);
}

TEST(MlkvExportTest, ImportRejectsDimMismatch) {
  TempDir dir;
  std::unique_ptr<Mlkv> db;
  ASSERT_TRUE(Mlkv::Open(SmallDb(dir), &db).ok());
  EmbeddingTable* a = nullptr;
  EmbeddingTable* b = nullptr;
  ASSERT_TRUE(db->OpenTable("a", 8, 4, &a).ok());
  ASSERT_TRUE(db->OpenTable("b", 16, 4, &b).ok());
  Key k = 1;
  std::vector<float> v(8, 1.0f);
  ASSERT_TRUE(a->Put({&k, 1}, v.data()).ok());
  const std::string path = dir.File("export.bin");
  ASSERT_TRUE(a->Export(path).ok());
  EXPECT_TRUE(b->Import(path).IsInvalidArgument());
}


TEST(MlkvExportTest, EmptyTableExportsHeaderOnly) {
  TempDir dir;
  std::unique_ptr<Mlkv> db;
  ASSERT_TRUE(Mlkv::Open(SmallDb(dir), &db).ok());
  EmbeddingTable* t = nullptr;
  ASSERT_TRUE(db->OpenTable("t", 8, 4, &t).ok());
  const std::string path = dir.File("empty.bin");
  ASSERT_TRUE(t->Export(path).ok());
  EXPECT_EQ(std::filesystem::file_size(path), 24u);  // header only
  EmbeddingTable* u = nullptr;
  ASSERT_TRUE(db->OpenTable("u", 8, 4, &u).ok());
  ASSERT_TRUE(u->Import(path).ok());
  EXPECT_EQ(u->num_embeddings(), 0u);
}

TEST(MlkvExportTest, ImportOverwritesExistingRows) {
  TempDir dir;
  std::unique_ptr<Mlkv> db;
  ASSERT_TRUE(Mlkv::Open(SmallDb(dir), &db).ok());
  EmbeddingTable* a = nullptr;
  EmbeddingTable* b = nullptr;
  ASSERT_TRUE(db->OpenTable("a", 8, 4, &a).ok());
  ASSERT_TRUE(db->OpenTable("b", 8, 4, &b).ok());
  std::vector<float> ones(8, 1.0f), twos(8, 2.0f);
  Key k = 5;
  ASSERT_TRUE(a->Put({&k, 1}, ones.data()).ok());
  ASSERT_TRUE(b->Put({&k, 1}, twos.data()).ok());
  const std::string path = dir.File("a.bin");
  ASSERT_TRUE(a->Export(path).ok());
  ASSERT_TRUE(b->Import(path).ok());
  std::vector<float> got(8);
  ASSERT_TRUE(b->Get({&k, 1}, got.data()).ok());
  EXPECT_FLOAT_EQ(got[0], 1.0f);
}

TEST(MlkvExportTest, ImportRejectsGarbageFile) {
  TempDir dir;
  std::unique_ptr<Mlkv> db;
  ASSERT_TRUE(Mlkv::Open(SmallDb(dir), &db).ok());
  EmbeddingTable* t = nullptr;
  ASSERT_TRUE(db->OpenTable("t", 8, 4, &t).ok());
  const std::string path = dir.File("garbage.bin");
  std::ofstream out(path, std::ios::binary);
  out << "this is not an export file at all, but long enough to read";
  out.close();
  EXPECT_TRUE(t->Import(path).IsCorruption());
}

TEST(MlkvMaintenanceTest, CompactAllReclaimsGarbage) {
  TempDir dir;
  std::unique_ptr<Mlkv> db;
  ASSERT_TRUE(Mlkv::Open(SmallDb(dir), &db).ok());
  EmbeddingTable* t = nullptr;
  ASSERT_TRUE(db->OpenTable("t", 8, kAspBound, &t).ok());
  std::vector<float> v(8, 1.0f);
  // More keys than the in-memory buffer holds: round-robin updates keep
  // finding their target cold, so every round appends RCU garbage.
  const Key kKeys = 1500;
  const int kRounds = 4;
  for (int round = 0; round < kRounds; ++round) {
    for (Key k = 0; k < kKeys; ++k) {
      v[0] = static_cast<float>(round);
      ASSERT_TRUE(t->Put({&k, 1}, v.data()).ok());
    }
  }
  const uint64_t begin_before = t->store()->log_begin_total();
  ASSERT_TRUE(db->CompactAll().ok());
  EXPECT_GT(t->store()->log_begin_total(), begin_before);
  std::vector<float> got(8);
  for (Key k = 0; k < kKeys; ++k) {
    ASSERT_TRUE(t->Get({&k, 1}, got.data()).ok());
    EXPECT_FLOAT_EQ(got[0], static_cast<float>(kRounds - 1));
  }
}

TEST(MlkvMaintenanceTest, CompactStorageThresholded) {
  TempDir dir;
  std::unique_ptr<Mlkv> db;
  ASSERT_TRUE(Mlkv::Open(SmallDb(dir), &db).ok());
  EmbeddingTable* t = nullptr;
  ASSERT_TRUE(db->OpenTable("t", 8, kAspBound, &t).ok());
  std::vector<float> v(8, 1.0f);
  for (Key k = 0; k < 1500; ++k) {
    ASSERT_TRUE(t->Put({&k, 1}, v.data()).ok());
  }
  ASSERT_GT(t->store()->log_read_only_total(),
            t->store()->num_shards() * HybridLog::kLogBegin);
  const uint64_t begin_before = t->store()->log_begin_total();
  // Huge threshold: nothing happens.
  ASSERT_TRUE(t->CompactStorage(1ull << 30).ok());
  EXPECT_EQ(t->store()->log_begin_total(), begin_before);
  // Forced pass.
  ASSERT_TRUE(t->CompactStorage().ok());
  EXPECT_GT(t->store()->log_begin_total(), begin_before);
}

}  // namespace
}  // namespace mlkv
