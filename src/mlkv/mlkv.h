// MLKV public API (paper §III-A).
//
//   auto db = Mlkv::Open(options);
//   EmbeddingTable* table;
//   db->OpenTable("user_emb", /*dim=*/16, /*staleness_bound=*/4, &table);
//   table->GetOrInit(keys, values);          // forward pass
//   ... train ...
//   table->Put(keys, updated_values);        // backward pass
//   table->Lookahead(next_batch_keys);       // hide future disk accesses
//
// Staleness bound 0 trains in BSP mode, kAspBound (UINT32_MAX - 1, the
// largest admissible value of the 32-bit staleness counter — effectively
// unbounded) in ASP mode, anything between in SSP mode (paper §III-C1).
// Each table owns its own log-structured store; Lookahead submits its
// fetches on the calling thread and completes them on a shared background
// thread pool.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "io/async_io.h"
#include "kv/faster_store.h"
#include "mlkv/embedding_cache.h"
#include "mlkv/embedding_table.h"
#include "mlkv/mlkv_options.h"

namespace mlkv {

// Consistency presets (paper §III-C1).
inline constexpr uint32_t kBspBound = 0;
inline constexpr uint32_t kAspBound = UINT32_MAX - 1;  // effectively unbounded

// kAspBound must stay one below the staleness counter's saturation value:
// the counter is the low 32 bits of the record control word (a uint32_t
// that saturates at UINT32_MAX), and FasterStore::Read() reserves
// UINT32_MAX as its "use the store-level bound" sentinel, so UINT32_MAX - 1
// is the largest bound that admits every reachable counter value.
static_assert(
    std::is_same_v<decltype(FasterOptions::staleness_bound), uint32_t>,
    "staleness bounds are 32-bit; update kAspBound if the counter widens");
static_assert(
    kAspBound ==
        std::numeric_limits<decltype(FasterOptions::staleness_bound)>::max() -
            1,
    "kAspBound must track the staleness-counter type in faster_store.h");
static_assert(kAspBound == ControlWord::kStalenessMask - 1,
              "kAspBound must track the control-word staleness field");

class Mlkv {
 public:
  // Opens (creates) an MLKV instance rooted at options.dir.
  static Status Open(const MlkvOptions& options, std::unique_ptr<Mlkv>* out);

  ~Mlkv();

  // Creates or opens the embedding model `model_id` with embedding dimension
  // `dim`, the given staleness bound, and (optionally) a fused sparse
  // optimizer whose state lives inside each record. The returned table is
  // owned by this Mlkv instance and stays valid until destruction.
  //
  // `model_id` must be non-empty and use only [A-Za-z0-9_.-] (it names
  // files). Opening an id recorded in the directory's MANIFEST re-attaches
  // the existing table: the configuration must match, and if a checkpoint
  // exists the table recovers from it.
  Status OpenTable(const std::string& model_id, uint32_t dim,
                   uint32_t staleness_bound, EmbeddingTable** out,
                   const OptimizerConfig& optimizer = {});

  // Re-attaches a table recorded in the manifest using its stored
  // configuration (tools and inspection paths that don't know dim/bound up
  // front). NotFound if the id was never created in this directory.
  Status OpenExistingTable(const std::string& model_id, EmbeddingTable** out);

  // Checkpoints every open table under dir/<model_id>.ckpt.*. The paper
  // pairs local-NVMe logs with periodic checkpoints for durability (§II-B,
  // heterogeneous storage). A later Mlkv::Open on the same dir recovers
  // every table from its latest checkpoint.
  Status CheckpointAll();

  // Garbage-collects every open table's log up to its read-only boundary.
  Status CompactAll();

  // Model ids recorded in this directory's manifest (open or not).
  std::vector<std::string> ListTables() const;

  // The store options OpenTable gives a fresh table `model_id`: its log
  // at dir/<model_id>.log, this DB's budgets, shard count and durability
  // knobs, its lookahead pool and I/O engine, and staleness tracking at
  // `staleness_bound`. The FASTER baseline (backend/kv_backend.h) builds
  // its store from these with tracking turned off.
  ShardedStoreOptions TableStoreOptions(const std::string& model_id,
                                        uint32_t staleness_bound);

  ThreadPool* lookahead_pool() { return &lookahead_pool_; }
  // The per-DB engine every table's batched reads and flushes use.
  AsyncIoEngine* io_engine() { return &io_engine_; }
  const MlkvOptions& options() const { return options_; }

 private:
  // One manifest row: the durable configuration of a table. `shard_bits`
  // fixes the on-disk layout, so re-attaching uses the recorded value, not
  // the current MlkvOptions default (rows written before sharding carry no
  // field and parse as 0 — the single-log layout they describe).
  struct TableSpec {
    uint32_t dim = 0;
    uint32_t staleness_bound = 0;
    uint32_t shard_bits = 0;
    OptimizerConfig optimizer;
  };

  explicit Mlkv(const MlkvOptions& options)
      : options_(options),
        io_engine_(options.engine),
        lookahead_pool_(options.lookahead_threads) {}

  std::string ManifestPath() const { return options_.dir + "/MANIFEST"; }
  Status LoadManifest();
  Status WriteManifest() const;

  MlkvOptions options_;
  // Shared across every table/shard of this DB; declared before the pool
  // and the tables, so it is destroyed after both.
  AsyncIoEngine io_engine_;
  ThreadPool lookahead_pool_;
  std::unordered_map<std::string, std::unique_ptr<EmbeddingTable>> tables_;
  // All tables ever created in this directory, including not-yet-reopened
  // ones from a previous process.
  std::unordered_map<std::string, TableSpec> manifest_;
};

}  // namespace mlkv
