#include "mlkv/mlkv.h"

#include <cctype>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "kv/sharded_store.h"

namespace mlkv {

namespace {

bool ValidModelId(const std::string& id) {
  if (id.empty() || id.size() > 128) return false;
  for (const char c : id) {
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_' &&
        c != '.' && c != '-') {
      return false;
    }
  }
  return true;
}

Status ParseOptimizerKind(const std::string& name, OptimizerKind* out) {
  if (name == "sgd") {
    *out = OptimizerKind::kSgd;
  } else if (name == "momentum") {
    *out = OptimizerKind::kMomentum;
  } else if (name == "adagrad") {
    *out = OptimizerKind::kAdagrad;
  } else if (name == "adam") {
    *out = OptimizerKind::kAdam;
  } else {
    return Status::Corruption("unknown optimizer kind: " + name);
  }
  return Status::OK();
}

bool SameConfig(const OptimizerConfig& a, const OptimizerConfig& b) {
  return a.kind == b.kind && a.lr == b.lr && a.momentum == b.momentum &&
         a.beta1 == b.beta1 && a.beta2 == b.beta2 && a.eps == b.eps &&
         a.weight_decay == b.weight_decay;
}

}  // namespace

Status Mlkv::Open(const MlkvOptions& options, std::unique_ptr<Mlkv>* out) {
  static_assert(ShardedStore::kMaxShardBits == 8,
                "update the shard_bits doc in mlkv.h if the bound moves");
  if (options.shard_bits > ShardedStore::kMaxShardBits) {
    return Status::InvalidArgument("shard_bits must be <= 8");
  }
  // OpenTable sets these per table (TableStoreOptions).
  const FasterOptions unset;
  if (!options.store.path.empty() || options.store.io != nullptr ||
      options.store.track_staleness != unset.track_staleness ||
      options.store.staleness_bound != unset.staleness_bound) {
    return Status::InvalidArgument(
        "MlkvOptions::store must leave path, io, track_staleness and "
        "staleness_bound unset: OpenTable sets them per table");
  }
  std::error_code ec;
  std::filesystem::create_directories(options.dir, ec);
  if (ec) {
    return Status::IOError("create_directories " + options.dir + ": " +
                           ec.message());
  }
  std::unique_ptr<Mlkv> db(new Mlkv(options));
  MLKV_RETURN_NOT_OK(db->LoadManifest());
  *out = std::move(db);
  return Status::OK();
}

Mlkv::~Mlkv() {
  // Stop background prefetching before tables (and their stores) go away.
  lookahead_pool_.Shutdown();
}

Status Mlkv::LoadManifest() {
  std::ifstream in(ManifestPath());
  if (!in.is_open()) return Status::OK();  // fresh directory
  std::string line;
  if (!std::getline(in, line) || line != "MLKV_MANIFEST v1") {
    return Status::Corruption("bad manifest header");
  }
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::istringstream ls(line);
    std::string tag, id, kind_name;
    TableSpec spec;
    ls >> tag >> id >> spec.dim >> spec.staleness_bound >> kind_name >>
        spec.optimizer.lr >> spec.optimizer.momentum >>
        spec.optimizer.beta1 >> spec.optimizer.beta2 >> spec.optimizer.eps >>
        spec.optimizer.weight_decay;
    if (tag != "table" || ls.fail() || !ValidModelId(id)) {
      return Status::Corruption("bad manifest row: " + line);
    }
    // Optional trailing field added with sharding; rows written before it
    // describe the single-log layout (shard_bits 0).
    if (!(ls >> spec.shard_bits)) spec.shard_bits = 0;
    if (spec.shard_bits > ShardedStore::kMaxShardBits) {
      return Status::Corruption("bad manifest shard_bits: " + line);
    }
    MLKV_RETURN_NOT_OK(ParseOptimizerKind(kind_name, &spec.optimizer.kind));
    manifest_[id] = spec;
  }
  return Status::OK();
}

Status Mlkv::WriteManifest() const {
  // Write-then-rename so a crash mid-write never corrupts the manifest.
  const std::string tmp = ManifestPath() + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc);
    if (!out.is_open()) return Status::IOError("open " + tmp);
    out << "MLKV_MANIFEST v1\n";
    for (const auto& [id, spec] : manifest_) {
      out << "table " << id << ' ' << spec.dim << ' ' << spec.staleness_bound
          << ' ' << OptimizerKindName(spec.optimizer.kind) << ' '
          << spec.optimizer.lr << ' ' << spec.optimizer.momentum << ' '
          << spec.optimizer.beta1 << ' ' << spec.optimizer.beta2 << ' '
          << spec.optimizer.eps << ' ' << spec.optimizer.weight_decay << ' '
          << spec.shard_bits << '\n';
    }
    out.flush();
    if (!out.good()) return Status::IOError("write " + tmp);
  }
  std::error_code ec;
  std::filesystem::rename(tmp, ManifestPath(), ec);
  if (ec) return Status::IOError("rename manifest: " + ec.message());
  return Status::OK();
}

ShardedStoreOptions Mlkv::TableStoreOptions(const std::string& model_id,
                                            uint32_t staleness_bound) {
  ShardedStoreOptions so;
  so.store = options_.store;
  so.store.path = options_.dir + "/" + model_id + ".log";
  so.store.track_staleness = true;
  so.store.staleness_bound = staleness_bound;
  so.store.io = &io_engine_;
  so.shard_bits = options_.shard_bits;
  so.pool = &lookahead_pool_;
  return so;
}

Status Mlkv::OpenTable(const std::string& model_id, uint32_t dim,
                       uint32_t staleness_bound, EmbeddingTable** out,
                       const OptimizerConfig& optimizer) {
  if (dim == 0) return Status::InvalidArgument("dim must be positive");
  if (!ValidModelId(model_id)) {
    return Status::InvalidArgument("model_id must be non-empty [A-Za-z0-9_.-]");
  }
  auto it = tables_.find(model_id);
  if (it != tables_.end()) {
    if (it->second->dim() != dim) {
      return Status::InvalidArgument("table exists with different dim");
    }
    *out = it->second.get();
    return Status::OK();
  }

  const auto spec_it = manifest_.find(model_id);
  if (spec_it != manifest_.end()) {
    const TableSpec& spec = spec_it->second;
    if (spec.dim != dim || spec.staleness_bound != staleness_bound ||
        !SameConfig(spec.optimizer, optimizer)) {
      return Status::InvalidArgument(
          "table " + model_id +
          " exists in the manifest with a different configuration");
    }
  }

  ShardedStoreOptions so = TableStoreOptions(model_id, staleness_bound);
  // The manifest's shard_bits fixes an existing table's on-disk layout;
  // only fresh tables take the current option.
  if (spec_it != manifest_.end()) so.shard_bits = spec_it->second.shard_bits;
  auto store = std::make_unique<ShardedStore>();
  const std::string ckpt_prefix = options_.dir + "/" + model_id + ".ckpt";
  if (spec_it != manifest_.end() &&
      ShardedStore::CheckpointExists(so, ckpt_prefix)) {
    // Re-attach: recover the persisted state. Under kSync durability
    // anything written after the last checkpoint is gone — the paper's
    // durability unit is the checkpoint, not the individual Put. Under
    // kGroup, recovery additionally replays the group-committed records
    // past the checkpoint tail.
    MLKV_RETURN_NOT_OK(store->Recover(so, ckpt_prefix));
  } else {
    MLKV_RETURN_NOT_OK(store->Open(so));
  }
  std::unique_ptr<EmbeddingTable> table;
  MLKV_RETURN_NOT_OK(EmbeddingTable::Make(model_id, dim, staleness_bound,
                                          std::move(store), &lookahead_pool_,
                                          optimizer, &table));
  *out = table.get();
  tables_.emplace(model_id, std::move(table));
  if (spec_it == manifest_.end()) {
    manifest_[model_id] =
        TableSpec{dim, staleness_bound, so.shard_bits, optimizer};
    MLKV_RETURN_NOT_OK(WriteManifest());
  }
  return Status::OK();
}

Status Mlkv::OpenExistingTable(const std::string& model_id,
                               EmbeddingTable** out) {
  const auto it = manifest_.find(model_id);
  if (it == manifest_.end()) {
    return Status::NotFound("table not in manifest: " + model_id);
  }
  const TableSpec& spec = it->second;
  return OpenTable(model_id, spec.dim, spec.staleness_bound, out,
                   spec.optimizer);
}

Status Mlkv::CheckpointAll() {
  for (auto& [id, table] : tables_) {
    table->WaitLookahead();
    MLKV_RETURN_NOT_OK(table->store()->Checkpoint(options_.dir + "/" + id +
                                                  ".ckpt"));
  }
  return Status::OK();
}

Status Mlkv::CompactAll() {
  for (auto& [id, table] : tables_) {
    table->WaitLookahead();
    MLKV_RETURN_NOT_OK(table->store()->CompactAll());
  }
  return Status::OK();
}

std::vector<std::string> Mlkv::ListTables() const {
  std::vector<std::string> ids;
  ids.reserve(manifest_.size());
  for (const auto& [id, spec] : manifest_) ids.push_back(id);
  return ids;
}

}  // namespace mlkv
