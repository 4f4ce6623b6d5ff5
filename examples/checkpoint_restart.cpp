// Checkpoint/restart: training that survives a crash (paper §II-B,
// heterogeneous storage — fast local logs + periodic checkpoints).
//
//   build/examples/checkpoint_restart
//
// Phase 1 trains an embedding table with a fused Adagrad optimizer and
// checkpoints every few epochs. A "crash" is simulated by dropping the
// Mlkv instance mid-run (losing everything after the last checkpoint).
// Phase 2 reopens the same directory: the manifest re-attaches the table,
// the store recovers from the checkpoint — including optimizer state, so
// the effective learning rate continues to decay instead of resetting —
// and training resumes to convergence.
#include <cmath>
#include <cstdio>
#include <memory>
#include <vector>

#include "io/temp_dir.h"
#include "mlkv/mlkv.h"

using namespace mlkv;

namespace {

constexpr uint32_t kDim = 8;
constexpr Key kNumRows = 256;

// Per-row regression target the training loop should recover.
float TargetFor(Key row, uint32_t d) {
  return 0.01f * static_cast<float>(row % 17) -
         0.02f * static_cast<float>(d);
}

// One pass of gradient steps over all rows; returns max |w - target|.
Status TrainEpoch(EmbeddingTable* table, double* max_err) {
  std::vector<float> w(kDim), grad(kDim);
  *max_err = 0.0;
  for (Key row = 0; row < kNumRows; ++row) {
    MLKV_RETURN_NOT_OK(table->GetOrInit({&row, 1}, w.data()));
    for (uint32_t d = 0; d < kDim; ++d) {
      const float t = TargetFor(row, d);
      grad[d] = 2.0f * (w[d] - t);
      *max_err = std::max(*max_err,
                          static_cast<double>(std::fabs(w[d] - t)));
    }
    MLKV_RETURN_NOT_OK(table->ApplyGradients({&row, 1}, grad.data()));
  }
  return Status::OK();
}

}  // namespace

int main() {
  TempDir workdir("mlkv-ckpt");
  MlkvOptions options;
  options.dir = workdir.File("db");
  options.store.mem_size = 16ull << 20;

  OptimizerConfig adagrad;
  adagrad.kind = OptimizerKind::kAdagrad;
  adagrad.lr = 0.3f;

  // ---- Phase 1: train, checkpoint periodically, then "crash". ----
  int last_checkpoint_epoch = -1;
  {
    std::unique_ptr<Mlkv> db;
    Status s = Mlkv::Open(options, &db);
    if (!s.ok()) {
      std::fprintf(stderr, "open: %s\n", s.ToString().c_str());
      return 1;
    }
    EmbeddingTable* table = nullptr;
    s = db->OpenTable("rows", kDim, /*staleness_bound=*/8, &table, adagrad);
    if (!s.ok()) {
      std::fprintf(stderr, "table: %s\n", s.ToString().c_str());
      return 1;
    }
    for (int epoch = 0; epoch < 10; ++epoch) {
      double err = 0;
      if (!TrainEpoch(table, &err).ok()) return 1;
      std::printf("phase1 epoch %2d  max_err %.4f\n", epoch, err);
      if (epoch % 4 == 3) {
        if (!db->CheckpointAll().ok()) return 1;
        last_checkpoint_epoch = epoch;
        std::printf("         checkpointed at epoch %d\n", epoch);
      }
    }
    std::printf("phase1: simulated crash (work after epoch %d is lost)\n",
                last_checkpoint_epoch);
    // db drops here without a final checkpoint.
  }

  // ---- Phase 2: reopen and resume. ----
  std::unique_ptr<Mlkv> db;
  Status s = Mlkv::Open(options, &db);
  if (!s.ok()) {
    std::fprintf(stderr, "reopen: %s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("phase2: manifest lists %zu table(s)\n",
              db->ListTables().size());
  EmbeddingTable* table = nullptr;
  // Configuration must match the manifest row; the store recovers from the
  // epoch-7 checkpoint automatically.
  s = db->OpenTable("rows", kDim, 8, &table, adagrad);
  if (!s.ok()) {
    std::fprintf(stderr, "reattach: %s\n", s.ToString().c_str());
    return 1;
  }
  double resumed_err = 0;
  for (int epoch = 0; epoch < 10; ++epoch) {
    if (!TrainEpoch(table, &resumed_err).ok()) return 1;
    if (epoch == 0) {
      std::printf("phase2 epoch  0  max_err %.4f  <- resumed from the "
                  "checkpoint, not from scratch\n",
                  resumed_err);
    } else {
      std::printf("phase2 epoch %2d  max_err %.4f\n", epoch, resumed_err);
    }
  }
  if (!db->CheckpointAll().ok()) return 1;

  // Export the converged table for serving.
  const std::string export_path = workdir.File("rows.export");
  if (!table->Export(export_path).ok()) return 1;
  std::printf("exported %llu embeddings to %s\n",
              static_cast<unsigned long long>(table->num_embeddings()),
              export_path.c_str());
  std::printf("done: final max_err %.4f (converged=%s)\n", resumed_err,
              resumed_err < 0.05 ? "yes" : "no");
  return resumed_err < 0.05 ? 0 : 1;
}
