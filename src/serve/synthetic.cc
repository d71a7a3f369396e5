#include "src/serve/synthetic.h"

#include <utility>
#include <vector>

#include "src/modelgen/signature_corpus.h"

namespace dess {

Result<std::unique_ptr<Dess3System>> MakeSyntheticCorpusSystem(
    int num_groups, int group_size, int num_noise, uint64_t seed,
    const SystemOptions& options) {
  // Record synthesis lives in modelgen's large-corpus mode; this wrapper
  // only adds the ingest + commit. The generator draws the exact stream
  // this function used to draw inline, so existing fixtures (and their
  // pinned query answers) reproduce bit-identically.
  SignatureCorpusOptions corpus;
  corpus.num_groups = num_groups;
  corpus.group_size = group_size;
  corpus.num_noise = num_noise;
  corpus.seed = seed;
  Result<std::vector<ShapeRecord>> records = MakeSignatureCorpus(corpus);
  if (!records.ok()) {
    return Status::InvalidArgument("synthetic corpus: no shapes requested");
  }
  auto system = std::make_unique<Dess3System>(options);
  for (ShapeRecord& record : records.value()) {
    DESS_RETURN_NOT_OK(system->Ingest(std::move(record), {}).status());
  }
  DESS_ASSIGN_OR_RETURN([[maybe_unused]] const CommitReceipt receipt,
                        system->Commit());
  return system;
}

}  // namespace dess
