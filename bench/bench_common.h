#ifndef DESS_BENCH_BENCH_COMMON_H_
#define DESS_BENCH_BENCH_COMMON_H_

#include <string>

#include "src/core/system.h"

namespace dess {
namespace bench {

/// Extraction/meshing parameters shared by every experiment binary so that
/// all figures are produced from the same database build.
struct StandardConfig {
  uint64_t dataset_seed = 42;
  int mesh_resolution = 40;
  int voxel_resolution = 32;
};

/// Returns the 113-shape 3DESS instance (26 groups + 27 noise shapes),
/// committed and ready to query. The first call builds the dataset and
/// runs feature extraction on all shapes (tens of seconds), then saves
/// the committed snapshot to the `cache_path` directory; later calls (and
/// other bench binaries) reopen it. The instance is a process-lifetime
/// singleton.
const Dess3System& StandardSystem(
    const std::string& cache_path = "dess113_cache");

/// The published snapshot of StandardSystem(): the engine + hierarchies
/// every read-only experiment binary queries against.
const SystemSnapshot& StandardSnapshot(
    const std::string& cache_path = "dess113_cache");

/// Prints a horizontal rule + centered title, used by the figure benches.
void PrintHeader(const std::string& title);

}  // namespace bench
}  // namespace dess

#endif  // DESS_BENCH_BENCH_COMMON_H_
