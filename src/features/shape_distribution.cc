#include "src/features/shape_distribution.h"

#include <algorithm>
#include <cmath>

#include "src/common/rng.h"
#include "src/features/extractors.h"
#include "src/geom/aabb.h"
#include "src/index/index_backend.h"

namespace dess {
namespace {

/// Uniform point on triangle (a, b, c) via the square-root warp.
Vec3 SamplePointOnTriangle(const Vec3& a, const Vec3& b, const Vec3& c,
                           Rng* rng) {
  const double r1 = std::sqrt(rng->NextDouble());
  const double r2 = rng->NextDouble();
  return a * (1.0 - r1) + b * (r1 * (1.0 - r2)) + c * (r1 * r2);
}

/// Index of the first cumulative area >= u (area-weighted triangle pick).
size_t PickTriangle(const std::vector<double>& cumulative, double u) {
  const auto it =
      std::lower_bound(cumulative.begin(), cumulative.end(), u);
  if (it == cumulative.end()) return cumulative.size() - 1;
  return static_cast<size_t>(it - cumulative.begin());
}

}  // namespace

FeatureVector D2Feature(const TriMesh& mesh, const D2Options& options) {
  FeatureVector fv;
  fv.space = kD2SpaceId;
  const int bins = std::max(1, options.num_bins);
  fv.values.assign(bins, 0.0);

  if (mesh.IsEmpty()) return fv;
  std::vector<double> cumulative(mesh.NumTriangles());
  double total_area = 0.0;
  for (size_t t = 0; t < mesh.NumTriangles(); ++t) {
    total_area += 0.5 * mesh.FaceNormal(t).Norm();
    cumulative[t] = total_area;
  }
  const Aabb box = mesh.BoundingBox();
  const double diagonal = box.Extent().Norm();
  if (total_area <= 0.0 || diagonal <= 0.0) return fv;

  Rng rng(options.seed);
  const int samples = std::max(1, options.num_samples);
  for (int s = 0; s < samples; ++s) {
    Vec3 p[2];
    for (Vec3& point : p) {
      const size_t t =
          PickTriangle(cumulative, rng.NextDouble() * total_area);
      Vec3 a, b, c;
      mesh.TriangleVertices(t, &a, &b, &c);
      point = SamplePointOnTriangle(a, b, c, &rng);
    }
    // Distances are in [0, diagonal]; map to a bin index.
    const double d = (p[0] - p[1]).Norm() / diagonal;
    int bin = static_cast<int>(d * bins);
    bin = std::clamp(bin, 0, bins - 1);
    fv.values[bin] += 1.0;
  }
  for (double& v : fv.values) v /= static_cast<double>(samples);
  return fv;
}

FeatureSpaceDef MakeD2SpaceDef(const D2Options& options) {
  FeatureSpaceDef def;
  def.id = kD2SpaceId;
  def.dim = std::max(1, options.num_bins);
  def.standardize = false;  // already a probability histogram
  def.needs = PipelineStage::kNormalized;  // samples the normalized mesh
  def.index_backend = kLinearScanBackendId;  // an R-tree degenerates here
  def.extractor = [options](const ExtractionArtifacts& art)
      -> Result<FeatureVector> {
    return D2Feature(art.normalization.mesh, options);
  };
  return def;
}

}  // namespace dess
